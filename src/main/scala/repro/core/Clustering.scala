package repro.core

import repro.dataflow.DetRandom

/** GED-based K-means over dataflow DAGs with similarity-center updates
  * (§IV-C).
  *
  * Cluster centroids are *similarity centers* (Definition 2): the member
  * DAG appearing most often across the tau-threshold similarity-search
  * results of all members — an approximate median graph that avoids
  * averaging graphs.
  */
object Clustering {

  private val maxIter: Int = 10

  final case class Result(
      centers: Vector[Int],              // indices into `graphs`
      assignment: Vector[Int],           // graph index -> cluster id
      wcss: Double,                      // sum of squared distances to centers
  )

  /** Appearance count C_g of Definition 2 for every member of `cluster`. */
  def appearanceCounts(
      graphs: IndexedSeq[LabeledGraph],
      cluster: Seq[Int],
      tau: Double,
      useLsa: Boolean = true,
  ): Map[Int, Int] = {
    val counts = scala.collection.mutable.Map(cluster.map(_ -> 0): _*)
    for (q <- cluster; g <- cluster) {
      val within =
        if (useLsa) Ged.withinThreshold(graphs(q), graphs(g), tau)
        else Ged.ged(graphs(q), graphs(g), useLsa = false) <= tau
      if (within) counts(g) += 1
    }
    counts.toMap
  }

  /** Similarity center (Definition 2): argmax appearance count, ties broken
    * by lowest index for determinism.
    */
  def similarityCenter(
      graphs: IndexedSeq[LabeledGraph],
      cluster: Seq[Int],
      tau: Double,
      useLsa: Boolean = true,
  ): Int = {
    require(cluster.nonEmpty, "empty cluster has no similarity center")
    val counts = appearanceCounts(graphs, cluster, tau, useLsa)
    cluster.maxBy(g => (counts(g), -g))
  }

  /** K-means over graphs under (bounded) GED. Initialization picks k seeded
    * distinct graphs; update recomputes similarity centers; stops on stable
    * centers or `maxIter`.
    */
  def kmeans(
      graphs: IndexedSeq[LabeledGraph],
      k: Int,
      tau: Double = 5.0,
      seed: Long = 3,
  ): Result = {
    require(k >= 1 && k <= graphs.size, s"k=$k out of range for ${graphs.size} graphs")
    // Seeded distinct initial centers.
    var centers = {
      val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
      var t = 0
      while (picked.size < k) {
        picked += (DetRandom.unit(seed, "init", t) * graphs.size).toInt.min(graphs.size - 1)
        t += 1
      }
      picked.toVector
    }
    var assignment = Vector.empty[Int]
    var iter = 0
    var stable = false
    while (!stable && iter < maxIter) {
      assignment = graphs.indices.map { gi =>
        centers.indices.minBy(c => (Ged.distance(graphs(gi), graphs(centers(c))), c))
      }.toVector
      val newCenters = centers.indices.map { c =>
        val members = graphs.indices.filter(assignment(_) == c)
        if (members.isEmpty) centers(c)
        else similarityCenter(graphs, members, tau)
      }.toVector
      stable = newCenters == centers
      centers = newCenters
      iter += 1
    }
    val wcss = graphs.indices.map { gi =>
      val d = Ged.distance(graphs(gi), graphs(centers(assignment(gi))))
      d * d
    }.sum
    Result(centers, assignment, wcss)
  }

  /** Elbow method (§V-A): pick the k whose WCSS curve has the largest
    * second difference (the sharpest bend) over `kRange`.
    */
  def elbowK(
      graphs: IndexedSeq[LabeledGraph],
      kRange: Range,
      tau: Double = 5.0,
      seed: Long = 3,
  ): Int = {
    val ks = kRange.filter(k => k >= 1 && k <= graphs.size).toVector
    require(ks.nonEmpty, "no valid k in range")
    if (ks.size <= 2) return ks.head
    val wcss = ks.map(k => kmeans(graphs, k, tau, seed = seed).wcss)
    val bends = (1 until ks.size - 1).map { i =>
      (wcss(i - 1) - wcss(i)) - (wcss(i) - wcss(i + 1))
    }
    ks(1 + bends.indices.maxBy(bends))
  }
}
