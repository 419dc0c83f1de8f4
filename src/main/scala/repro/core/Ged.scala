package repro.core

import repro.dataflow.Dag
import scala.collection.mutable

/** A small labeled directed graph — the clustering view of a dataflow DAG
  * (node label = operator type, per §IV-C's edit operations).
  */
final case class LabeledGraph(labels: Vector[String], edges: Vector[(Int, Int)]) {
  val n: Int = labels.size
  // Directed adjacency matrix as bitsets-by-row for O(1) edge tests.
  val adj: Array[Array[Boolean]] = {
    val a = Array.ofDim[Boolean](n, n)
    edges.foreach { case (u, v) => a(u)(v) = true }
    a
  }
  def hasEdge(u: Int, v: Int): Boolean = adj(u)(v)
  def degree(v: Int): Int =
    (0 until n).count(u => adj(v)(u) || adj(u)(v))
}

object LabeledGraph {
  def from(dag: Dag): LabeledGraph = {
    val idx = dag.ops.map(_.id).zipWithIndex.toMap
    LabeledGraph(
      dag.ops.map(_.opType.name),
      dag.edges.map { case (a, b) => (idx(a), idx(b)) },
    )
  }
}

/** Exact Graph Edit Distance for directed dataflow DAGs (§IV-C).
  *
  * Edit operations and unit costs: node insertion/deletion (1), *operator
  * type modification* (node relabel, 1), edge insertion/deletion (1), and
  * *edge direction modification* (reversal, 1) — the paper's two extra
  * operations for directed dataflow graphs.
  *
  * The search is best-first A* over partial node mappings (the AStar+-LSa
  * structure of Chang et al.): states map a prefix of g1's nodes to nodes
  * of g2 or to epsilon (deletion); edge costs are charged incrementally
  * against already-mapped pairs. Two regimes:
  *
  * - `useLsa = true`: an admissible label-set + edge-count lower bound
  *   guides the search and, together with the threshold `bound`, prunes
  *   branches — the fast verifier used for graph similarity search.
  * - `useLsa = false`: h = 0 (plain uniform-cost search) — the "direct GED
  *   computation" baseline of the Fig. 11b ablation.
  */
object Ged {

  private final case class State(
      f: Double, g: Double, i: Int, mapping: List[Int], used: Long,
  )

  private implicit val ord: Ordering[State] =
    Ordering.by[State, (Double, Int)](s => (s.f, -s.i))

  /** Compute GED(g1, g2).
    *
    * Used g2 nodes are tracked in a 64-bit mask, so g2 may have at most 64
    * nodes; a larger g2 is rejected rather than answered wrongly.
    *
    * @param bound  prune states whose optimistic cost exceeds this; if the
    *               true GED exceeds `bound` the result is > `bound` (a
    *               valid lower bound, not the exact distance).
    * @param budget max node expansions before giving up; on exhaustion the
    *               best known lower bound is returned.
    */
  def ged(
      a: LabeledGraph,
      b: LabeledGraph,
      bound: Double = Double.PositiveInfinity,
      useLsa: Boolean = true,
      budget: Int = 2_000_000,
  ): Double = {
    require(b.n <= 64, s"Ged.ged: g2 has ${b.n} nodes, at most 64 are supported")
    // Process g1 nodes in decreasing degree order: high-degree nodes charge
    // more edge cost early, tightening pruning.
    val order = (0 until a.n).sortBy(v => -a.degree(v)).toArray

    // Precomputed structures for an allocation-light lower bound: the bound
    // is evaluated at every expansion, so it must be O(labels + edges) with
    // small constants — this is what makes the LSa-guided search actually
    // faster than plain uniform-cost search.
    val labelIds = (a.labels ++ b.labels).distinct.zipWithIndex.toMap
    val nLabels  = labelIds.size
    val aLab     = a.labels.map(labelIds).toArray
    val bLab     = b.labels.map(labelIds).toArray
    // suffixCounts1(i)(l): #nodes with label l among order(i..).
    val suffixCounts1 = Array.ofDim[Int](a.n + 1, nLabels)
    for (i <- (a.n - 1) to 0 by -1) {
      System.arraycopy(suffixCounts1(i + 1), 0, suffixCounts1(i), 0, nLabels)
      suffixCounts1(i)(aLab(order(i))) += 1
    }
    // suffixEdges1(i): #edges of g1 fully inside {order(i..)}.
    val suffixEdges1 = Array.tabulate(a.n + 1) { i =>
      val inSuffix = new Array[Boolean](a.n)
      (i until a.n).foreach(j => inSuffix(order(j)) = true)
      a.edges.count { case (u, v) => inSuffix(u) && inSuffix(v) }
    }
    val bTotalCounts = {
      val c = new Array[Int](nLabels)
      bLab.foreach(l => c(l) += 1)
      c
    }
    val scratch = new Array[Int](nLabels)

    def lowerBound(i: Int, used: Long): Double = {
      if (!useLsa) return 0.0
      System.arraycopy(bTotalCounts, 0, scratch, 0, nLabels)
      var usedCount = 0
      var v = 0
      while (v < b.n) {
        if ((used & (1L << v)) != 0) { scratch(bLab(v)) -= 1; usedCount += 1 }
        v += 1
      }
      val rem1 = a.n - i
      val rem2 = b.n - usedCount
      var common = 0
      var l = 0
      while (l < nLabels) {
        common += math.min(suffixCounts1(i)(l), scratch(l))
        l += 1
      }
      val nodeLb = math.max(rem1, rem2) - common
      val m1 = suffixEdges1(i)
      var m2 = 0
      b.edges.foreach { case (x, y) =>
        if ((used & (1L << x)) == 0 && (used & (1L << y)) == 0) m2 += 1
      }
      nodeLb + math.abs(m1 - m2)
    }

    /** Edge-edit cost of appending (u -> v) to a partial mapping. Charges
      * every edge between u and an already-processed g1 node against the
      * corresponding g2 pair; a matched pair of opposite directions costs 1
      * (reversal) instead of 2 (delete + insert).
      */
    def extensionCost(u: Int, v: Int, i: Int, mapping: List[Int]): Double = {
      var cost = 0.0
      // Node cost.
      cost += {
        if (v < 0) 1.0
        else if (a.labels(u) != b.labels(v)) 1.0
        else 0.0
      }
      // mapping holds images of order(i-1), order(i-2), ... (reversed).
      var j = i - 1
      var rest = mapping
      while (j >= 0) {
        val u2 = order(j)
        val v2 = rest.head
        rest = rest.tail
        val a1 = a.hasEdge(u, u2); val a2 = a.hasEdge(u2, u)
        if (v < 0 || v2 < 0) {
          cost += (if (a1) 1 else 0) + (if (a2) 1 else 0)
        } else {
          val b1 = b.hasEdge(v, v2); val b2 = b.hasEdge(v2, v)
          val direct = (if (a1 != b1) 1 else 0) + (if (a2 != b2) 1 else 0)
          val reversed = (if (a1 != b2) 1 else 0) + (if (a2 != b1) 1 else 0) + 1
          cost += math.min(direct, reversed)
        }
        j -= 1
      }
      cost
    }

    /** Cost to insert all still-unused g2 nodes at a complete state. */
    def completionCost(used: Long): Double = {
      val unused = (0 until b.n).filter(v => (used & (1L << v)) == 0)
      if (unused.isEmpty) return 0.0
      val unusedSet = unused.toSet
      val nodeCost = unused.size.toDouble
      // Every g2 edge touching an inserted node must itself be inserted.
      val edgeCost = b.edges.count { case (u, v) => unusedSet(u) || unusedSet(v) }.toDouble
      nodeCost + edgeCost
    }

    val pq = mutable.PriorityQueue.empty[State](ord.reverse)
    pq.enqueue(State(lowerBound(0, 0L), 0.0, 0, Nil, 0L))
    var best = Double.PositiveInfinity
    var expansions = 0

    while (pq.nonEmpty) {
      val s = pq.dequeue()
      if (s.f > math.min(bound, best)) return math.min(best, s.f)
      if (s.i == a.n) {
        // Complete mapping: the true total adds the insertion cost of every
        // unused g2 node (and its incident edges), which the admissible
        // bound only partially covers — so record it and keep searching
        // until the frontier can no longer beat it.
        val total = s.g + completionCost(s.used)
        if (total < best) best = total
      } else {
        expansions += 1
        if (expansions > budget) {
          // Give up: the front of the queue is a valid lower bound.
          return math.min(best, s.f)
        }
        val u = order(s.i)
        // Try mapping u to every unused g2 node, and to epsilon.
        var v = 0
        while (v < b.n) {
          if ((s.used & (1L << v)) == 0) {
            val g2 = s.g + extensionCost(u, v, s.i, s.mapping)
            val used2 = s.used | (1L << v)
            val f2 = g2 + lowerBound(s.i + 1, used2)
            if (f2 <= math.min(bound, best))
              pq.enqueue(State(f2, g2, s.i + 1, v :: s.mapping, used2))
          }
          v += 1
        }
        val gDel = s.g + extensionCost(u, -1, s.i, s.mapping)
        val fDel = gDel + lowerBound(s.i + 1, s.used)
        if (fDel <= math.min(bound, best))
          pq.enqueue(State(fDel, gDel, s.i + 1, -1 :: s.mapping, s.used))
      }
    }
    best
  }

  /** Similarity-search verification: is GED(a, b) <= tau? (Definition 1.) */
  def withinThreshold(a: LabeledGraph, b: LabeledGraph, tau: Double,
      useLsa: Boolean = true): Boolean =
    ged(a, b, bound = tau, useLsa = useLsa) <= tau

  private val distanceMemo =
    new java.util.concurrent.ConcurrentHashMap[(LabeledGraph, LabeledGraph), java.lang.Double]()

  /** Bounded distance for clustering: exact when below `cap`, else `cap`.
    * The triangle-inequality property (Eq. 6) of GED is preserved up to the
    * cap, which K-means assignment tolerates. Memoized: K-means and the
    * elbow sweep revisit the same pairs many times.
    */
  def distance(a: LabeledGraph, b: LabeledGraph, cap: Double = 40.0): Double = {
    val key = if (a.hashCode <= b.hashCode) (a, b) else (b, a)
    val hit = distanceMemo.get(key)
    if (hit != null) hit.doubleValue()
    else {
      val d = math.min(cap, ged(key._1, key._2, bound = cap))
      distanceMemo.put(key, d)
      d
    }
  }
}
