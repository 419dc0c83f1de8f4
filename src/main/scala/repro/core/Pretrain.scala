package repro.core

import repro.dataflow._
import repro.workloads.Workload

/** One historical execution: a simulated deployment plus its Algorithm-1
  * bottleneck labels.
  */
final case class HistoryRun(
    workloadKey: String,
    run: RunResult,
    labels: Map[String, Int],
)

/** A pre-trained cluster: its similarity-center DAG, member DAG names, the
  * cluster's GNN encoder, and the cluster's history (used to construct
  * warm-up datasets for online fine-tuning, Algorithm 2 line 3).
  */
final case class ClusterModel(
    id: Int,
    centerGraph: LabeledGraph,
    memberDags: Set[String],
    encoder: GnnEncoder,
    history: Vector[HistoryRun],
) {
  /** Cached default warm-up set — sessions for every workload in the same
    * cluster share it instead of re-embedding the whole cluster history.
    */
  lazy val defaultWarmUpRows: Vector[TrainRow] = warmUpRows()

  private val seed: Long = 5

  /** ConstructWarmUpDataset: embed sampled cluster history through the
    * frozen encoder; rows are (parallelism-agnostic embedding, parallelism,
    * label) for every labeled operator. Capped for fine-tuning efficiency.
    */
  def warmUpRows(cap: Int = 8000): Vector[TrainRow] = {
    val rows = Vector.newBuilder[TrainRow]
    history.foreach { h =>
      val sample = Pretrain.toSample(h)
      val emb    = encoder.embed(sample)
      val dag    = h.run.dag
      dag.ops.zipWithIndex.foreach { case (op, i) =>
        val l = h.labels(op.id)
        if (l >= 0) rows += TrainRow(emb(i), h.run.parallelisms(op.id), l)
      }
    }
    val all = rows.result()
    if (all.size <= cap) all
    else {
      // Seeded subsample, keeping all positives (they carry the threshold).
      val (pos, neg) = all.partition(_.label == 1)
      val keepNeg = neg.zipWithIndex
        .filter { case (_, i) => DetRandom.unit(seed, "warm", i) < (cap - pos.size).toDouble / neg.size }
        .map(_._1)
      pos ++ keepNeg
    }
  }
}

/** The full pre-trained artifact for one execution mode. */
final case class Pretrained(mode: SimMode, clusters: Vector[ClusterModel]) {
  /** Algorithm 2 line 1: nearest cluster by GED to the similarity centers. */
  def assign(dag: Dag): ClusterModel = {
    val g = LabeledGraph.from(dag)
    clusters.minBy(c => (Ged.distance(g, c.centerGraph), c.id))
  }
}

/** Offline pre-training phase (§III, §IV-A): generate execution histories,
  * cluster their DAGs with GED K-means, and train one GNN-based encoder per
  * cluster on the operator-level bottleneck classification task.
  */
object Pretrain {

  /** Normalized job-level cost used by the ZeroTune baseline's regression
    * objective: log mean per-epoch latency relative to the zero-load base.
    */
  def jobCost(run: RunResult): Double = {
    val lat = Simulator.epochLatencies(run)
    math.log(lat.sum / lat.size / 0.25)
  }

  /** Build a [[GraphSample]] from a labeled history run. */
  def toSample(h: HistoryRun): GraphSample = {
    val dag = h.run.dag
    agnosticSample(dag, h.run.sourceRates).copy(
      pNorm = dag.ops.map(op => Features.pNorm(h.run.parallelisms(op.id))).toArray,
      labels = dag.ops.map(op => h.labels(op.id)).toArray,
      jobCost = jobCost(h.run),
    )
  }

  /** A parallelism-agnostic sample of a DAG at given source rates (pNorm
    * zeroed; used for embedding during online tuning).
    */
  def agnosticSample(dag: Dag, sourceRates: Map[String, Double]): GraphSample = {
    val idx = dag.ops.map(_.id).zipWithIndex.toMap
    GraphSample(
      x = Features.encodeDag(dag, sourceRates),
      upstream = dag.ops.map(op => dag.upstream(op.id).map(idx).toArray).toArray,
      downstream = dag.ops.map(op => dag.downstream(op.id).map(idx).toArray).toArray,
      pNorm = new Array[Double](dag.ops.size),
      labels = Array.fill(dag.ops.size)(-1),
      jobCost = 0.0,
    )
  }

  /** Generate `runsPer` historical executions per workload: source-rate
    * multipliers drawn continuously from (1, 10) — disjoint from the
    * integer multipliers used during online tuning (§V-A pre-training
    * setup) — and parallelism degrees drawn uniformly from [1, 60].
    */
  def generateHistories(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int,
      seed: Long = 17,
  ): Vector[HistoryRun] = {
    workloads.toVector.flatMap { w =>
      (0 until runsPer).map { r =>
        // Stratified across runs so the (1, 10) range is covered; continuous
        // draws keep the pre-training rates disjoint from the integer
        // multipliers used online.
        val u = (r + DetRandom.unit(seed, w.key, r, "rate")) / runsPer
        val m = math.min(9.97, 1.0 + 9.0 * u)
        val par = w.dag.ops.map { op =>
          // Half log-uniform, half uniform over [1, 100]: thresholds span
          // two orders of magnitude across workloads and the labels must
          // straddle each of them — log-uniform covers the small ones
          // densely, uniform keeps coverage at high parallelism.
          val p =
            if (op.opType == OpType.Source) 1
            else {
              val u = DetRandom.unit(seed, w.key, r, op.id, "p")
              if (DetRandom.unit(seed, w.key, r, op.id, "mix") < 0.5)
                math.min(100, math.max(1, math.exp(u * math.log(100.0)).toInt))
              else 1 + (u * 100).toInt.min(99)
            }
          op.id -> p
        }.toMap
        val run = Simulator.run(w.dag, w.rates(m, mode), par, mode)
        HistoryRun(w.key, run, Labeler.label(run))
      }
    }
  }

  /** Full offline pre-training. `k = 0` selects k with the elbow method. */
  def pretrain(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int = 40,
      k: Int = 0,
      epochs: Int = 25,
      hidden: Int = 24,
      layers: Int = 5,
      tau: Double = 5.0,
      seed: Long = 17,
  ): Pretrained = {
    val histories = generateHistories(workloads, mode, runsPer, seed)

    // Cluster the distinct DAG structures.
    val distinctDags = workloads.map(_.dag).toVector
    val graphs = distinctDags.map(LabeledGraph.from)
    val kUse =
      if (k > 0) k
      else if (graphs.size <= 3) 1
      else Clustering.elbowK(graphs, 2 to math.min(7, graphs.size - 1), tau, seed)
    val km = Clustering.kmeans(graphs, kUse, tau, seed = seed)

    val byDagName = histories.groupBy(_.run.dag.name)
    val clusters = (0 until kUse).toVector.map { c =>
      val memberIdx  = graphs.indices.filter(km.assignment(_) == c)
      val memberDags = memberIdx.map(distinctDags(_).name).toSet
      val clusterHist = memberIdx.toVector.flatMap(i => byDagName.getOrElse(distinctDags(i).name, Vector.empty))
      val enc = new GnnEncoder(
        inputDim = Features.dim, hidden = hidden, layers = layers,
        objective = Gnn.BottleneckClassification, seed = DetRandom.mix(seed, "enc", c),
      )
      val samples = clusterHist.map(toSample).filter(_.labels.exists(_ >= 0))
      if (samples.nonEmpty) enc.train(samples, epochs)
      ClusterModel(c, graphs(km.centers(c)), memberDags, enc, clusterHist)
    }
    Pretrained(mode, clusters)
  }

  /** Train the ZeroTune-style global job-cost regressor on PQP histories
    * (ZeroTune is zero-shot: one global model, no clustering; §V-A notes it
    * is specific to PQP queries).
    */
  def pretrainZeroTune(
      workloads: Seq[Workload],
      mode: SimMode,
      runsPer: Int = 40,
      epochs: Int = 120,
      hidden: Int = 16,
      layers: Int = 4,
      seed: Long = 23,
  ): GnnEncoder = {
    val histories = generateHistories(workloads, mode, runsPer, seed)
    val enc = new GnnEncoder(
      inputDim = Features.dim, hidden = hidden, layers = layers,
      objective = Gnn.JobCostRegression, seed = DetRandom.mix(seed, "zt"),
    )
    enc.train(histories.map(toSample), epochs)
    enc
  }
}
