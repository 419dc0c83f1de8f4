package perfbench

import repro.core._
import repro.dataflow.{DetRandom, RunResult, SimMode, Simulator}
import repro.workloads.{Pqp, Workload, Workloads}

/** Per-layer timings of the program's final classes and objects, which the
  * benchmark cannot wrap. Each public function is timed on inputs the
  * workload itself produced: the (job, rates, configuration) of every
  * recorded tuning process, the histories of the pre-trained artifact, and
  * the 61 workload DAGs.
  */
object Layers {

  /** Cap on replayed calls per function: enough for a stable median. */
  private val maxCalls = 2000

  private def us(ns: Long): Double = ns / 1e3
  private def ms(ns: Long): Double = ns / 1e6

  private def medianUs[A](inputs: Seq[A])(f: A => Any): Double =
    Stats.medianOr0(inputs.take(maxCalls).map(a => us(Clock.timed(f(a))._2)))

  /** One simulated deployment and what the program derives from it. */
  final case class Deployment(run: RunResult, encoder: GnnEncoder)

  /** Simulator, labeler, feature-encoding and GNN-embedding timings, each
    * on the deployments of the workload's timed section.
    */
  def calls(deployments: Seq[Deployment], mode: SimMode): Seq[Metric] = {
    val runs = deployments.map(_.run)
    Seq(
      Metric("dataflow.sim_run_us.p50", "us", medianUs(runs) { r =>
        Simulator.run(r.dag, r.sourceRates, r.parallelisms, mode)
      }),
      Metric("labeler.label_us.p50", "us", medianUs(runs)(Labeler.label(_))),
      Metric("features.encode_dag_us.p50", "us", medianUs(runs)(r => Features.encodeDag(r.dag, r.sourceRates))),
      Metric("gnn.embed_us.p50", "us", {
        val inputs = deployments.map(d => (d.encoder, Pretrain.agnosticSample(d.run.dag, d.run.sourceRates)))
        medianUs(inputs) { case (enc, s) => enc.embed(s) }
      }),
    )
  }

  /** Session-start pieces of Algorithm 2 lines 1 and 3: cluster assignment
    * of every StreamTune job, and a fresh warm-up set for every cluster
    * those jobs use. `memo` is the GED memo state sessions start from.
    */
  def sessionStart(jobs: Seq[Workload], pre: Pretrained, memo: java.util.Map[AnyRef, AnyRef]): Seq[Metric] = {
    GedMemo.restore(memo)
    val (clusters, assignNs) = Clock.timed(jobs.map(w => pre.assign(w.dag)))
    val used = clusters.distinctBy(_.id)
    val (rows, warmNs) = Clock.timed(used.map(_.warmUpRows().size))
    Seq(
      Metric("pretrain.assign_ms", "ms", ms(assignNs)),
      Metric("pretrain.warmup_rows_ms", "ms", ms(warmNs)),
      Metric("pretrain.warmup_rows", "count", rows.sum.toDouble),
    )
  }

  /** The pieces of `Pretrain.pretrain` and `Pretrain.pretrainZeroTune`, in
    * their order and on their inputs, starting from an empty GED memo:
    * history generation, the elbow sweep, K-means at the chosen k, GNN
    * training of every cluster encoder and of the ZeroTune encoder, and
    * pairwise similarity-search verification over the 61 DAGs.
    */
  def pretraining(cfg: PretrainConfig, mode: SimMode): Seq[Metric] = {
    GedMemo.clear()
    val workloads = Workloads.all
    val ((hist, ztHist), histNs) = Clock.timed((
      Pretrain.generateHistories(workloads, mode, cfg.runsPer, cfg.seed),
      Pretrain.generateHistories(Pqp.all, mode, cfg.ztRunsPer, cfg.ztSeed),
    ))
    val dags   = workloads.map(_.dag)
    val graphs = dags.map(LabeledGraph.from)
    val (k, elbowNs) = Clock.timed(
      Clustering.elbowK(graphs, 2 to math.min(7, graphs.size - 1), cfg.tau, cfg.seed))
    val (km, kmeansNs) = Clock.timed(Clustering.kmeans(graphs, k, cfg.tau, seed = cfg.seed))
    val byDag = hist.groupBy(_.run.dag.name)
    val trainNs = (0 until k).map { c =>
      val samples = graphs.indices.filter(km.assignment(_) == c)
        .flatMap(i => byDag.getOrElse(dags(i).name, Vector.empty))
        .map(Pretrain.toSample).filter(_.labels.exists(_ >= 0))
      val enc = new GnnEncoder(Features.dim, cfg.hidden, cfg.layers,
        objective = Gnn.BottleneckClassification, seed = DetRandom.mix(cfg.seed, "enc", c))
      if (samples.isEmpty) 0L else Clock.timed(enc.train(samples.toVector, cfg.epochs))._2
    }.sum + {
      val enc = new GnnEncoder(Features.dim, cfg.ztHidden, cfg.ztLayers,
        objective = Gnn.JobCostRegression, seed = DetRandom.mix(cfg.ztSeed, "zt"))
      Clock.timed(enc.train(ztHist.map(Pretrain.toSample), cfg.ztEpochs))._2
    }
    val pairs = for (i <- graphs.indices; j <- graphs.indices if i != j) yield (graphs(i), graphs(j))
    Seq(
      Metric("pretrain.histories_ms", "ms", ms(histNs)),
      Metric("clustering.elbow_ms", "ms", ms(elbowNs)),
      Metric("clustering.kmeans_ms", "ms", ms(kmeansNs)),
      Metric("gnn.train_ms.total", "ms", ms(trainNs)),
      Metric("ged.within_threshold_us.p50", "us",
        medianUs(pairs) { case (a, b) => Ged.withinThreshold(a, b, cfg.tau) }),
    )
  }
}
