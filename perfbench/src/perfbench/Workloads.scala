package perfbench

import java.util.SplittableRandom
import repro.core._
import repro.dataflow.SimMode
import repro.harness.{Evaluation, WorkloadStats}
import repro.workloads.{Nexmark, Pqp, Workload, Workloads}

/** The reduced, fixed pre-training size used by the online set-up and by
  * the `pretrain` workload. At 40 runs per workload the cluster warm-up
  * sets range from about 1K rows to the 8K cap. The seeds are the program's
  * defaults and do not follow `--seed`: the pre-training seed sets the
  * elbow's k, and with it the size of the clusters whose similarity centers
  * cost quadratic GED work, so a seeded pre-training changed a `pretrain`
  * pass by about 25%.
  */
final case class PretrainConfig(
    seed: Long = 17,
    ztSeed: Long = 23,
    runsPer: Int = 40,
    epochs: Int = 5,
    hidden: Int = 24,
    layers: Int = 5,
    tau: Double = 5.0,
    ztRunsPer: Int = 10,
    ztEpochs: Int = 20,
    ztHidden: Int = 16,
    ztLayers: Int = 4,
) {
  def describe: Seq[(String, String)] = Seq(
    "seed" -> seed.toString, "zerotune_seed" -> ztSeed.toString,
    "runs_per_workload" -> runsPer.toString, "epochs" -> epochs.toString,
    "hidden" -> hidden.toString, "layers" -> layers.toString, "tau" -> Json.num(tau),
    "k" -> "\"elbow over 2..7\"",
    "zerotune_runs_per_workload" -> ztRunsPer.toString, "zerotune_epochs" -> ztEpochs.toString,
  )
}

/** One timed pass over a workload's fixed unit of work. */
final case class PassOutcome(
    wallNs: Long,
    cpuNs: Long,
    attempted: Int,
    failed: Int,
    fingerprint: String,
    problems: Seq[String],
    metrics: Seq[Metric],
    samples: Map[String, Seq[Double]],
)

/** What a benchmark workload provides to the runner in [[Main]]. */
trait BenchWorkload {
  def name: String
  def jobsDescription: Seq[String]
  def patternSeed: Option[Long]
  /** Builds this workload's inputs and state; repeated to measure set-up. */
  def setup(): Unit
  /** Problems found while checking that the repeated set-ups agree. */
  def setupProblems: Seq[String]
  def pass(traced: Boolean): PassOutcome
  /** Metrics from the pooled samples of the untraced passes. */
  def pooled(samples: Seq[Map[String, Seq[Double]]]): Seq[Metric]
  /** Replayed per-layer timings, after all passes. */
  def layers(): Seq[Metric]
  /** Fixes the set-up state a timed pass must start from. */
  def freshStateNote: String
}

object BenchWorkload {
  val mode: SimMode = SimMode.Flink
  val cfg: PretrainConfig = PretrainConfig()
  val names: Seq[String] = Seq("online-svm", "online-gbt", "pretrain")

  def apply(name: String, seed: Long): BenchWorkload = name match {
    case "online-svm" =>
      // The seed picks one of the smallest and one of the largest DAGs of
      // each PQP template, so the operator count, which sets the SVM work
      // per process, is the same for every seed.
      val rnd = new SplittableRandom(seed)
      val pqp = Seq(Pqp.linears, Pqp.twoWayJoins, Pqp.threeWayJoins).flatMap { t =>
        val sizes = t.map(_.dag.size)
        Seq(sizes.min, sizes.max).map { n =>
          val same = t.filter(_.dag.size == n)
          same(rnd.nextInt(same.size))
        }
      }
      new Online(name, Vector(Nexmark.q3, Nexmark.q5, Nexmark.q8) ++ pqp, pqp.toVector,
        "StreamTune(SVM)", Evaluation.svmModel, baselines = true, tailQ = 0.99)
    case "online-gbt" =>
      new Online(name, Vector(Pqp.linear(0)), Vector.empty,
        "StreamTune(XGBoost)", Evaluation.gbtModel, baselines = false, tailQ = 0.90)
    case "pretrain" =>
      new PretrainOnly
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other' (known: ${names.mkString(", ")})")
  }

  def pretrain(): Pretrained =
    Pretrain.pretrain(Workloads.all, mode, runsPer = cfg.runsPer, k = 0, epochs = cfg.epochs,
      hidden = cfg.hidden, layers = cfg.layers, tau = cfg.tau, seed = cfg.seed)

  def pretrainZeroTune(): GnnEncoder =
    Pretrain.pretrainZeroTune(Pqp.all, mode, runsPer = cfg.ztRunsPer, epochs = cfg.ztEpochs,
      hidden = cfg.ztHidden, layers = cfg.ztLayers, seed = cfg.ztSeed)

  def clusterFingerprint(pre: Pretrained): String = Fingerprint.addClusters(new Fingerprint, pre).hex
}

/** Closed-loop online tuning: `Evaluation.evaluate` drives every session
  * through the full 120-change pattern, and each session sees its next rate
  * change only after the previous `tuneProcess` returned (Algorithm 2).
  * Set-up pre-trains the artifacts at the reduced fixed size.
  *
  * The rate pattern is always the paper protocol's (pattern seed 2025): the
  * work of a pass follows the order of rate changes through the refits it
  * triggers, and over pattern seeds 1-5 one online-gbt pass took 35-50 s.
  */
final class Online(
    val name: String,
    jobs: Vector[Workload],
    zeroTuneJobs: Vector[Workload],
    streamTune: String,
    model: Int => FineTuneModel,
    baselines: Boolean,
    tailQ: Double,
) extends BenchWorkload {
  import BenchWorkload.{cfg, mode}

  override def jobsDescription: Seq[String] = jobs.map(_.key)
  override def patternSeed: Option[Long] = Some(Online.patternSeed)

  private var pre: Pretrained = _
  private var zt: GnnEncoder = _
  private var memoAfterSetup: java.util.Map[AnyRef, AnyRef] = _
  private val setupFingerprints = scala.collection.mutable.ArrayBuffer.empty[String]
  private var lastRecords: Vector[ProcessRecord] = Vector.empty
  private var lastArtifact: Pretrained = _
  private val optima = scala.collection.mutable.Map.empty[(String, Double), Int]
  private val optimumProblems = scala.collection.mutable.ArrayBuffer.empty[String]

  override def setup(): Unit = {
    GedMemo.clear()
    pre = BenchWorkload.pretrain()
    if (zeroTuneJobs.nonEmpty) zt = BenchWorkload.pretrainZeroTune()
    memoAfterSetup = GedMemo.snapshot()
    setupFingerprints += BenchWorkload.clusterFingerprint(pre)
  }

  override def setupProblems: Seq[String] =
    if (setupFingerprints.distinct.size <= 1) Nil
    else Seq(s"repeated set-ups pre-trained different artifacts: ${setupFingerprints.mkString(", ")}")

  override def freshStateNote: String =
    "each pass copies every ClusterModel (fresh lazy defaultWarmUpRows), restores the Ged.distanceMemo " +
      s"snapshot taken right after set-up (${if (GedMemo.present) "by reflection" else "memo absent"}), " +
      "and builds a new FineTuneModel per session (fresh MonotonicSvm threshold cache); " +
      "no warm-up runs on the timed jobs, so the first pass also pays the tuner's JIT warm-up"

  private def optimum(w: Workload, m: Double): Int =
    optima.getOrElseUpdate((w.key, m), {
      val rates = w.rates(m, mode)
      val opt = Optimum.config(w.dag, rates, mode)
      optimumProblems ++= Optimum.selfCheck(w.dag, rates, mode, opt)
      opt.values.sum
    })

  override def pass(traced: Boolean): PassOutcome = {
    // A copy of each cluster starts without the lazily built warm-up set,
    // as a fresh process does; sessions of one cluster still share it.
    val artifact = Pretrained(pre.mode, pre.clusters.map(_.copy()))
    GedMemo.restore(memoAfterSetup)
    val rec = new Recorder(mode, traced)
    val methods =
      Seq(streamTune -> rec.session(streamTune, Evaluation.streamTuneFactory(artifact, rec.model(model)))) ++
        (if (!baselines) Nil
         else Seq(
           "DS2" -> rec.session("DS2", Evaluation.ds2Factory(mode)),
           "ContTune" -> rec.session("ContTune", Evaluation.contTuneFactory(mode))))
    val cpu0 = Clock.cpuNanos()
    val t0   = System.nanoTime()
    rec.evaluationStarts()
    val main = Evaluation.evaluate(jobs, mode, methods, patternSeed = Online.patternSeed)
    val sessionsMain = rec.sessionList
    val zero =
      if (zeroTuneJobs.isEmpty) Vector.empty[WorkloadStats]
      else {
        rec.evaluationStarts()
        Evaluation.evaluate(zeroTuneJobs, mode,
          Seq("ZeroTune" -> rec.session("ZeroTune", Evaluation.zeroTuneFactory(zt, mode))),
          patternSeed = Online.patternSeed)
      }
    val wallNs = System.nanoTime() - t0
    val cpuNs  = Clock.cpuNanos() - cpu0
    check(rec, main ++ zero, sessionsMain, artifact, wallNs, cpuNs)
  }

  private def check(rec: Recorder, stats: Vector[WorkloadStats], sessionsMain: Vector[SessionRecord],
      artifact: Pretrained, wallNs: Long, cpuNs: Long): PassOutcome = {
    val records  = rec.processList
    val sessions = rec.sessionList
    val ok       = records.filter(_.result != null)
    val failed   = records.size - ok.size
    val problems =
      sessions.flatMap(s => s.error.map(e => s"${s.method}/${s.workloadKey} threw: $e")) ++
        ok.flatMap(Invariants.violations(_, mode))
    val st       = ok.filter(_.method == streamTune)
    val stStats  = stats.filter(_.method == streamTune)
    val regret   = Stats.mean(st.map(r => r.result.parallelisms.values.sum.toDouble / optimum(r.workload, r.multiplier)))
    val walls    = sessionsMain.map(_.wallNs.toDouble)
    val stSessions = sessions.filter(_.method == streamTune)
    // Only the traced passes keep their records, for the layer replays, so
    // that retained_heap_mb (measured after the untraced passes) counts the
    // program's state and not the benchmark's.
    if (rec.traced) { lastRecords = records; lastArtifact = artifact }

    val outcome = Seq(
      Metric("run_s", "s", wallNs / 1e9),
      Metric("run_cpu_s", "s", cpuNs / 1e9),
      Metric("session_start_ms", "ms", stSessions.map(_.startNs).sum / 1e6),
      Metric("failed_share", "ratio", Tally.failedShare(records)),
      Metric("reconfigs_per_process", "ratio",
        stStats.map(_.totalReconfigurations).sum.toDouble / stStats.map(_.processes).sum),
      Metric("parallelism_10wu", "count", Stats.mean(stStats.map(_.parallelismAt10Wu))),
      Metric("regret", "ratio", regret),
      Metric("harness.task_wait_ms.max", "ms", sessions.map(_.waitNs).max / 1e6),
      Metric("harness.straggler_ratio", "ratio", walls.max / Stats.mean(walls)),
      Metric("harness.threads_observed", "count", sessionsMain.map(_.thread).distinct.size.toDouble),
    )
    val layer = if (!rec.traced) Nil else modelMetrics(rec.modelList, st)
    val samples = Map(
      "process_ms" -> st.map(_.nanos / 1e6),
      "baselines.ds2.process_ms" -> ok.filter(_.method == "DS2").map(_.nanos / 1e6),
      "baselines.conttune.process_ms" -> ok.filter(_.method == "ContTune").map(_.nanos / 1e6),
      "baselines.zerotune.process_ms" -> ok.filter(_.method == "ZeroTune").map(_.nanos / 1e6),
    )
    PassOutcome(wallNs, cpuNs, records.size, failed, Fingerprint.online(stats, artifact, jobs),
      (problems ++ optimumProblems).distinct, outcome ++ layer, samples)
  }

  private def modelMetrics(models: Vector[TracedModel], st: Vector[ProcessRecord]): Seq[Metric] = {
    val processes = math.max(1, st.size).toDouble
    val svm = models.filter(_.name == "SVM")
    val gbt = models.filter(_.name == "XGBoost")
    def fits(ms: Vector[TracedModel]) = ms.map(_.fitTimes.size).sum
    def rowsMean(ms: Vector[TracedModel]) = if (fits(ms) == 0) 0.0 else ms.map(_.fitRows).sum.toDouble / fits(ms)
    val calls = svm.map(_.probCalls).sum
    Seq(
      Metric("monotonic.svm.prob_ms.total", "ms", svm.map(_.probNs).sum / 1e6),
      Metric("monotonic.svm.prob_calls", "count", calls.toDouble),
      Metric("monotonic.svm.threshold_computes", "count", svm.map(_.misses).sum.toDouble),
      Metric("monotonic.svm.cache_hit_ratio", "ratio",
        if (calls == 0) 0.0 else 1.0 - svm.map(_.misses).sum.toDouble / calls),
      Metric("monotonic.svm.fits_per_process", "ratio", fits(svm) / processes),
      Metric("monotonic.svm.fit_rows.mean", "count", rowsMean(svm)),
      Metric("monotonic.gbt.fit_ms.p50", "ms", Stats.medianOr0(gbt.flatMap(_.fitTimes).map(_ / 1e6))),
      Metric("monotonic.gbt.fit_ms.total", "ms", gbt.map(_.fitNs).sum / 1e6),
      Metric("monotonic.gbt.fits_per_process", "ratio", fits(gbt) / processes),
      Metric("monotonic.gbt.fit_rows.mean", "count", rowsMean(gbt)),
      Metric("tuner.process_self_ms.p50", "ms", Stats.medianOr0(st.map(r => (r.nanos - r.modelNs) / 1e6))),
    )
  }

  override def pooled(samples: Seq[Map[String, Seq[Double]]]): Seq[Metric] = {
    def all(k: String) = samples.flatMap(_(k))
    val proc = all("process_ms")
    Seq(
      Metric("process_ms.p50", "ms", Stats.median(proc)),
      Metric("process_ms.tail", "ms", Stats.quantile(proc, tailQ)),
      Metric("baselines.ds2.process_ms.p50", "ms", Stats.medianOr0(all("baselines.ds2.process_ms"))),
      Metric("baselines.conttune.process_ms.p50", "ms", Stats.medianOr0(all("baselines.conttune.process_ms"))),
      Metric("baselines.zerotune.process_ms.p50", "ms", Stats.medianOr0(all("baselines.zerotune.process_ms"))),
    )
  }

  def tail: (Double, Int) = (tailQ, jobs.size * Processes.perJob)

  override def layers(): Seq[Metric] = {
    val encoderOf = jobs.map(w => w.key -> lastArtifact.assign(w.dag).encoder).toMap
    val deployments = lastRecords.filter(r => r.result != null && r.method == streamTune)
      .map(r => Layers.Deployment(r.result.finalRun, encoderOf(r.workload.key)))
    Layers.calls(deployments, mode) ++
      Layers.sessionStart(jobs, pre, memoAfterSetup) ++
      Layers.pretraining(cfg, mode)
  }
}

object Online {
  val patternSeed = 2025L
}

/** Offline pre-training over all 61 workloads, then the ZeroTune encoder
  * over PQP, each pass from an empty GED memo, exactly as the online
  * set-up pre-trains.
  */
final class PretrainOnly extends BenchWorkload {
  import BenchWorkload.{cfg, mode}

  override val name = "pretrain"
  override def jobsDescription: Seq[String] = Workloads.all.map(_.key)
  override def patternSeed: Option[Long] = None
  private var last: Pretrained = _

  /** JIT warm-up: a small pre-training, elbow sweep included, over the
    * Nexmark, Linear and 2-way-join DAGs, so that the passes run warm code
    * and their median is not pulled by a cold first pass. The memo it fills
    * is emptied before every pass.
    */
  override def setup(): Unit = {
    val small = Nexmark.all ++ Pqp.linears ++ Pqp.twoWayJoins
    GedMemo.clear()
    Pretrain.pretrain(small, mode, runsPer = 5, epochs = 2, seed = 99)
    Pretrain.pretrainZeroTune(Pqp.linears, mode, runsPer = 5, epochs = 2, seed = 99)
    GedMemo.clear()
  }

  override def setupProblems: Seq[String] = Nil

  override def freshStateNote: String =
    s"each pass starts with an empty Ged.distanceMemo (${if (GedMemo.present) "cleared by reflection" else "memo absent"}); " +
      "pre-training builds new artifacts, so no warm-up set or threshold cache carries over; " +
      "set-up warms the JIT on a small pre-training of other inputs"

  private def attemptedRuns: Int = Workloads.all.size * cfg.runsPer + Pqp.all.size * cfg.ztRunsPer

  override def pass(traced: Boolean): PassOutcome = {
    GedMemo.clear()
    val cpu0 = Clock.cpuNanos()
    val t0   = System.nanoTime()
    val result = try Right((BenchWorkload.pretrain(), BenchWorkload.pretrainZeroTune())) catch {
      case scala.util.control.NonFatal(e) => Left(e)
    }
    val wallNs = System.nanoTime() - t0
    val cpuNs  = Clock.cpuNanos() - cpu0
    result match {
      case Left(e) =>
        PassOutcome(wallNs, cpuNs, attemptedRuns, attemptedRuns, "none", Seq(s"pre-training threw: $e"),
          Seq(Metric("run_s", "s", wallNs / 1e9), Metric("run_cpu_s", "s", cpuNs / 1e9),
            Metric("failed_share", "ratio", 1.0)), Map.empty)
      case Right((pre, zt)) =>
        last = pre
        PassOutcome(wallNs, cpuNs, attemptedRuns, 0, fingerprint(pre, zt), problems(pre),
          Seq(Metric("run_s", "s", wallNs / 1e9), Metric("run_cpu_s", "s", cpuNs / 1e9),
            Metric("failed_share", "ratio", 0.0)), Map.empty)
    }
  }

  /** Clusters partition the 61 DAGs; every history run is labeled as
    * Algorithm 1 labels its deployment, and its backpressure flag is what
    * the simulator reports for it.
    */
  private def problems(pre: Pretrained): Seq[String] = {
    val members = pre.clusters.flatMap(_.memberDags)
    val names   = Workloads.all.map(_.dag.name)
    val partition =
      if (members.sorted == names.sorted) Nil
      else Seq("cluster members do not partition the 61 workload DAGs")
    val history = pre.clusters.flatMap(_.history)
    val count =
      if (history.size == Workloads.all.size * cfg.runsPer) Nil
      else Seq(s"expected ${Workloads.all.size * cfg.runsPer} history runs, found ${history.size}")
    val labels = history.filter { h =>
      val r = h.run
      Labeler.label(r) != h.labels ||
        repro.dataflow.Simulator.run(r.dag, r.sourceRates, r.parallelisms, mode).jobBackpressure != r.jobBackpressure
    }.take(3).map(h => s"history run of ${h.workloadKey} disagrees with Labeler/Simulator")
    partition ++ count ++ labels
  }

  /** Cluster structure plus the bits of every workload's embedding through
    * its cluster encoder and of the ZeroTune cost prediction.
    */
  private def fingerprint(pre: Pretrained, zt: GnnEncoder): String = {
    val fp = Fingerprint.addClusters(new Fingerprint, pre)
    Workloads.all.foreach { w =>
      val s = Pretrain.agnosticSample(w.dag, w.rates(5.0, mode))
      val c = pre.assign(w.dag)
      fp.add(w.key, c.id)
      c.encoder.embed(s).foreach(row => fp.add(row))
      fp.add(zt.predictJobCost(s))
    }
    fp.hex
  }

  override def pooled(samples: Seq[Map[String, Seq[Double]]]): Seq[Metric] = Nil

  override def layers(): Seq[Metric] = {
    val deployments = last.clusters.flatMap(c => c.history.map(h => Layers.Deployment(h.run, c.encoder)))
    Layers.calls(deployments, mode) ++ Layers.pretraining(cfg, mode)
  }
}
