package repro.core

import repro.dataflow._
import repro.workloads.Workload
import scala.collection.mutable.ArrayBuffer

/** Result of one tuning process (the reaction to one source-rate change):
  * the settled parallelism assignment, how many reconfigurations were
  * performed, and the settled deployment's metrics.
  *
  * `backpressureAtEnd` is 1 when the process *ended* in a backpressured
  * state — the sustained, Table-III-counted kind of occurrence (transient
  * intermediate states within the 10-minute stabilization window are one
  * episode, per §V-A's reconfiguration mechanism).
  */
final case class ProcessResult(
    parallelisms: Map[String, Int],
    reconfigurations: Int,
    backpressureAtEnd: Int,
    finalRun: RunResult,
)

/** A stateful per-job tuning session: invoked once per source-rate change,
  * carrying whatever the method accumulates across changes (GP history for
  * ContTune, the fine-tuning dataset T for StreamTune, nothing for DS2).
  */
trait TuningSession {
  def methodName: String
  def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult
}

object TuningSession {
  def maxParallelism(mode: SimMode): Int = mode match {
    case SimMode.Flink  => SimConstants.maxParallelismFlink
    case SimMode.Timely => SimConstants.maxParallelismTimely
  }

  /** All-ones starting configuration. */
  def initialConfig(w: Workload): Map[String, Int] = w.dag.ops.map(_.id -> 1).toMap

  /** Tuning-iteration budget per rate change: with the paper's 10-minute
    * stabilization wait between reconfigurations, only a handful of
    * adjustments fit before the workload moves on.
    */
  val maxIter = 4
}

/** The deploy–observe loop of Algorithm 2 (lines 6-12), shared by every
  * method. Each iteration, up to [[TuningSession.maxIter]], the method's
  * `next(iter, latest observation, running configuration)` returns the
  * configuration to deploy, or None once settled, and its `deploy` runs
  * the job and absorbs the feedback. `start` is the observation of
  * `current` the method starts from, or null if its `next` deploys before
  * observing. A deployment that changes the running configuration counts
  * as a reconfiguration.
  */
object TuningLoop {
  def run(
      current: Map[String, Int],
      start: RunResult,
      next: (Int, RunResult, Map[String, Int]) => Option[Map[String, Int]],
      deploy: Map[String, Int] => RunResult,
  ): ProcessResult = {
    var par = current
    var reconfigs = 0
    var last = start
    var iter = 0
    var settled = false
    while (!settled && iter < TuningSession.maxIter) {
      next(iter, last, par) match {
        case Some(target) =>
          if (target != par) { par = target; reconfigs += 1 }
          last = deploy(par)
        case None => settled = true
      }
      iter += 1
    }
    ProcessResult(par, reconfigs, if (last.jobBackpressure) 1 else 0, last)
  }
}

/** StreamTune's online fine-tuning phase (Algorithm 2).
  *
  * On construction: assign the job's DAG to its nearest cluster (line 1),
  * retrieve the frozen encoder (line 2) and construct the warm-up dataset T
  * (line 3). Each process: embed the DAG at the announced source rates
  * (parallelism-agnostic vectors, line 7), fit the monotonic model M_f to T
  * (line 5), recommend the minimum safe parallelism per operator in
  * topological order via binary search (line 8), redeploy and collect
  * Algorithm-1 labels as new training rows (lines 10-11), and iterate until
  * no backpressure and a recommendation fixed point (line 12).
  *
  * Efficiency note (documented in DESIGN.md): M_f is refit eagerly whenever
  * feedback contains a positive (bottleneck) label — the case where the
  * model was wrong — and on a light periodic cadence otherwise, rather than
  * unconditionally on every iteration; with exclusively-negative feedback a
  * refit is a no-op on the decision boundary but not on the CPU budget.
  */
final class StreamTuneSession(
    pretrained: Pretrained,
    workload: Workload,
    val model: FineTuneModel,
    refitEvery: Int = 10,
    fitCap: Int = 9000,
    simSeed: Long = 7,
) extends TuningSession {
  override val methodName = s"StreamTune(${model.name})"

  private val mode = pretrained.mode
  private val pMax = TuningSession.maxParallelism(mode)
  private val dag  = workload.dag
  val cluster: ClusterModel = pretrained.assign(dag)
  private val tData = ArrayBuffer[TrainRow]()
  tData ++= cluster.defaultWarmUpRows
  model.fit(fitRows)
  private var pendingPositives = false
  private var processes = 0

  /** Size of the fine-tuning dataset T: warm-up rows plus feedback rows. */
  def trainingRows: Int = tData.size

  // Feedback-derived bounds, valid only under the monotonic assumption an
  // operator observed overloaded at p is a bottleneck at every p' <= p, and
  // one that sustained its full offered rate at p is safe at every p' >= p.
  // Keyed by (operator, rate multiplier): the job's own tuning history,
  // exactly the information Algorithm 2 accumulates in T, applied as hard
  // constraints on the search. The non-monotonic NN ablation cannot license
  // these inferences and runs without them (which is the Fig. 11a contrast).
  private val floorMem = scala.collection.mutable.Map.empty[(String, Double), Int]
  private val safeMem  = scala.collection.mutable.Map.empty[(String, Double), Int]

  private def fitRows: IndexedSeq[TrainRow] =
    if (tData.size <= fitCap) tData.toIndexedSeq
    else {
      val recent = tData.takeRight(fitCap * 3 / 4)
      val earlierPos = tData.dropRight(fitCap * 3 / 4).filter(_.label == 1).takeRight(fitCap / 4)
      (earlierPos ++ recent).toIndexedSeq
    }

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates = workload.rates(multiplier, mode)
    val emb   = cluster.encoder.embed(Pretrain.agnosticSample(dag, rates))
    val embOf = dag.ops.map(_.id).zipWithIndex.map { case (id, i) => id -> emb(i) }.toMap

    processes += 1
    if (pendingPositives || processes % refitEvery == 0) {
      model.fit(fitRows)
      pendingPositives = false
    }

    val res = TuningLoop.run(current, null, (_, last, par) => {
      // Line 6-8: recommend minimum safe parallelism per operator in the
      // DAG's topological order. The model's binary-search answer is
      // reconciled with the feedback bracket [floor, safe]: inside the
      // bracket the model is trusted; outside it the search bisects the
      // bracket (sound under monotonicity — the paper's own observation
      // that the minimum-parallelism search is a binary search). A
      // first-contact recommendation (no bracket yet) carries a small
      // deployment headroom, the usual SLO buffer for an unverified
      // prediction.
      val rec = dag.topoOrder.map { id =>
        val op = dag.byId(id)
        val p =
          if (op.opType == OpType.Source) 1
          else {
            val base = FineTuneModel.minSafeParallelism(model, embOf(id), pMax)
            if (!model.monotonic) base
            else {
              val key      = (id, multiplier)
              val safeOpt  = safeMem.get(key)
              val floorOpt = floorMem.get(key)
              val safe     = safeOpt.getOrElse(pMax)
              val floor    = math.min(safe, floorOpt.getOrElse(1))
              if (safeOpt.isEmpty && floorOpt.isEmpty)
                math.min(pMax, base + math.max(1, math.ceil(0.08 * base).toInt))
              else if (base > safe) safe
              else if (base >= floor) base
              else math.max(floor, (floor + safe) / 2)
            }
          }
        id -> p
      }.toMap
      // Line 12: settled at a fixed point without backpressure. Otherwise
      // redeploy, even an unchanged configuration, so that T keeps growing.
      if (last != null && rec == par && !last.jobBackpressure) None else Some(rec)
    }, par => {
      val run = Simulator.run(dag, rates, par, mode, simSeed)
      // Lines 10-11: collect feedback labels into T, and fold the same
      // feedback into the monotonicity bounds.
      val labels = Labeler.label(run)
      dag.ops.foreach { op =>
        val l = labels(op.id)
        if (l >= 0) {
          tData += TrainRow(embOf(op.id), par(op.id), l)
          if (l == 1) pendingPositives = true
        }
        if (run.ops(op.id).overloaded) {
          val key = (op.id, multiplier)
          floorMem(key) = math.max(floorMem.getOrElse(key, 1), math.min(pMax, par(op.id) + 1))
        }
      }
      markSafe(run, multiplier)
      if (pendingPositives) { model.fit(fitRows); pendingPositives = false }
      run
    })

    // Rescue deployment: if the iteration budget ran out mid-recovery (deep
    // DAGs reveal bottlenecks one frontier at a time), fall back to the
    // composition of known-safe parallelisms — sound under monotonicity
    // (each was observed sustaining its full offered rate at this rate
    // level), hence gated on a monotonic model like the other bounds.
    if (!model.monotonic || !res.finalRun.jobBackpressure) res
    else {
      val rescue = dag.ops.map { op =>
        op.id -> (
          if (op.opType == OpType.Source) 1
          else safeMem.getOrElse((op.id, multiplier), pMax))
      }.toMap
      val run = Simulator.run(dag, rates, rescue, mode, simSeed)
      markSafe(run, multiplier)
      val reconfigs = res.reconfigurations + (if (rescue != res.parallelisms) 1 else 0)
      ProcessResult(rescue, reconfigs, if (run.jobBackpressure) 1 else 0, run)
    }
  }

  /** A backpressure-free run proves every operator safe at its parallelism. */
  private def markSafe(run: RunResult, multiplier: Double): Unit =
    if (!run.jobBackpressure) dag.ops.foreach { op =>
      val key = (op.id, multiplier)
      safeMem(key) = math.min(safeMem.getOrElse(key, pMax), run.parallelisms(op.id))
    }
}
