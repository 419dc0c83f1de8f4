package repro.baselines

import repro.core.{ProcessResult, TuningLoop, TuningSession}
import repro.dataflow._
import repro.workloads.Workload

/** What the rate-based tuners (DS2, ContTune) share: the announced source
  * rates pushed through the *measured* operator selectivities (the tuner
  * cannot observe true selectivities — measurement error compounds along
  * deep DAGs, which is why these methods degrade on structurally complex
  * queries, §V-D), and the step from a recommendation to a deployment.
  */
object RateEstimator {
  def requiredRates(dag: Dag, sourceRates: Map[String, Double], obs: RunResult): Map[String, Double] = {
    val req = scala.collection.mutable.Map.empty[String, Double]
    dag.topoOrder.foreach { id =>
      req(id) =
        if (dag.upstream(id).isEmpty) sourceRates(id)
        else dag.upstream(id).map(u => req(u) * obs.ops(u).measuredSelectivity).sum
    }
    req.toMap
  }

  /** The configuration to deploy after observing `obs` at `par`, or None
    * when `settled` without backpressure or when nothing would change.
    * Under backpressure the loop must make progress: a saturated
    * operator's observed throughput per instance is exact, so a detected
    * bottleneck is always scaled up, never sideways, whatever `rec` says.
    */
  def nextTarget(rec: Map[String, Int], par: Map[String, Int], obs: RunResult,
      settled: Boolean, pMax: Int): Option[Map[String, Int]] = {
    val target =
      if (!obs.jobBackpressure) rec
      else rec.map { case (id, p) =>
        val floor = if (obs.ops(id).overloaded) par(id) + 1 else 1
        id -> math.min(pMax, math.max(p, floor))
      }
    Option.unless((settled && !obs.jobBackpressure) || target == par)(target)
  }
}

/** DS2 (Kalavri et al., OSDI'18): assumes processing ability is linear in
  * parallelism; each step recommends p = ceil(required rate / measured
  * per-instance useful-time rate) for every operator, iterating until the
  * recommendation stabilizes. No use of history — every rate change starts
  * from fresh measurements (§VI).
  */
final class Ds2Session(
    workload: Workload,
    mode: SimMode,
    simSeed: Long = 7,
) extends TuningSession {
  override val methodName = "DS2"
  private val pMax = TuningSession.maxParallelism(mode)
  private val dag  = workload.dag
  private var measurementEpoch = 0L

  private def recommend(rates: Map[String, Double], obs: RunResult): Map[String, Int] = {
    val req = RateEstimator.requiredRates(dag, rates, obs)
    dag.ops.map { op =>
      val p =
        if (op.opType == OpType.Source) 1
        else {
          val perInstance = obs.ops(op.id).measuredPerInstanceRate
          math.min(pMax, math.max(1, math.ceil(req(op.id) / perInstance).toInt))
        }
      op.id -> p
    }.toMap
  }

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates = workload.rates(multiplier, mode)
    measurementEpoch += 1
    def deploy(par: Map[String, Int]) = Simulator.run(dag, rates, par, mode, simSeed, measurementEpoch)
    TuningLoop.run(current, deploy(current), (_, obs, par) => {
      val rec = recommend(rates, obs)
      // Asymmetric fixed-point test: a recommendation *above* the running
      // configuration signals missing capacity and always triggers a
      // redeploy (so measurement jitter keeps DS2 reconfiguring — §V-D);
      // a slightly lower one is within noise and is not acted on (scaling
      // down on jitter would immediately bottleneck).
      val settled = rec.forall { case (id, p) =>
        p <= par(id) && par(id) - p <= math.max(1, math.ceil(0.02 * par(id)).toInt)
      }
      RateEstimator.nextTarget(rec, par, obs, settled, pMax)
    }, deploy)
  }
}
