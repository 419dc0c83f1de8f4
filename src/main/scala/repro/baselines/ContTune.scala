package repro.baselines

import repro.core.{ProcessResult, TuningLoop, TuningSession}
import repro.dataflow._
import repro.workloads.Workload
import scala.util.chaining._

/** Exact Gaussian-process regression in one dimension (parallelism ->
  * processing ability), RBF kernel, zero prior mean. Small-n (<= ~30
  * observations) direct Cholesky solve.
  */
final class Gp(noiseSd: Double = 0.05) {
  private val lengthScale: Double = 0.15
  private var xs: Array[Double] = Array.empty
  private var ys: Array[Double] = Array.empty
  private var chol: Array[Array[Double]] = _
  private var alpha: Array[Double] = _

  private def k(a: Double, b: Double): Double =
    math.exp(-(a - b) * (a - b) / (2 * lengthScale * lengthScale))

  def fit(points: Seq[(Double, Double)]): Unit = {
    xs = points.map(_._1).toArray
    ys = points.map(_._2).toArray
    val n = xs.length
    if (n == 0) { chol = null; alpha = null; return }
    val m = Array.tabulate(n, n) { (i, j) =>
      k(xs(i), xs(j)) + (if (i == j) noiseSd * noiseSd else 0.0)
    }
    chol = cholesky(m)
    alpha = solveCholesky(chol, ys)
  }

  /** Posterior (mean, sd) at x. With no data: (0, 1) — maximal pessimism
    * for a lower-confidence-bound user.
    */
  def posterior(x: Double): (Double, Double) = {
    if (alpha == null) return (0.0, 1.0)
    val kx = xs.map(xi => k(x, xi))
    val mean = kx.zip(alpha).map { case (a, b) => a * b }.sum
    val v = solveLower(chol, kx)
    val varPost = math.max(1e-12, 1.0 - v.map(t => t * t).sum)
    (mean, math.sqrt(varPost))
  }

  private def cholesky(a: Array[Array[Double]]): Array[Array[Double]] = {
    val n = a.length
    val l = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- 0 to i) {
      var s = a(i)(j)
      for (t <- 0 until j) s -= l(i)(t) * l(j)(t)
      if (i == j) l(i)(i) = math.sqrt(math.max(1e-12, s))
      else l(i)(j) = s / l(j)(j)
    }
    l
  }

  private def solveLower(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val y = new Array[Double](n)
    for (i <- 0 until n) {
      var s = b(i)
      for (t <- 0 until i) s -= l(i)(t) * y(t)
      y(i) = s / l(i)(i)
    }
    y
  }

  private def solveCholesky(l: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    val y = solveLower(l, b)
    val x = new Array[Double](n)
    for (i <- (n - 1) to 0 by -1) {
      var s = y(i)
      for (t <- i + 1 until n) s -= l(t)(i) * x(t)
      x(i) = s / l(i)(i)
    }
    x
  }
}

/** ContTune (Lian et al., VLDB'23): conservative Bayesian optimization over
  * the job's *own* tuning history, one surrogate per operator, with the
  * big-small exploration scheme — jump to a safely large parallelism when
  * the surrogate has no safe candidate, then probe downward where the upper
  * confidence bound says a smaller parallelism might suffice.
  *
  * Observations (p, p * measured per-instance rate) persist across rate
  * changes: the job's local history. Recommendation per operator: the
  * smallest p whose lower confidence bound on processing ability covers the
  * (measured-selectivity-propagated) required rate.
  */
final class ContTuneSession(workload: Workload, mode: SimMode) extends TuningSession {
  override val methodName = "ContTune"
  private val beta: Double = 1.0
  private val pMax = TuningSession.maxParallelism(mode)
  private val dag  = workload.dag

  // Per-operator local history: parallelism -> latest measured per-instance
  // processing rate. ContTune's surrogate is over processing ability *per
  // unit of parallelism* — an O(1)-scale, slowly-varying function the RBF
  // GP interpolates well (modeling absolute capacity would span two orders
  // of magnitude and collapse to the prior between observations).
  private val history =
    scala.collection.mutable.Map(dag.ops.map(_.id -> scala.collection.mutable.Map.empty[Int, Double]): _*)
  private val maxObsPerOp = 30

  private def record(obs: RunResult): Unit =
    dag.ops.foreach { op =>
      if (op.opType != OpType.Source) {
        val m = obs.ops(op.id)
        val h = history(op.id)
        h(m.parallelism) = m.measuredPerInstanceRate
        if (h.size > maxObsPerOp) h.remove(h.keys.maxBy(p => math.abs(p - m.parallelism)))
      }
    }

  private def recommendOp(opId: String, req: Double, currentP: Int,
      perInstance: Double, allowProbe: Boolean): Int = {
    val h = history(opId)
    val yScale = math.max(1.0, if (h.isEmpty) perInstance else h.values.sum / h.size)
    val gp = new Gp()
    gp.fit(h.toSeq.map { case (p, y) => (p.toDouble / pMax, y / yScale) })
    def post(p: Int) = gp.posterior(p.toDouble / pMax)
    def lcbCapacity(p: Int): Double = {
      val (mu, sd) = post(p); p * (mu - beta * sd) * yScale
    }
    val safe = (1 to pMax).find(lcbCapacity(_) >= req)
    safe match {
      case None =>
        // Big step: conservatively above the naive rate-based estimate.
        val naive = math.ceil(1.4 * req / perInstance).toInt
        math.min(pMax, math.max(currentP + 1, math.max(1, naive)))
      case Some(ps) =>
        // Small step: probe below when the UCB is promising and the
        // surrogate is still uncertain there — only while enough of the
        // iteration budget remains to recover from a failed probe.
        val probe =
          if (!allowProbe) None
          else (1 until ps).find { p =>
            val (mu, sd) = post(p)
            p * (mu + beta * sd) * yScale >= req && sd > 0.12
          }
        probe.filter(_ < ps - 1).getOrElse(ps)
    }
  }

  private var measurementEpoch = 0L

  override def tuneProcess(multiplier: Double, current: Map[String, Int]): ProcessResult = {
    val rates = workload.rates(multiplier, mode)
    measurementEpoch += 1
    def deploy(par: Map[String, Int]) =
      Simulator.run(dag, rates, par, mode, noiseEpoch = measurementEpoch).tap(record)
    TuningLoop.run(current, deploy(current), (iter, obs, par) => {
      val req = RateEstimator.requiredRates(dag, rates, obs)
      val allowProbe = iter < TuningSession.maxIter - 2 && !obs.jobBackpressure
      val rec = dag.ops.map { op =>
        val p =
          if (op.opType == OpType.Source) 1
          else recommendOp(op.id, req(op.id), par(op.id),
            obs.ops(op.id).measuredPerInstanceRate, allowProbe)
        op.id -> p
      }.toMap
      // Settles only on an exact fixed point (the big-small loop redeploys
      // whenever its recommendation changes), like Algorithm 2's test.
      RateEstimator.nextTarget(rec, par, obs, settled = rec == par, pMax)
    }, deploy)
  }
}
