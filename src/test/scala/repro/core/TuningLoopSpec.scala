package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.dataflow._
import repro.harness.Evaluation
import repro.workloads.{Nexmark, Pqp, SourceRates, Workload}

/** Every tuner driven through the full 120-change pattern, reduced to one
  * pinnable string per (method, workload): summed parallelism, summed
  * reconfigurations and backpressure count over the 120 processes, plus a
  * digest of every `ProcessResult` (parallelisms, counters and every
  * metric of the final run, doubles by raw bits).
  */
object TunerPinFixtures {
  val pqp: Workload = Pqp.threeWayJoin(4)
  val flinkJobs: Seq[Workload]  = Seq(pqp, Nexmark.q8)
  val timelyJobs: Seq[Workload] = Seq(Nexmark.q8) // PQP has no Timely rates

  lazy val zeroTuneEncoder: GnnEncoder =
    Pretrain.pretrainZeroTune(Seq(pqp), SimMode.Flink, runsPer = 8, epochs = 3)

  def streamTune(model: Int => FineTuneModel): Workload => TuningSession =
    Evaluation.streamTuneFactory(TinyPretrain.pre, model)

  /** (case name, jobs it runs on, session factory). */
  def cases: Seq[(String, Seq[Workload], Workload => TuningSession)] = Seq(
    ("DS2 Flink", flinkJobs, Evaluation.ds2Factory(SimMode.Flink)),
    ("DS2 Timely", timelyJobs, Evaluation.ds2Factory(SimMode.Timely)),
    ("ContTune Flink", flinkJobs, Evaluation.contTuneFactory(SimMode.Flink)),
    ("ContTune Timely", timelyJobs, Evaluation.contTuneFactory(SimMode.Timely)),
    ("StreamTune(SVM)", flinkJobs, streamTune(Evaluation.svmModel)),
    ("StreamTune(XGBoost)", flinkJobs, streamTune(Evaluation.gbtModel)),
    ("StreamTune(NN)", flinkJobs, streamTune(Evaluation.nnModel)),
    ("ZeroTune", flinkJobs, Evaluation.zeroTuneFactory(zeroTuneEncoder, SimMode.Flink)),
  )

  /** One session through the paper's rate pattern, starting all-ones. */
  def drive(w: Workload, mk: Workload => TuningSession): Vector[ProcessResult] = {
    val session = mk(w)
    var par = TuningSession.initialConfig(w)
    SourceRates.pattern(w.key).map { m =>
      val r = session.tuneProcess(m.toDouble, par)
      par = r.parallelisms
      r
    }
  }

  def summary(w: Workload, results: Seq[ProcessResult]): String = {
    var h = 0xcbf29ce484222325L
    def add(x: Long): Unit = { h = (h ^ x) * 0x100000001b3L; h ^= h >>> 31 }
    def addD(d: Double): Unit = add(java.lang.Double.doubleToRawLongBits(d))
    def addB(b: Boolean): Unit = add(if (b) 1L else 0L)
    results.foreach { r =>
      w.dag.topoOrder.foreach(id => add(r.parallelisms(id)))
      add(r.reconfigurations)
      add(r.backpressureAtEnd)
      addB(r.finalRun.jobBackpressure)
      r.finalRun.metricsInTopoOrder.foreach { m =>
        add(m.parallelism); addD(m.offeredRate); addD(m.processingAbility)
        addD(m.utilization); addB(m.overloaded); addB(m.backpressured)
        addD(m.outputRate); addD(m.measuredPerInstanceRate); addD(m.measuredSelectivity)
      }
    }
    val sumPar = results.map(_.parallelisms.values.sum).sum
    f"$sumPar/${results.map(_.reconfigurations).sum}/${results.map(_.backpressureAtEnd).sum}/$h%016x"
  }
}

class TunerPinSpec extends AnyFunSuite {
  import TunerPinFixtures._

  // "summed parallelism / reconfigurations / backpressured processes /
  // digest" over the 120-change pattern, recorded from the per-method
  // loops before they were merged into `TuningLoop`.
  private val pinned: Map[(String, String), String] = Map(
    ("DS2 Flink", "3-way-join-4")             -> "2174/220/4/8f63272e432d8177",
    ("DS2 Flink", "Q8")                       -> "7579/280/2/b3e9d60c1e94c773",
    ("DS2 Timely", "Q8")                      -> "3424/371/0/3b41e34a9aea1a60",
    ("ContTune Flink", "3-way-join-4")        -> "2119/145/0/42ca74b9e58e77de",
    ("ContTune Flink", "Q8")                  -> "7751/163/0/b7a4391f19f72f87",
    ("ContTune Timely", "Q8")                 -> "3494/272/0/8ad09e77d9fcd798",
    // Processes ending in a changed rescue deployment (5 reconfigurations):
    // SVM 2 on 3-way-join-4 and 11 on Q8, XGBoost 0 and 3.
    ("StreamTune(SVM)", "3-way-join-4")       -> "2857/155/0/61b1c585576c7c3c",
    ("StreamTune(SVM)", "Q8")                 -> "10016/209/0/1be8b0b756282c0a",
    ("StreamTune(XGBoost)", "3-way-join-4")   -> "2596/126/0/ed598c84af50453a",
    ("StreamTune(XGBoost)", "Q8")             -> "9930/178/0/01ba8201380d0c18",
    // The unbracketed NN branch: no feedback bounds, no rescue.
    ("StreamTune(NN)", "3-way-join-4")        -> "28227/16/71/78a33f6970480bb0",
    ("StreamTune(NN)", "Q8")                  -> "32796/24/39/b6141260f32d3325",
    ("ZeroTune", "3-way-join-4")              -> "51796/120/0/3f4e9ba98cb88d62",
    ("ZeroTune", "Q8")                        -> "34063/120/2/c45ed95e81fc7f63",
  )

  cases.foreach { case (name, jobs, mk) =>
    test(s"$name is pinned bit for bit over the 120-change pattern") {
      val got = jobs.map(w => w.key -> summary(w, drive(w, mk)))
      assert(got == jobs.map(w => w.key -> pinned.getOrElse((name, w.key), "")))
    }
  }
}

/** ScalaCheck property over all four methods: for random sequences of rate
  * multipliers in [1, 10], every tuning process returns a deployable,
  * self-consistent result within the iteration budget.
  */
object TuningSessionProps extends Properties("TuningSessions") {
  import TunerPinFixtures._

  override def overrideParameters(p: Test.Parameters): Test.Parameters =
    p.withMinSuccessfulTests(25)

  private val nexmark = Seq(Nexmark.q3, Nexmark.q8)
  private val flink   = Seq(pqp, Pqp.linear(0), Pqp.twoWayJoin(2)) ++ nexmark

  /** (name, mode, jobs, factory, reconfigurations allowed per process). */
  private val methods: Seq[(String, SimMode, Seq[Workload], Workload => TuningSession, Int)] = Seq(
    ("DS2 Flink", SimMode.Flink, flink, Evaluation.ds2Factory(SimMode.Flink), TuningSession.maxIter),
    ("DS2 Timely", SimMode.Timely, nexmark, Evaluation.ds2Factory(SimMode.Timely), TuningSession.maxIter),
    ("ContTune Flink", SimMode.Flink, flink, Evaluation.contTuneFactory(SimMode.Flink), TuningSession.maxIter),
    ("ContTune Timely", SimMode.Timely, nexmark, Evaluation.contTuneFactory(SimMode.Timely), TuningSession.maxIter),
    // +1: the rescue deployment after the loop (monotonic models only).
    ("StreamTune(SVM)", SimMode.Flink, flink, streamTune(Evaluation.svmModel), TuningSession.maxIter + 1),
    ("StreamTune(NN)", SimMode.Flink, flink, streamTune(Evaluation.nnModel), TuningSession.maxIter),
    ("ZeroTune", SimMode.Flink, flink, Evaluation.zeroTuneFactory(zeroTuneEncoder, SimMode.Flink), 1),
  )

  private def violations(w: Workload, mode: SimMode, maxReconfigs: Int, r: ProcessResult): Seq[String] = {
    val pMax = TuningSession.maxParallelism(mode)
    w.dag.ops.flatMap { op =>
      val p = r.parallelisms(op.id)
      if (op.opType == OpType.Source && p != 1) Seq(s"source ${op.id} at p=$p")
      else if (p < 1 || p > pMax) Seq(s"${op.id} at p=$p outside [1, $pMax]")
      else Nil
    } ++
      Seq(
        Option.when(r.finalRun.parallelisms != r.parallelisms)("final run is not the returned configuration"),
        Option.when(r.backpressureAtEnd != (if (r.finalRun.jobBackpressure) 1 else 0))(
          s"backpressureAtEnd=${r.backpressureAtEnd} disagrees with the final run"),
        Option.when(r.reconfigurations < 0 || r.reconfigurations > maxReconfigs)(
          s"${r.reconfigurations} reconfigurations, allowed $maxReconfigs"),
      ).flatten
  }

  methods.foreach { case (name, mode, jobs, mk, maxReconfigs) =>
    val genCase = for {
      w  <- Gen.oneOf(jobs)
      n  <- Gen.choose(1, 8)
      ms <- Gen.listOfN(n, Gen.choose(1.0, 10.0))
    } yield (w, ms)
    property(s"$name: every process is valid and within budget") = Prop.forAllNoShrink(genCase) {
      case (w, ms) =>
        val session = mk(w)
        var par = TuningSession.initialConfig(w)
        val bad = ms.flatMap { m =>
          val r = session.tuneProcess(m, par)
          par = r.parallelisms
          violations(w, mode, maxReconfigs, r).map(v => s"${w.key} at $m: $v")
        }
        bad.isEmpty :| bad.mkString("; ")
    }
  }
}
