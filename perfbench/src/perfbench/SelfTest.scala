package perfbench

import java.nio.file.Files
import repro.baselines.Ds2Session
import repro.core.{Pretrain, ProcessResult, TuningSession}
import repro.dataflow.{OpType, SimMode}
import repro.harness.Evaluation
import repro.workloads.{Nexmark, Pqp, Workload, Workloads}

/** Checks of the benchmark's own machinery that need no timing: failure
  * accounting, the expected-fingerprint gate, the optimum behind `regret`
  * and the per-process invariants. Run by `selftest.py`.
  */
object SelfTest {
  private val mode = SimMode.Flink
  private val failures = scala.collection.mutable.ArrayBuffer.empty[String]

  private def expect(ok: Boolean, what: String): Unit =
    if (ok) println(s"ok: $what") else { println(s"FAILED: $what"); failures += what }

  def main(args: Array[String]): Unit = {
    val w = Pqp.linear(0)
    val throwAt = 5
    val thrower: Workload => TuningSession = wl => new TuningSession {
      private val inner = new Ds2Session(wl, mode)
      private var n = 0
      override def methodName = "Thrower"
      override def tuneProcess(m: Double, cur: Map[String, Int]): ProcessResult = {
        n += 1
        if (n > throwAt) throw new IllegalStateException("injected failure")
        inner.tuneProcess(m, cur)
      }
    }
    val unbuildable: Workload => TuningSession = _ => throw new IllegalStateException("injected failure")
    val rec = new Recorder(mode, traced = false)
    rec.evaluationStarts()
    val stats = Evaluation.evaluate(Seq(w), mode, Seq(
      "DS2" -> rec.session("DS2", Evaluation.ds2Factory(mode)),
      "Thrower" -> rec.session("Thrower", thrower),
      "Unbuildable" -> rec.session("Unbuildable", unbuildable)))
    val records = rec.processList
    val lost = records.count(_.result == null)
    val bp = records.count(r => r.result != null && r.result.backpressureAtEnd == 1)
    expect(lost == 2 * Processes.perJob - throwAt,
      "a session that throws loses its remaining processes; one that cannot be built loses all")
    expect(Tally.failedShare(records) == (bp + lost).toDouble / records.size && lost > 0,
      "lost processes are counted in failed_share")
    expect(rec.sessionList.count(_.error.isDefined) == 2, "both failing sessions are recorded with their error")

    val pre  = Pretrain.pretrain(Pqp.linears, mode, runsPer = 5, k = 1, epochs = 1)
    val ds2  = stats.filter(_.method == "DS2")
    val fp   = Fingerprint.online(ds2, pre, Seq(w))
    expect(Fingerprint.online(ds2.map(s => s.copy(totalReconfigurations = s.totalReconfigurations + 1)), pre, Seq(w)) != fp,
      "a changed WorkloadStats field changes the fingerprint")
    val file = Files.createTempFile("expected", ".tsv")
    Expected.update(file, "online-svm", 1, fp)
    expect(Expected.verdict(Expected.load(file), "online-svm", 1, fp) == Expected.Match, "the recorded fingerprint matches")
    Expected.update(file, "online-svm", 1, fp.init + (if (fp.last == '0') '1' else '0'))
    expect(!Expected.verdict(Expected.load(file), "online-svm", 1, fp).ok, "a tampered expected fingerprint is rejected")
    expect(Expected.verdict(Expected.load(file), "online-svm", 2, fp) == Expected.NotRecorded,
      "a seed without an entry is reported as not recorded")
    Files.delete(file)

    val optimumProblems = for {
      wl <- Workloads.all
      m  <- 1 to 10
      rates = wl.rates(m.toDouble, mode)
      p <- Optimum.selfCheck(wl.dag, rates, mode, Optimum.config(wl.dag, rates, mode))
    } yield p
    optimumProblems.take(5).foreach(println)
    expect(optimumProblems.isEmpty, "the optimum is backpressure-free and minimal on all 61 workloads x 10 rates")
    val q5 = Nexmark.q5.rates(10.0, mode)
    val opt = Optimum.config(Nexmark.q5.dag, q5, mode)
    val op = Nexmark.q5.dag.ops.find(o => o.opType != OpType.Source && opt(o.id) > 1).get
    expect(Optimum.selfCheck(Nexmark.q5.dag, q5, mode, opt.updated(op.id, opt(op.id) - 1)).nonEmpty,
      "an optimum lowered by one is caught")
    expect(Optimum.selfCheck(Nexmark.q5.dag, q5, mode, opt.updated(op.id, opt(op.id) + 1)).nonEmpty,
      "an optimum raised by one is caught")

    val good = records.find(r => r.method == "DS2").get
    expect(Invariants.violations(good, mode).isEmpty, "a DS2 process satisfies the invariants")
    val src = w.dag.sources.head.id
    val sink = w.dag.sinks.head.id
    def bad(f: ProcessResult => ProcessResult) = Invariants.violations(good.copy(result = f(good.result)), mode).nonEmpty
    expect(bad(r => r.copy(backpressureAtEnd = 1 - r.backpressureAtEnd)), "a wrong backpressureAtEnd is caught")
    expect(bad(r => r.copy(parallelisms = r.parallelisms.updated(src, 2))), "a source above p = 1 is caught")
    expect(bad(r => r.copy(parallelisms = r.parallelisms.updated(sink, TuningSession.maxParallelism(mode) + 1))),
      "a parallelism above pMax is caught")
    expect(bad(r => r.copy(parallelisms = r.parallelisms.updated(sink, 0))), "a parallelism below 1 is caught")

    if (failures.nonEmpty) { println(s"selftest: ${failures.size} failed"); sys.exit(1) }
    println("selftest: all checks passed")
  }
}
