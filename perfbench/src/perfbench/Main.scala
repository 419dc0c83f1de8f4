package perfbench

import java.nio.file.{Path, Paths}

/** One benchmark run:
  * `Main --workload W --seed N --seconds S --trace 0|1 [--expected FILE] [--update-expected]`.
  *
  * Set-up runs three times and `setup_s` adds the median to the time from
  * JVM start to `main`. Untraced passes then repeat the workload's fixed
  * unit of work until `--seconds` have passed (at least one pass); with
  * `--trace 1` as many traced passes follow, then the layer replays. Every
  * pass is checked. The one line printed, `record: {...}`, holds the checks'
  * verdict, the run record and every measured metric; `run.py` turns it
  * into the result object that `BENCHMARK.json` describes.
  */
object Main {

  final case class Opts(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      expected: Path,
      updateExpected: Boolean,
  )

  def parse(args: Array[String]): Opts = {
    def value(flag: String): Option[String] = {
      val i = args.indexOf(flag)
      if (i < 0) None
      else {
        require(i + 1 < args.length, s"$flag needs a value")
        Some(args(i + 1))
      }
    }
    val trace = value("--trace").getOrElse("0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = value("--seconds").getOrElse("10").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Opts(
      workload = value("--workload").getOrElse(throw new IllegalArgumentException("--workload is required")),
      seed = value("--seed").getOrElse("1").toLong,
      seconds = seconds,
      trace = trace == "1",
      expected = Paths.get(value("--expected").getOrElse("perfbench/expected.tsv")),
      updateExpected = args.contains("--update-expected"),
    )
  }

  private val setups = 3

  def main(args: Array[String]): Unit = {
    val toMain = Clock.sinceJvmStartS()
    val opts   = parse(args)
    val wl     = BenchWorkload(opts.workload, opts.seed)

    val setupS = (0 until setups).map(_ => Clock.timed(wl.setup())._2 / 1e9)
    val memoAtPass = GedMemo.size

    val untraced = repeat(wl, traced = false, seconds = opts.seconds, atLeast = 1)
    val heapMb   = Clock.retainedHeapMb()
    val traced   = if (opts.trace) repeat(wl, traced = true, seconds = 0, atLeast = untraced.size) else Vector.empty
    val layers   = if (opts.trace) wl.layers() else Nil

    val all          = untraced ++ traced
    val fingerprints = all.map(_.fingerprint).distinct
    val fingerprint  = fingerprints.head
    if (opts.updateExpected) Expected.update(opts.expected, wl.name, opts.seed, fingerprint)
    val verdict  = Expected.verdict(Expected.load(opts.expected), wl.name, opts.seed, fingerprint)
    val problems =
      wl.setupProblems ++ all.flatMap(_.problems).distinct ++
        (if (fingerprints.size > 1) Seq(s"passes disagree: fingerprints ${fingerprints.mkString(", ")}") else Nil) ++
        (if (verdict.ok) Nil else Seq(s"fingerprint $fingerprint ${verdict.describe}"))
    val attempted = all.map(_.attempted).sum
    val failed    = all.map(_.failed).sum

    def medians(passes: Seq[PassOutcome]): Map[String, Metric] =
      passes.flatMap(_.metrics).groupBy(_.name).map { case (n, ms) =>
        n -> Metric(n, ms.head.unit, Stats.median(ms.map(_.value)))
      }
    val untracedWall = Stats.median(untraced.map(_.wallNs / 1e9))
    val measured: Map[String, Metric] =
      medians(traced) ++ medians(untraced) ++
        (wl.pooled(untraced.map(_.samples)) ++ layers ++ Seq(
          Metric("setup_s", "s", toMain + Stats.median(setupS)),
          Metric("retained_heap_mb", "MB", heapMb),
        ) ++ (if (traced.isEmpty) Nil
              else Seq(Metric("trace.overhead_s", "s", Stats.median(traced.map(_.wallNs / 1e9)) - untracedWall))))
          .map(m => m.name -> m)

    val record = Json.obj(Seq(
      "correct" -> (problems.isEmpty && failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "workload" -> Json.str(wl.name),
      "seed" -> opts.seed.toString,
      "seconds" -> opts.seconds.toString,
      "trace" -> opts.trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "xmx_mb" -> Json.num(Runtime.getRuntime.maxMemory() / (1024.0 * 1024.0)),
      "jdk" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "evaluation_threads_default" -> math.max(2, Runtime.getRuntime.availableProcessors() - 2).toString,
      "pretrain_config" -> Json.obj(BenchWorkload.cfg.describe),
      "jobs" -> Json.arr(wl.jobsDescription.map(Json.str)),
      "pattern_seed" -> wl.patternSeed.map(_.toString).getOrElse("null"),
      "setups_s" -> Json.arr(setupS.map(Json.num)),
      "jvm_start_to_main_s" -> Json.num(toMain),
      "passes" -> Json.obj(Seq("untraced" -> untraced.size.toString, "traced" -> traced.size.toString)),
      "pass_wall_s" -> Json.arr(all.map(p => Json.num(p.wallNs / 1e9))),
      "samples" -> Json.obj(untraced.head.samples.toSeq.sortBy(_._1).map { case (k, v) =>
        k -> (v.size * untraced.size).toString
      } :+ ("operations_per_pass" -> untraced.head.attempted.toString)),
      "tail" -> Json.str(wl match {
        case o: Online =>
          val (q, n) = o.tail
          s"process_ms.tail is the ${(q * 100).round}th percentile of ${n * untraced.size} StreamTune processes"
        case _ => "no tuning processes"
      }),
      "fresh_state" -> Json.str(wl.freshStateNote),
      "ged_memo_entries_at_first_pass" -> memoAtPass.toString,
      "fingerprint" -> Json.str(fingerprint),
      "fingerprint_check" -> Json.str(verdict.describe),
      "problems" -> Json.arr(problems.take(20).map(Json.str)),
      "metrics" -> Json.metrics(measured.values.toSeq.sortBy(_.name)),
    ))
    println(s"record: $record")
  }

  private def repeat(wl: BenchWorkload, traced: Boolean, seconds: Int, atLeast: Int): Vector[PassOutcome] = {
    val t0  = System.nanoTime()
    val out = Vector.newBuilder[PassOutcome]
    var n   = 0
    while (n < atLeast || (System.nanoTime() - t0) / 1e9 < seconds) {
      out += wl.pass(traced)
      n += 1
    }
    out.result()
  }
}
