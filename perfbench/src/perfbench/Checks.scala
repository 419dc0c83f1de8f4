package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import java.security.MessageDigest
import repro.core.{ClusterModel, Pretrained, TuningSession}
import repro.dataflow.{Dag, OpType, SimMode, Simulator}
import repro.harness.WorkloadStats
import repro.workloads.Workload
import scala.jdk.CollectionConverters._

/** The ground-truth optimum the `regret` metric divides by, computed from
  * the simulator's public model rather than from any tuner.
  */
object Optimum {

  /** Minimum parallelism per operator at `rates`: required rates pushed
    * through the true selectivities in topological order, each operator
    * sized by `Simulator.optimalParallelism`.
    */
  def config(dag: Dag, rates: Map[String, Double], mode: SimMode): Map[String, Int] = {
    val pMax = TuningSession.maxParallelism(mode)
    val out  = scala.collection.mutable.Map.empty[String, Double]
    dag.topoOrder.map { id =>
      val op = dag.byId(id)
      val in =
        if (dag.upstream(id).isEmpty) rates(id)
        else dag.upstream(id).map(out).sum
      out(id) = in * op.selectivity
      id -> Simulator.optimalParallelism(op, in, mode, pMax)
    }.toMap
  }

  /** Problems with `opt` as the optimum: it must run without backpressure,
    * and lowering any non-source operator above p = 1 must bring
    * backpressure back.
    */
  def selfCheck(dag: Dag, rates: Map[String, Double], mode: SimMode,
      opt: Map[String, Int]): Seq[String] = {
    val atOpt =
      if (Simulator.run(dag, rates, opt, mode).jobBackpressure)
        Seq(s"${dag.name}: optimum $opt is backpressured")
      else Nil
    val notMinimal = dag.ops.filter(op => op.opType != OpType.Source && opt(op.id) > 1).flatMap { op =>
      val lower = opt.updated(op.id, opt(op.id) - 1)
      if (Simulator.run(dag, rates, lower, mode).jobBackpressure) None
      else Some(s"${dag.name}: ${op.id} at ${opt(op.id) - 1} is still backpressure-free")
    }
    atOpt ++ notMinimal
  }
}

/** Per-process invariants every tuning method must satisfy. */
object Invariants {
  def violations(r: ProcessRecord, mode: SimMode): Seq[String] = {
    val dag  = r.workload.dag
    val res  = r.result
    val pMax = TuningSession.maxParallelism(mode)
    val where = s"${r.method}/${r.workload.key}#${r.index}"
    val keys =
      if (res.parallelisms.keySet == dag.ops.map(_.id).toSet) Nil
      else Seq(s"$where: configuration does not cover exactly the job's operators")
    val ranges = dag.ops.flatMap { op =>
      res.parallelisms.get(op.id).toSeq.flatMap { p =>
        if (op.opType == OpType.Source && p != 1) Seq(s"$where: source ${op.id} at p=$p")
        else if (p < 1 || p > pMax) Seq(s"$where: ${op.id} at p=$p outside [1, $pMax]")
        else Nil
      }
    }
    val bp =
      if (keys.nonEmpty || ranges.nonEmpty) Nil
      else {
        val truth = Simulator.run(dag, r.workload.rates(r.multiplier, mode), res.parallelisms, mode)
        if ((if (truth.jobBackpressure) 1 else 0) == res.backpressureAtEnd) Nil
        else Seq(s"$where: backpressureAtEnd=${res.backpressureAtEnd} but the simulator says ${truth.jobBackpressure}")
      }
    keys ++ ranges ++ bp
  }
}

/** Exact fingerprints of tuning and pre-training outcomes. Doubles enter
  * by their bits, so any change in an outcome changes the hash.
  */
final class Fingerprint {
  private val md = MessageDigest.getInstance("SHA-256")

  def add(parts: Any*): this.type = {
    parts.foreach {
      case d: Double => md.update(java.lang.Long.toHexString(java.lang.Double.doubleToLongBits(d)).getBytes(StandardCharsets.UTF_8))
      case a: Array[Double] => a.foreach(d => add(d))
      case x => md.update(String.valueOf(x).getBytes(StandardCharsets.UTF_8))
    }
    md.update(0.toByte)
    this
  }

  def hex: String = md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString
}

object Fingerprint {

  /** Cluster structure of a pre-trained artifact: members, similarity
    * center and history size of every cluster.
    */
  def addClusters(fp: Fingerprint, pre: Pretrained): Fingerprint = {
    pre.clusters.foreach { c: ClusterModel =>
      fp.add("cluster", c.id, c.memberDags.toSeq.sorted.mkString(","),
        c.centerGraph.labels.mkString(","), c.centerGraph.edges.mkString(","), c.history.size)
    }
    fp
  }

  /** Every per-(method, job) `WorkloadStats`, plus the cluster each job is
    * assigned to.
    */
  def online(stats: Seq[WorkloadStats], pre: Pretrained, jobs: Seq[Workload]): String = {
    val fp = addClusters(new Fingerprint, pre)
    jobs.foreach(w => fp.add("assign", w.key, pre.assign(w.dag).id))
    stats.sortBy(s => (s.method, s.workloadKey)).foreach { s =>
      fp.add(s.method, s.workloadKey, s.group, s.mode, s.processes, s.totalReconfigurations,
        s.avgReconfigurations, s.backpressureOccurrences, s.parallelismAt10Wu,
        s.latencyP50At10Wu, s.latencyP95At10Wu, s.latencyP99At10Wu)
    }
    fp.hex
  }
}

/** The committed expected fingerprints: one `workload<TAB>seed<TAB>hex`
  * line per recorded (workload, seed).
  */
object Expected {
  sealed trait Verdict { def ok: Boolean; def describe: String }
  case object Match extends Verdict { val ok = true; val describe = "matches the expected file" }
  case object NotRecorded extends Verdict { val ok = true; val describe = "no expected entry for this seed" }
  final case class Mismatch(expected: String) extends Verdict {
    val ok = false
    def describe = s"MISMATCH: expected $expected"
  }

  def load(path: Path): Map[(String, Long), String] =
    if (!Files.exists(path)) Map.empty
    else
      Files.readAllLines(path).asScala.map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
        l.split("\t") match {
          case Array(w, s, h) => (w, s.toLong) -> h
          case _ => throw new IllegalArgumentException(s"$path: malformed line: $l")
        }
      }.toMap

  def verdict(table: Map[(String, Long), String], workload: String, seed: Long, actual: String): Verdict =
    table.get((workload, seed)) match {
      case None                  => NotRecorded
      case Some(h) if h == actual => Match
      case Some(h)               => Mismatch(h)
    }

  /** Record `actual` for (workload, seed), replacing any earlier entry. */
  def update(path: Path, workload: String, seed: Long, actual: String): Unit = {
    val table = load(path).updated((workload, seed), actual)
    val lines = "# workload\tseed\tfingerprint (regenerate with run.py --update-expected)" +:
      table.toSeq.sortBy(_._1).map { case ((w, s), h) => s"$w\t$s\t$h" }
    Files.write(path, lines.asJava)
  }
}
