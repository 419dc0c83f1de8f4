package perfbench

import java.lang.management.ManagementFactory

/** A named measurement with its unit. */
final case class Metric(name: String, unit: String, value: Double)

/** Order statistics used for every reported distribution. */
object Stats {

  /** Linear-interpolated quantile, `q` in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.size - 1)
    val lo  = pos.floor.toInt
    val hi  = pos.ceil.toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Median, or 0 for a layer the workload never exercised. */
  def medianOr0(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else median(xs)
}

/** Wall and CPU clocks of this process. */
object Clock {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  def cpuNanos(): Long = os.getProcessCpuTime

  /** Seconds from JVM start to now: the part of set-up a single run sees once. */
  def sinceJvmStartS(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r  = f
    (r, System.nanoTime() - t0)
  }

  /** Heap still in use after forced full collections, in MB. */
  def retainedHeapMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(50) }
    mem.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Minimal JSON rendering; the benchmark has no JSON dependency. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'           => b ++= "\\\""
      case '\\'          => b ++= "\\\\"
      case '\n'          => b ++= "\\n"
      case c if c < ' '  => b ++= f"\\u${c.toInt}%04x"
      case c             => b += c
    }
    (b += '"').result()
  }

  /** A number with all its digits; non-finite values have no JSON form. */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else java.lang.Double.toString(x)
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def arr(items: Seq[String]): String = items.mkString("[", ", ", "]")

  def metrics(ms: Seq[Metric]): String =
    obj(ms.map(m => m.name -> obj(Seq("value" -> num(m.value), "unit" -> str(m.unit)))))
}

/** The process-global GED distance memo (`Ged.distanceMemo`). It is private
  * and never cleared by the program, so a repeat in one process would read
  * distances a user's fresh process has to compute. The benchmark snapshots
  * it right after set-up and restores that state before every timed pass;
  * the pre-training workload empties it instead, as a fresh process has it.
  * If a later version of the program drops or scopes the memo, the field is
  * absent and there is nothing to reset.
  */
object GedMemo {
  private val memo: Option[java.util.Map[AnyRef, AnyRef]] =
    try {
      val f = repro.core.Ged.getClass.getDeclaredField("distanceMemo")
      f.setAccessible(true)
      Some(f.get(repro.core.Ged).asInstanceOf[java.util.Map[AnyRef, AnyRef]])
    } catch { case _: NoSuchFieldException => None }

  def present: Boolean = memo.isDefined

  def size: Int = memo.map(_.size).getOrElse(0)

  def snapshot(): java.util.Map[AnyRef, AnyRef] =
    memo.map(m => new java.util.HashMap[AnyRef, AnyRef](m): java.util.Map[AnyRef, AnyRef])
      .getOrElse(java.util.Collections.emptyMap[AnyRef, AnyRef]())

  def restore(state: java.util.Map[AnyRef, AnyRef]): Unit = memo.foreach { m =>
    m.clear()
    m.putAll(state)
  }

  def clear(): Unit = memo.foreach(_.clear())
}
