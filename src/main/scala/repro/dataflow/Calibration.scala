package repro.dataflow

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

/** Grounds the substrate's monotone processing-ability assumption (the
  * paper's Fig. 4) on *real* Spark execution: time a fixed shuffle+aggregate
  * workload at different `repartition(p)` parallelism degrees and report the
  * achieved records/second. Used by tests (lenient — wall-clock on a shared
  * box) and the Fig-4 analogue note in EXPERIMENTS.md.
  */
object Calibration {

  /** Records/second achieved aggregating `rows` keyed rows at parallelism p.
    *
    * The input is generated and cached before any timing, one untimed run
    * warms up this p, and the rate is the median of three timed runs, so
    * neither input generation nor a single slow run on a shared box
    * decides the result.
    */
  def measuredRate(spark: SparkSession, rows: Long, parallelism: Int, seed: Long = 7): Double = {
    val input = repro.SynthData.uniformKeys(spark, rows, 10_000, seed).cache()
    try {
      input.count()
      val df = input
        .repartition(parallelism)
        .groupBy("k")
        .agg(sum("v") as "s", count(lit(1)) as "c")
      def timedSecs(): Double = {
        val t0 = System.nanoTime()
        df.write.format("noop").mode("overwrite").save()
        (System.nanoTime() - t0) / 1e9
      }
      timedSecs()
      val secs = Array.fill(3)(timedSecs()).sorted
      rows / math.max(1e-9, secs(1))
    } finally input.unpersist()
  }

  /** (parallelism, records/sec) series across a parallelism sweep; every
    * point is warmed up and repeated by [[measuredRate]].
    */
  def sweep(spark: SparkSession, rows: Long, ps: Seq[Int]): Seq[(Int, Double)] =
    ps.map(p => p -> measuredRate(spark, rows, p))
}
