package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.dataflow.{Dag, SimConstants}

/** One operator-run row of the execution-history store. Real DSPSs persist
  * exactly this shape (job metadata + per-operator runtime metrics); the
  * tuning pipeline "learns from the past" off this table.
  */
final case class OpRunRecord(
    jobName: String,
    runId: Long,
    opId: String,
    opType: String,
    parallelism: Int,
    sourceRate: Double,
    offeredRate: Double,
    processingAbility: Double,
    utilization: Double,
    overloaded: Boolean,
    backpressured: Boolean,
    jobBackpressure: Boolean,
    label: Int,
)

/** Spark-backed execution-history store: converts simulated histories to
  * DataFrames and re-implements Algorithm 1 as relational transformations,
  * cross-checked against the in-memory [[Labeler]] by the test suite.
  */
object History {

  def records(runs: Seq[HistoryRun]): Seq[OpRunRecord] =
    runs.zipWithIndex.flatMap { case (h, runId) =>
      h.run.dag.ops.map { op =>
        val m = h.run.ops(op.id)
        OpRunRecord(
          jobName = h.run.dag.name,
          runId = runId.toLong,
          opId = op.id,
          opType = op.opType.name,
          parallelism = m.parallelism,
          sourceRate = h.run.sourceRates.getOrElse(op.id, 0.0),
          offeredRate = m.offeredRate,
          processingAbility = m.processingAbility,
          utilization = m.utilization,
          overloaded = m.overloaded,
          backpressured = m.backpressured,
          jobBackpressure = h.run.jobBackpressure,
          label = h.labels(op.id),
        )
      }
    }

  def toDF(spark: SparkSession, runs: Seq[HistoryRun]): DataFrame = {
    import spark.implicits._
    records(runs).toDF()
  }

  /** Edge table (jobName, src, dst) for a set of DAGs. */
  def edgesDF(spark: SparkSession, dags: Seq[Dag]): DataFrame = {
    import spark.implicits._
    dags.flatMap(d => d.edges.map { case (a, b) => (d.name, a, b) })
      .toDF("jobName", "src", "dst")
  }

  /** Algorithm 1 as a Spark transformation over (metrics, edges): returns
    * the metrics rows with a `sqlLabel` column (-1 / 0 / 1).
    *
    * Frontier operators are backpressured operators none of whose direct
    * downstream operators are backpressured (lines 7); their downstream
    * operators are labeled by the CPU threshold (lines 8-16); runs without
    * job-level backpressure label every operator 0 (lines 2-6).
    */
  def labelWithSpark(metrics: DataFrame, edges: DataFrame): DataFrame = {
    val m = metrics.alias("m")
    val e = edges.alias("e")
    val down = metrics.select(
      col("jobName") as "d_job", col("runId") as "d_run",
      col("opId") as "d_op", col("backpressured") as "d_bp",
    ).alias("d")

    // Backpressured operators with at least one backpressured downstream.
    val hasBpDownstream = m
      .join(e, col("m.jobName") === col("e.jobName") && col("m.opId") === col("e.src"))
      .join(down,
        col("e.jobName") === col("d_job") && col("m.runId") === col("d_run") &&
          col("e.dst") === col("d_op"))
      .filter(col("d_bp"))
      .select(col("m.jobName") as "f_job", col("m.runId") as "f_run", col("m.opId") as "f_op")
      .distinct()

    val frontier = m
      .filter(col("m.backpressured"))
      .join(hasBpDownstream,
        col("m.jobName") === col("f_job") && col("m.runId") === col("f_run") &&
          col("m.opId") === col("f_op"),
        "left_anti")
      .select(col("m.jobName") as "fr_job", col("m.runId") as "fr_run", col("m.opId") as "fr_op")

    // Direct downstream operators of frontier operators.
    val examined = frontier
      .join(e, col("fr_job") === col("e.jobName") && col("fr_op") === col("e.src"))
      .select(col("fr_job") as "x_job", col("fr_run") as "x_run", col("e.dst") as "x_op")
      .distinct()

    metrics
      .join(examined,
        col("jobName") === col("x_job") && col("runId") === col("x_run") &&
          col("opId") === col("x_op"),
        "left_outer")
      .withColumn("sqlLabel",
        when(!col("jobBackpressure"), lit(0))
          .when(col("x_op").isNotNull && col("utilization") > SimConstants.cpuThreshold, lit(1))
          .when(col("x_op").isNotNull, lit(0))
          .otherwise(lit(-1)))
      .drop("x_job", "x_run", "x_op")
  }
}
