package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import repro.core._
import repro.dataflow.{SimMode, Simulator}
import repro.workloads.Workload
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One tuning process as the client saw it. `result` is null when the
  * session threw; `modelNs` is the fine-tuned model's share of `nanos`
  * (traced passes only).
  */
final case class ProcessRecord(
    method: String,
    workload: Workload,
    index: Int,
    multiplier: Double,
    current: Map[String, Int],
    result: ProcessResult,
    nanos: Long,
    modelNs: Long,
)

/** One (method, job) task of `Evaluation.evaluate`. `waitNs` is the time
  * from the `evaluate` call until the pool started the task; `startNs` is
  * session construction (Algorithm 2 lines 1-3 for StreamTune); `wallNs`
  * runs from task start to the end of its last process.
  */
final case class SessionRecord(
    method: String,
    workloadKey: String,
    thread: String,
    waitNs: Long,
    startNs: Long,
    wallNs: Long,
    error: Option[Throwable],
)

/** Timing and call counts of one fine-tuned model instance. The set of
  * embedding arrays seen since the last fit mirrors `MonotonicSvm`'s
  * identity-keyed threshold cache, so `misses` counts threshold computes.
  */
final class TracedModel(inner: FineTuneModel) extends FineTuneModel {
  override def name: String       = inner.name
  override def monotonic: Boolean = inner.monotonic

  var fitRows   = 0L
  val fitTimes  = scala.collection.mutable.ArrayBuffer.empty[Long]
  var probNs    = 0L
  var probCalls = 0L
  var misses    = 0L
  private val seen = new java.util.IdentityHashMap[Array[Double], java.lang.Boolean]()

  def fitNs: Long   = fitTimes.sum
  def modelNs: Long = fitNs + probNs

  override def fit(rows: IndexedSeq[TrainRow]): Unit = {
    fitTimes += Clock.timed(inner.fit(rows))._2
    fitRows += rows.size
    seen.clear()
  }

  override def bottleneckProb(h: Array[Double], p: Int): Double = {
    if (seen.put(h, java.lang.Boolean.TRUE) == null) misses += 1
    val (prob, ns) = Clock.timed(inner.bottleneckProb(h, p))
    probNs += ns
    probCalls += 1
    prob
  }
}

/** Records every session and tuning process of one timed pass. Sessions run
  * on `Evaluation`'s pool threads, so everything goes into concurrent
  * queues; the benchmark reads them only after `evaluate` returns.
  */
final class Recorder(mode: SimMode, val traced: Boolean) {
  val processes = new ConcurrentLinkedQueue[ProcessRecord]()
  val sessions  = new ConcurrentLinkedQueue[SessionRecord]()
  val models    = new ConcurrentLinkedQueue[TracedModel]()
  @volatile private var evalStart = 0L

  // The model factory runs inside session construction on the same thread,
  // which is how a session learns which traced model it owns.
  private val lastModel = new ThreadLocal[TracedModel]

  /** Call right before `Evaluation.evaluate`. */
  def evaluationStarts(): Unit = evalStart = System.nanoTime()

  def model(mk: Int => FineTuneModel): Int => FineTuneModel =
    if (!traced) mk
    else { dim =>
      val m = new TracedModel(mk(dim))
      models.add(m)
      lastModel.set(m)
      m
    }

  def session(method: String, mk: Workload => TuningSession): Workload => TuningSession = { w =>
    val taskStart = System.nanoTime()
    lastModel.remove()
    val built = try Right(mk(w)) catch { case NonFatal(e) => Left(e) }
    new RecordedSession(method, w, built, lastModel.get(), taskStart)
  }

  def processList: Vector[ProcessRecord] = processes.asScala.toVector
  def sessionList: Vector[SessionRecord] = sessions.asScala.toVector
  def modelList: Vector[TracedModel]     = models.asScala.toVector

  /** Wraps one session: times each `tuneProcess`, keeps its result for the
    * checks, and turns a throw into failed processes instead of aborting
    * the whole evaluation: the throwing process and every later one count
    * as failed, and the session answers with the unchanged configuration.
    */
  private final class RecordedSession(
      method: String,
      w: Workload,
      built: Either[Throwable, TuningSession],
      model: TracedModel,
      taskStart: Long,
  ) extends TuningSession {
    override def methodName: String = method
    private val startNs = System.nanoTime() - taskStart
    private var error: Option[Throwable] = built.left.toOption
    private var index = 0

    private def fallback(m: Double, current: Map[String, Int]): ProcessResult = {
      val run = Simulator.run(w.dag, w.rates(m, mode), current, mode)
      ProcessResult(current, 0, if (run.jobBackpressure) 1 else 0, run)
    }

    override def tuneProcess(m: Double, current: Map[String, Int]): ProcessResult = {
      val i = index
      index += 1
      val res = if (error.isDefined) null else timedProcess(i, m, current)
      val out =
        if (res != null) res
        else {
          processes.add(ProcessRecord(method, w, i, m, current, null, 0L, 0L))
          fallback(m, current)
        }
      if (index == Processes.perJob)
        sessions.add(SessionRecord(method, w.key, Thread.currentThread().getName,
          taskStart - evalStart, startNs, System.nanoTime() - taskStart, error))
      out
    }

    private def timedProcess(i: Int, m: Double, current: Map[String, Int]): ProcessResult = {
      val m0 = if (model == null) 0L else model.modelNs
      val t0 = System.nanoTime()
      try {
        val r  = built.toOption.get.tuneProcess(m, current)
        val ns = System.nanoTime() - t0
        processes.add(ProcessRecord(method, w, i, m, current, r, ns,
          if (model == null) 0L else model.modelNs - m0))
        r
      } catch { case NonFatal(e) => error = Some(e); null }
    }
  }
}

object Tally {
  /** Processes that ended backpressured or were lost to a throwing session,
    * over the processes attempted.
    */
  def failedShare(records: Seq[ProcessRecord]): Double =
    records.count(r => r.result == null || r.result.backpressureAtEnd == 1).toDouble / records.size
}

object Processes {
  /** Rate changes per job: the full periodic pattern of §V-A. */
  val perJob: Int = repro.workloads.SourceRates.pattern("any").size
}
