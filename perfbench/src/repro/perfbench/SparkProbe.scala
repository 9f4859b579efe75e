package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}

import scala.collection.mutable

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Sums what Spark reports about the jobs, stages and tasks of one embed
  * call. Listener events arrive asynchronously; [[flush]] runs a marker job
  * and waits for its end, which the listener bus delivers only after every
  * earlier event, and the marker's own stages and tasks are left out.
  */
final class SparkProbe extends SparkListener {
  private val Marker = "perfbench-flush"

  private val jobStart = mutable.Map.empty[Int, Long]
  private val jobEnd = mutable.Map.empty[Int, Long]
  private val markerStages = mutable.Set.empty[Int]
  private var markerJob = -1
  private val markerDone = new CountDownLatch(1)
  private val stageTaskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]

  var tasks = 0L
  var runMs = 0L
  var gcMs = 0L
  var serMs = 0L
  var shuffleWrite = 0L
  var shuffleRead = 0L
  var spill = 0L
  var result = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val desc = Option(e.properties).map(_.getProperty("spark.job.description")).orNull
    if (desc == Marker) { markerJob = e.jobId; markerStages ++= e.stageIds }
    else jobStart(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerDone.countDown()
    else jobEnd(e.jobId) = e.time

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (!markerStages.contains(e.stageId)) {
      tasks += 1
      stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
      val m = e.taskMetrics
      if (m != null) {
        runMs += m.executorRunTime
        gcMs += m.jvmGCTime
        serMs += m.executorDeserializeTime + m.resultSerializationTime
        shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        shuffleRead += m.shuffleReadMetrics.totalBytesRead
        spill += m.memoryBytesSpilled + m.diskBytesSpilled
        result += m.resultSize
      }
    }

  /** Waits until every event of the jobs run so far has been seen. */
  def flush(sc: SparkContext): Unit = {
    sc.setJobDescription(Marker)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.setJobDescription(null)
    require(markerDone.await(60, TimeUnit.SECONDS), "Spark listener events did not drain within 60 s")
  }

  def jobs: Int = jobStart.size

  /** Job (start, end) times in epoch milliseconds. */
  def jobIntervals: Seq[(Long, Long)] =
    jobStart.toSeq.sortBy(_._1).map { case (id, s) => (s, jobEnd.getOrElse(id, s)) }

  /** Sum over stages of (slowest task − mean task), in seconds. */
  def stragglerS: Double =
    stageTaskMs.values.map(ds => ds.max - ds.sum.toDouble / ds.length).sum / 1000.0

  /** Milliseconds of [fromMs, toMs) during which no job was running. */
  def idleMs(fromMs: Long, toMs: Long): Long = {
    var covered = 0L
    var reach = fromMs
    jobIntervals.map { case (s, e) => (math.max(s, fromMs), math.min(e, toMs)) }
      .filter { case (s, e) => e > s }.sortBy(_._1).foreach { case (s, e) =>
        if (e > reach) { covered += e - math.max(s, reach); reach = e }
      }
    (toMs - fromMs) - covered
  }
}
