package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import com.sun.management.GarbageCollectionNotificationInfo

import repro.linalg.{DenseMatrix, LinOp}

/** Wall-clock helpers. */
object Clock {
  def seconds(fromNs: Long, toNs: Long): Double = (toNs - fromNs) / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t = System.nanoTime()
    val a = body
    (a, seconds(t, System.nanoTime()))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}

/** Heap in use after garbage collections, from the JVM's GC notifications.
  * Notifications arrive asynchronously but in collection order, so the
  * i-th one received belongs to the i-th collection counted by the beans.
  */
object GcWatch {

  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val arrived = new LinkedBlockingQueue[java.lang.Long]()
  private val usedAfter = ArrayBuffer.empty[Long]

  private val listener = new NotificationListener {
    override def handleNotification(n: Notification, handback: AnyRef): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
        arrived.put(info.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum)
      }
  }

  beans.foreach {
    case e: NotificationEmitter => e.addNotificationListener(listener, null, null)
    case _ =>
  }
  private val base = collections

  private def collections: Long = beans.map(_.getCollectionCount).filter(_ >= 0).sum

  /** Waits for the notifications of every collection counted so far. */
  private def drain(): Unit = {
    val target = collections - base
    while (usedAfter.length < target) {
      val u = arrived.poll(60, TimeUnit.SECONDS)
      if (u == null) throw new IllegalStateException("GC notification did not arrive within 60 s")
      usedAfter += u
    }
  }

  /** Runs `body` after a forced collection and returns the largest heap in
    * use after any collection that ended while it ran, and how many that
    * was. If none ran, the heap in use after a forced collection at the
    * end stands in, and the count is 0.
    */
  def peakDuring[A](body: => A): (A, Long, Int) = {
    System.gc()
    drain()
    val from = usedAfter.length
    val a = body
    val until = (collections - base).toInt
    System.gc()
    drain()
    val inside = usedAfter.slice(from, until)
    (a, if (inside.nonEmpty) inside.max else usedAfter.last, inside.length)
  }

  /** Heap in use after a forced full collection. */
  def liveBytes(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  val MiB: Double = 1024.0 * 1024.0
}

/** JIT, GC and CPU counters of this JVM, read before and after a call. */
final case class JvmCounters(jitMs: Long, gcMs: Long, cpuNs: Long) {
  def minus(o: JvmCounters): JvmCounters = JvmCounters(jitMs - o.jitMs, gcMs - o.gcMs, cpuNs - o.cpuNs)
}

object JvmCounters {
  def now(): JvmCounters = JvmCounters(
    ManagementFactory.getCompilationMXBean.getTotalCompilationTime,
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum,
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
      .getProcessCpuTime)
}

/** A [[LinOp]] that counts and times the products RandSvd asks of it. */
final class TimingOp(a: LinOp) extends LinOp {
  var products = 0
  var productNs = 0L
  override def rows: Int = a.rows
  override def cols: Int = a.cols

  private def time(body: => DenseMatrix): DenseMatrix = {
    val t = System.nanoTime()
    val r = body
    productNs += System.nanoTime() - t
    products += 1
    r
  }

  override def applyTo(x: DenseMatrix): DenseMatrix = time(a.applyTo(x))
  override def applyTransposeTo(x: DenseMatrix): DenseMatrix = time(a.applyTransposeTo(x))
}

/** In-memory spans (name, start, end, parent), written out when the run
  * ends. Times are seconds since the recorder was made. Thread-safe, so
  * pool tasks can record their own spans.
  */
final class Spans {
  import Spans.Span

  private val origin = System.nanoTime()

  /** Wall-clock time of `origin`, to place Spark's job times (epoch
    * milliseconds) on the same timeline.
    */
  val originEpochMs: Long = System.currentTimeMillis()
  private val done = ArrayBuffer.empty[Span]
  private var nextId = 0

  private def now: Double = Clock.seconds(origin, System.nanoTime())

  /** Runs `body` inside a span; `body` gets the span's id for its children. */
  def apply[A](name: String, parent: Int = -1)(body: Int => A): A = {
    val id = synchronized { nextId += 1; nextId }
    val start = now
    val a = body(id)
    val end = now
    synchronized { done += Span(id, name, parent, start, end) }
    a
  }

  /** Records a span measured elsewhere, given in seconds since `origin`. */
  def add(name: String, parent: Int, start: Double, end: Double): Unit =
    synchronized { nextId += 1; done += Span(nextId, name, parent, start, end) }

  def total(name: String): Double = synchronized { done.filter(_.name == name).map(s => s.end - s.start).sum }

  def toJson: Seq[Map[String, Any]] = synchronized {
    done.sortBy(_.start).map(s => Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
      "start_s" -> s.start, "end_s" -> s.end)).toSeq
  }
}

object Spans {
  final case class Span(id: Int, name: String, parent: Int, start: Double, end: Double)
}
