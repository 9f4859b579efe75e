package repro.perfbench

import java.util.concurrent.{Callable, Executors}

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

import repro.core.{Apmi, Embeddings, PaneConfig, ParallelPane, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RandSvd}
import repro.spark.SparkPane

/** Names and units of the per-layer metrics, in output order. */
object PerLayer {
  private val sweeps = 6 // t at α = 0.5, ε = 0.015

  val all: Seq[(String, String)] = Seq(
    "core.y_phase_s" -> "s", "core.x_phase_s" -> "s", "core.init_s" -> "s",
    "linalg.randsvd_s" -> "s", "linalg.randsvd_products_s" -> "s",
    "linalg.randsvd_orth_s" -> "s", "linalg.randsvd_products" -> "count",
    "core.apmi_s" -> "s",
  ) ++ (0 to sweeps).map(i => s"core.objective_rel.s$i" -> "ratio") ++ Seq(
    "core.heap_after_apmi_mb" -> "MiB", "core.heap_after_init_mb" -> "MiB",
    "core.heap_after_ccd_mb" -> "MiB", "core.nd_mb" -> "MiB",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.task_run_s" -> "s",
    "spark.task_gc_s" -> "s", "spark.ser_s" -> "s", "spark.shuffle_write_mb" -> "MiB",
    "spark.shuffle_read_mb" -> "MiB", "spark.spill_mb" -> "MiB", "spark.result_mb" -> "MiB",
    "spark.straggler_s" -> "s", "spark.driver_s" -> "s",
    "graph.generate_s" -> "s", "graph.operators_s" -> "s", "graph.nnz_p" -> "count",
    "eval.split_s" -> "s", "eval.score_s" -> "s", "eval.pairs" -> "count",
    "jvm.jit_s" -> "s", "jvm.gc_s" -> "s", "jvm.cpu_s" -> "s", "jvm.cpu_util" -> "ratio",
    "trace.overhead_s" -> "s",
  )

  val names: Seq[String] = all.map(_._1)
}

/** What a traced pipeline produced: its output, its layer metrics, the
  * relative objective after init and after each sweep, and its wall time.
  */
final case class Traced(
    e: Embeddings, metrics: Map[String, Double], objectiveRel: Seq[Double],
    totalS: Double, bitEqualRequired: Boolean, problems: Seq[String],
)

/** The backends' pipelines rebuilt from their public pieces, with a span
  * around each layer call. Single and pool must reproduce the untraced
  * embed bit for bit; Spark is the same `SparkPane.embed` call with a
  * listener attached.
  */
final class Layers(w: Workload, cfg: PaneConfig, spans: Spans, spark: SparkSession) {

  import Layers.sumSq

  private def mb(bytes: Long): Double = bytes / GcWatch.MiB

  /** The CCD part shared by single and pool: init, then per sweep the
    * X-phase and the Y-phase, recording ‖Sf‖² + ‖Sb‖² relative to
    * ‖F′‖² + ‖B′‖² after init and after each sweep, and live heap after a
    * forced GC at each layer boundary.
    */
  private def ccd(root: Int, f: DenseMatrix, b: DenseMatrix, heapAfterApmi: Long,
                  init: => SvdCcd.State,
                  xPhase: (SvdCcd.State, Int) => Unit,
                  yPhase: (SvdCcd.State, Int) => Unit): (SvdCcd.State, Map[String, Double], Seq[Double]) = {
    val st = spans("core.init", root)(_ => init)
    val heapAfterInit = GcWatch.liveBytes()
    val norm = sumSq(f) + sumSq(b)
    val rel = ArrayBuffer(sumSq(st.sf) / norm + sumSq(st.sb) / norm)
    for (i <- 0 until cfg.refineIters) {
      spans(s"core.sweep", root) { sweep =>
        spans("core.x_phase", sweep)(xp => xPhase(st, xp))
        spans("core.y_phase", sweep)(yp => yPhase(st, yp))
      }
      rel += sumSq(st.sf) / norm + sumSq(st.sb) / norm
    }
    val heapAfterCcd = GcWatch.liveBytes()
    val metrics = Map(
      "core.apmi_s" -> spans.total("core.apmi"),
      "core.init_s" -> spans.total("core.init"),
      "core.x_phase_s" -> spans.total("core.x_phase"),
      "core.y_phase_s" -> spans.total("core.y_phase"),
      "core.heap_after_apmi_mb" -> mb(heapAfterApmi),
      "core.heap_after_init_mb" -> mb(heapAfterInit),
      "core.heap_after_ccd_mb" -> mb(heapAfterCcd),
    ) ++ rel.zipWithIndex.map { case (r, i) => s"core.objective_rel.s$i" -> r }
    (st, metrics, rel.toSeq)
  }

  /** `Pane.embed`: `Apmi.run` → `SvdCcd.greedyInit` → `nodeSweep`/`attrSweep`
    * over all rows. Then RandSvd runs once more from outside, through a
    * [[TimingOp]], to split its time into products and the rest.
    */
  def single(g: AttributedGraph): Traced = {
    var y0: DenseMatrix = null
    val (out, totalS) = Clock.timed(spans("embed") { root =>
      // `Pane.embed` holds the whole APMI result until it returns, P̂f and
      // P̂b included, so the heap probes below see them too.
      val aff = spans("core.apmi", root)(_ => Apmi.run(g, cfg.alpha, cfg.t))
      val heapAfterApmi = GcWatch.liveBytes()
      val r = ccd(root, aff.fPrime, aff.bPrime, heapAfterApmi,
        init = {
          val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.refineIters, cfg.seed)
          y0 = st.y.copy
          st
        },
        xPhase = (st, _) => SvdCcd.nodeSweep(st, 0, g.n),
        yPhase = (st, _) => SvdCcd.attrSweep(st, 0, g.d))
      (aff, r)
    })
    val (aff, (st, metrics, rel)) = out
    val op = new TimingOp(aff.fPrime)
    val ((_, _, v), svdS) = Clock.timed(spans("linalg.randsvd")(_ =>
      RandSvd(op, cfg.k / 2, cfg.refineIters, seed = cfg.seed)))
    val problems =
      if (java.util.Arrays.equals(v.data, y0.data)) Nil
      else Seq("RandSvd through the timing wrapper gave another Y than greedyInit")
    Traced(Embeddings(st.xf, st.xb, st.y), metrics ++ Map(
      "linalg.randsvd_s" -> svdS,
      "linalg.randsvd_products_s" -> op.productNs / 1e9,
      "linalg.randsvd_orth_s" -> (svdS - op.productNs / 1e9),
      "linalg.randsvd_products" -> op.products.toDouble,
    ), rel, totalS, bitEqualRequired = true, problems)
  }

  /** `ParallelPane.embed`: `papmi` → `smGreedyInit` → per sweep `nodeSweep`
    * over `ranges(n, nb)` then `attrSweep` over `ranges(d, nb)`, on a pool
    * of nb threads owned here.
    */
  def pool(g: AttributedGraph): Traced = {
    val nb = w.nb
    val pool = Executors.newFixedThreadPool(nb)
    def blocks(name: String, parent: Int, size: Int)(body: (Int, Int) => Unit): Unit = {
      val tasks = ParallelPane.ranges(size, nb).map { case (from, until) =>
        new Callable[Unit] { def call(): Unit = spans(name, parent)(_ => body(from, until)) }
      }
      pool.invokeAll(tasks.asJava).asScala.foreach(_.get())
    }
    try {
      val (out, totalS) = Clock.timed(spans("embed") { root =>
        val (f, b) = spans("core.apmi", root)(_ =>
          ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, nb))
        val heapAfterApmi = GcWatch.liveBytes()
        ccd(root, f, b, heapAfterApmi,
          init = ParallelPane.smGreedyInit(f, b, cfg.k, cfg.refineIters, nb, cfg.seed),
          xPhase = (st, id) => blocks("core.x_block", id, g.n)((from, until) => SvdCcd.nodeSweep(st, from, until)),
          yPhase = (st, id) => blocks("core.y_block", id, g.d)((from, until) => SvdCcd.attrSweep(st, from, until)))
      })
      val (st, metrics, rel) = out
      Traced(Embeddings(st.xf, st.xb, st.y), metrics, rel, totalS, bitEqualRequired = true, Nil)
    } finally pool.shutdown()
  }

  /** `SparkPane.embed` with a [[SparkProbe]] attached; each job becomes a
    * child span of the embed span.
    */
  def spark(g: AttributedGraph): Traced = {
    val sc = spark.sparkContext
    val probe = new SparkProbe
    sc.addSparkListener(probe)
    var rootId = -1
    val startMs = System.currentTimeMillis()
    var endMs = startMs
    val (e, totalS) = try Clock.timed(spans("embed") { root =>
      rootId = root
      val out = SparkPane.embed(g, cfg, Some(w.nb))(spark)
      endMs = System.currentTimeMillis()
      out
    }) finally {
      probe.flush(sc)
      sc.removeSparkListener(probe)
    }
    probe.jobIntervals.foreach { case (s, t) =>
      spans.add("spark.job", rootId, (s - spans.originEpochMs) / 1000.0, (t - spans.originEpochMs) / 1000.0)
    }
    Traced(e, Map(
      "spark.jobs" -> probe.jobs.toDouble,
      "spark.tasks" -> probe.tasks.toDouble,
      "spark.task_run_s" -> probe.runMs / 1000.0,
      "spark.task_gc_s" -> probe.gcMs / 1000.0,
      "spark.ser_s" -> probe.serMs / 1000.0,
      "spark.shuffle_write_mb" -> mb(probe.shuffleWrite),
      "spark.shuffle_read_mb" -> mb(probe.shuffleRead),
      "spark.spill_mb" -> mb(probe.spill),
      "spark.result_mb" -> mb(probe.result),
      "spark.straggler_s" -> probe.stragglerS,
      "spark.driver_s" -> probe.idleMs(startMs, endMs) / 1000.0,
    ), Nil, totalS, bitEqualRequired = false, Nil)
  }
}

object Layers {
  /** Squared Frobenius norm. */
  def sumSq(m: DenseMatrix): Double = {
    var s = 0.0
    var i = 0
    while (i < m.data.length) { s += m.data(i) * m.data(i); i += 1 }
    s
  }
}
