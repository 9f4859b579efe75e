package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.core.{Apmi, Embeddings, ParallelPane, SvdCcd}
import repro.eval.Tasks.TestPair
import repro.graph.{AttributedGraph, Datasets, SynthGraph}
import repro.linalg.DenseMatrix

/** PANE benchmark entry point. `perfbench/run.py` builds the classes and
  * starts this with fixed JVM settings; see there for the arguments.
  *
  * `--trace 0` times embed-and-score operations with tracing off and prints
  * the end-to-end metrics. `--trace 1` runs one untraced embed, then the
  * same pipeline again with spans around each public layer call, and prints
  * the per-layer metrics. The last stdout line is the result object.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, outDir: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = get("seconds").toInt
    require(seconds >= 1, s"--seconds must be >= 1, got $seconds")
    Args(get("workload"), get("seed").toLong, seconds, trace == "1", get("out"))
  }

  def main(argv: Array[String]): Unit = {
    val t0 = System.nanoTime()
    val args = parse(argv)
    val run = new Run(Workload.byName(args.workload), args, t0)
    val (context, result) = try run.execute() finally run.close()
    println(Json.write(Map("context" -> context)))
    println(Json.write(result))
  }
}

/** What one preparation of a graph cost: generation, the evaluation
  * split, and forcing the training graph's lazy operators.
  */
final case class PrepTimes(generateS: Double, splitS: Double, operatorsS: Double) {
  def totalS: Double = generateS + splitS + operatorsS
}

/** A graph prepared for embedding: the training graph with its lazy
  * operators forced, and the test pairs.
  */
final case class Prepared(train: AttributedGraph, pairs: Array[TestPair], times: PrepTimes)

/** Everything done before the first timed embed. */
final case class Setup(p: Prepared, sparkS: Double, warmupS: Double, warmupRepS: Seq[Double],
                       preps: Seq[PrepTimes]) {
  /** The median of the repeated preparations of the workload graph. Spark
    * start and the JIT warm-up happen once per JVM and cold, so they are
    * reported in the run context instead.
    */
  def setupS: Double = Clock.median(preps.map(_.totalS))
}

/** One embed-and-score operation and its output checks. */
final case class Op(
    embedS: Double, peakBytes: Long, gcs: Int, scoreS: Double,
    auc: Double, ap: Double, e: Embeddings, problems: Seq[String],
) {
  def ok: Boolean = problems.isEmpty
}

final class Run(w: Workload, args: Main.Args, t0: Long) {
  import Clock.{median, timed}

  private val cfg = w.cfg
  private val seed = args.seed
  private var spark: SparkSession = null

  def close(): Unit = if (spark != null) spark.stop()

  // ---------------------------------------------------------------- set-up

  private def startSpark(): SparkSession = {
    val tmp = Paths.get(args.outDir, "spark-tmp").toAbsolutePath
    Files.createDirectories(tmp)
    val s = SparkSession.builder()
      .master(s"local[${w.nb}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", w.nb.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp.toString)
      .config("spark.sql.warehouse.dir", tmp.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private def prepare(c: SynthGraph.Config): Prepared = {
    val (g, generateS) = timed(Datasets.load(c))
    val ((train, pairs), splitS) = timed(w.split(g, seed))
    val (_, operatorsS) = timed { train.walkMatrix; train.attrRowNorm; train.attrColNorm }
    Prepared(train, pairs, PrepTimes(generateS, splitS, operatorsS))
  }

  /** Starts Spark if needed, warms the JIT on a small graph that shares no
    * data with the workload graph, then prepares the workload graph
    * `prepReps` times, each time with warm code, and keeps the last.
    */
  private def setUp(): Setup = {
    val (_, sparkS) = timed { if (w.backend == Backend.Spark) spark = startSpark() }
    val (repS, warmupS) = timed {
      val wp = prepare(w.warmupConfig(seed))
      (1 to w.warmupReps).map(_ => timed(w.score(wp.train, w.embed(wp.train, spark), wp.pairs))._2)
    }
    // Only the last preparation stays reachable, so the timed embeds see
    // one copy of the graph on the heap. Each preparation starts after a
    // collection, so none pays for clearing the previous one's garbage.
    var p: Prepared = null
    val preps = (1 to w.prepReps).map { _ =>
      p = null
      System.gc()
      p = prepare(w.dataset.copy(seed = w.graphSeed(seed)))
      p.times
    }
    Setup(p, sparkS, warmupS, repS, preps)
  }

  // ---------------------------------------------------------------- checks

  /** Shapes n×k/2 and d×k/2, every value finite. */
  private def shapeProblems(e: Embeddings, g: AttributedGraph): Seq[String] = {
    val half = cfg.k / 2
    val out = ArrayBuffer.empty[String]
    def check(label: String, m: DenseMatrix, rows: Int): Unit = {
      if (m.rows != rows || m.cols != half) out += s"$label is ${m.rows}x${m.cols}, expected ${rows}x$half"
      if (!m.data.forall(x => !x.isNaN && !x.isInfinite)) out += s"$label has non-finite values"
    }
    check("Xf", e.xf, g.n)
    check("Xb", e.xb, g.n)
    check("Y", e.y, g.d)
    out.toSeq
  }

  /** The AUC floor of Table4Bench and Table5Bench. */
  private val AucFloor = 0.7

  private def scoreAndCheck(p: Prepared, e: Embeddings): (Double, Double, Double, Seq[String]) = {
    val shape = shapeProblems(e, p.train)
    if (shape.nonEmpty) return (0.0, 0.0, 0.0, shape)
    val ((auc, ap), scoreS) = timed(w.score(p.train, e, p.pairs))
    (auc, ap, scoreS, if (auc < AucFloor) Seq(f"auc $auc%.4f below $AucFloor") else Nil)
  }

  private def failedOp(t: Throwable): Op =
    Op(0.0, 0L, 0, 0.0, 0.0, 0.0, null, Seq(s"${t.getClass.getSimpleName}: ${t.getMessage}"))

  // ---------------------------------------------------------------- objective

  /** F′ and B′ of the training graph. The pool and Spark workloads use the
    * block-parallel PAPMI, which equals single-thread APMI (Lemma 4.1).
    */
  private def affinity(g: AttributedGraph): (DenseMatrix, DenseMatrix) = w.backend match {
    case Backend.Single =>
      val r = Apmi.run(g, cfg.alpha, cfg.t)
      (r.fPrime, r.bPrime)
    case _ => ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, w.nb)
  }

  // ---------------------------------------------------------------- runs

  def execute(): (Map[String, Any], Map[String, Any]) = {
    val setup = setUp()
    val setupS = Clock.seconds(t0, System.nanoTime())
    val (metrics, attempted, failed, extra) =
      if (args.trace) traced(setup) else timedOps(setup)
    val p = setup.p
    val nnzP = p.train.walkMatrix.nnz.toLong
    val context = ListMap[String, Any](
      "workload" -> w.name,
      "seed" -> seed,
      "graph_seed" -> w.graphSeed(seed),
      "split_seed" -> w.splitSeed(seed),
      "trace" -> args.trace,
      "nproc" -> sys.props.getOrElse("perfbench.nproc", "unknown"),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / GcWatch.MiB,
      "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
        .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).toSeq,
      "backend" -> w.backend.toString,
      "nb" -> w.nb,
      "n" -> p.train.n, "d" -> p.train.d, "m" -> p.train.m, "nnz_p" -> nnzP,
      "k" -> cfg.k, "t" -> cfg.t, "ccd_sweeps" -> cfg.refineIters,
      "pairs" -> p.pairs.length,
      "computed_ops" -> ListMap(
        "note" -> "computed from the sizes above, not measured",
        "apmi_spmm_flops" -> 4.0 * nnzP * p.train.d * cfg.t,
        "ccd_sweep_flops" -> 8.0 * p.train.n * p.train.d * cfg.k),
      "setup" -> ListMap(
        "spark_s" -> setup.sparkS, "warmup_s" -> setup.warmupS, "warmup_rep_s" -> setup.warmupRepS,
        "prep_s" -> setup.preps.map(_.totalS), "until_ready_s" -> setupS),
    ) ++ extra
    val result = ListMap[String, Any](
      "correct" -> (failed == 0 && attempted > 0),
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> ListMap(metrics.map { case (name, (v, unit)) =>
        name -> ListMap("value" -> v, "unit" -> unit) }: _*),
    )
    (context, result)
  }

  private type Metrics = Seq[(String, (Double, String))]

  /** Embed-and-score operations until `--seconds` have passed (at least one). */
  private def timedOps(setup: Setup): (Metrics, Int, Int, Map[String, Any]) = {
    val p = setup.p
    val ops = ArrayBuffer.empty[Op]
    val start = System.nanoTime()
    do {
      ops += (try {
        val ((e, embedS), peak, gcs) = GcWatch.peakDuring(timed(w.embed(p.train, spark)))
        val (auc, ap, scoreS, problems) = scoreAndCheck(p, e)
        Op(embedS, peak, gcs, scoreS, auc, ap, e, problems)
      } catch { case NonFatal(t) => failedOp(t) })
    } while (Clock.seconds(start, System.nanoTime()) < args.seconds && ops.last.ok)

    // Objective (4) relative to ‖F′‖² + ‖B′‖², outside the timed region.
    // A zero embedding scores exactly 1, so a valid one lies in (0, 1).
    val good = ops.filter(_.ok)
    val objectives = if (good.isEmpty) Nil else {
      val (f, b) = affinity(p.train)
      val norm = Layers.sumSq(f) + Layers.sumSq(b)
      good.map(op => SvdCcd.objective(f, b, op.e) / norm).toSeq
    }
    val objProblems = objectives.filter(o => !(o > 0 && o < 1)).map(o => s"objective_rel $o outside (0, 1)")
    val failed = ops.count(!_.ok) + objProblems.length
    def med(f: Op => Double) = if (good.isEmpty) 0.0 else median(good.map(f).toSeq)
    val metrics: Metrics = Seq(
      "embed_s" -> (med(_.embedS), "s"),
      "setup_s" -> (setup.setupS, "s"),
      "objective_rel" -> (if (objectives.isEmpty) 0.0 else median(objectives), "ratio"),
      "auc" -> (med(_.auc), "ratio"),
      "ap" -> (med(_.ap), "ratio"),
      "heap_live_peak_mb" -> (med(_.peakBytes / GcWatch.MiB), "MiB"),
      "ok_share" -> ((ops.length - failed).toDouble / ops.length, "ratio"),
    )
    val extra = Map[String, Any](
      "samples" -> ops.length,
      "ops" -> ops.map(op => ListMap("embed_s" -> op.embedS, "score_s" -> op.scoreS,
        "heap_live_peak_mb" -> op.peakBytes / GcWatch.MiB, "gcs_during_embed" -> op.gcs,
        "auc" -> op.auc, "ap" -> op.ap, "problems" -> op.problems)).toSeq,
      "objective_rel" -> objectives,
      "problems" -> (ops.flatMap(_.problems) ++ objProblems).toSeq,
    )
    (metrics, ops.length, failed, extra)
  }

  /** The traced run: one untraced embed for the baseline and the JVM
    * counters, then the traced pipeline, its checks and the trace file.
    */
  private def traced(setup: Setup): (Metrics, Int, Int, Map[String, Any]) = {
    val p = setup.p
    val g = p.train
    System.gc()
    val before = JvmCounters.now()
    val (e0, embedS) = timed(w.embed(g, spark))
    val jvm = JvmCounters.now().minus(before)
    val (auc, ap, scoreS, problems0) = scoreAndCheck(p, e0)

    val spans = new Spans
    val layers = new Layers(w, cfg, spans, spark)
    val t = w.backend match {
      case Backend.Single => layers.single(g)
      case Backend.Pool => layers.pool(g)
      case Backend.Spark => layers.spark(g)
    }
    val problems1 = ArrayBuffer.empty[String]
    problems1 ++= shapeProblems(t.e, g)
    if (t.bitEqualRequired)
      for ((label, a, b) <- Seq(("Xf", e0.xf, t.e.xf), ("Xb", e0.xb, t.e.xb), ("Y", e0.y, t.e.y)))
        if (!java.util.Arrays.equals(a.data, b.data))
          problems1 += s"traced $label differs from the untraced embed's $label"
    val objRel = t.objectiveRel
    for (i <- 1 until objRel.length if objRel(i) > objRel(i - 1) * (1 + 1e-12))
      problems1 += s"objective rose from sweep ${i - 1} to $i: ${objRel(i - 1)} -> ${objRel(i)}"
    problems1 ++= t.problems

    val cpuS = jvm.cpuNs / 1e9
    val known = t.metrics ++ Map(
      "core.nd_mb" -> g.n.toDouble * g.d * 8 / GcWatch.MiB,
      "graph.generate_s" -> median(setup.preps.map(_.generateS)),
      "graph.operators_s" -> median(setup.preps.map(_.operatorsS)),
      "graph.nnz_p" -> g.walkMatrix.nnz.toDouble,
      "eval.split_s" -> median(setup.preps.map(_.splitS)),
      "eval.score_s" -> scoreS,
      "eval.pairs" -> p.pairs.length.toDouble,
      "jvm.jit_s" -> jvm.jitMs / 1000.0,
      "jvm.gc_s" -> jvm.gcMs / 1000.0,
      "jvm.cpu_s" -> cpuS,
      "jvm.cpu_util" -> cpuS / (embedS * w.nb),
      "trace.overhead_s" -> (t.totalS - embedS),
    )
    val absent = PerLayer.names.filterNot(known.contains)
    val metrics: Metrics = PerLayer.all.map { case (name, unit) => name -> (known.getOrElse(name, 0.0), unit) }
    val allProblems = (problems0 ++ problems1).toSeq
    val extra = ListMap[String, Any](
      "embed_s_untraced" -> embedS,
      "traced_total_s" -> t.totalS,
      "auc" -> auc, "ap" -> ap,
      "absent_metrics" -> absent,
      "absent_note" -> "not measured on this workload; reported as 0",
      "problems" -> allProblems,
    )
    val file = Paths.get(args.outDir, s"trace-${w.name}-seed$seed.json")
    Files.createDirectories(file.getParent)
    Files.write(file, Json.write(ListMap("workload" -> w.name, "seed" -> seed,
      "metrics" -> ListMap(metrics.map { case (k, (v, _)) => k -> v }: _*),
      "spans" -> spans.toJson) ++ extra).getBytes(StandardCharsets.UTF_8))
    val failed = (if (problems0.nonEmpty) 1 else 0) + (if (problems1.nonEmpty) 1 else 0)
    (metrics, 2, failed, extra + ("trace_file" -> file.toString))
  }
}
