package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel

import repro.core.{Apmi, Embeddings, PaneConfig, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RandSvd, SparseMatrix}

/** Distributed-dataflow PANE (the paper's Section 4, with Spark partitions
  * playing the role of threads).
  *
  *  - **PAPMI** (Alg 6): attribute-column blocks are the unit of
  *    parallelism. The sparse walk matrix P is broadcast (the dataflow
  *    analog of the paper's shared memory); each task runs the affinity
  *    recurrence for its column slice locally, finalizes F' in-block
  *    (column normalization is block-local), and the per-node row stitch +
  *    row normalization of B' happens in a groupByKey over nodes.
  *  - **SMGreedyInit** (Alg 7): node-row blocks are the unit of
  *    parallelism; per-partition RandSVD of F'[Vi], small merge SVD on the
  *    driver, per-row initialization of Xf, Xb, Sf, Sb on executors.
  *  - **PSVDCCD** (Alg 8): every step calls the [[SvdCcd]] kernels the
  *    single-thread and pool solvers use. The X phase is a per-row map
  *    running [[SvdCcd.RowKernels.nodeRow]] (Yᵀ and H = YᵀY built once per
  *    partition), so each row equals [[SvdCcd.nodeSweep]] bit for bit. The
  *    Y phase is the Gramian replay of [[SvdCcd.attrSweep]] split across the
  *    cluster: executors aggregate Gf = XfᵀSf, Gb = XbᵀSb, Hf = XfᵀXf,
  *    Hb = XbᵀXb ([[SvdCcd.attrGramRows]], four rows at a time), the driver
  *    replays the coordinate updates ([[SvdCcd.attrReplay]], DESIGN.md §2),
  *    and the resulting ΔYᵀ is pushed back as the residual patch
  *    Sf ← Sf − Xf·ΔYᵀ ([[SvdCcd.rowPatch]]) at the start of the next map.
  *    The initial residuals of SMGreedyInit are [[SvdCcd.RowKernels.residualRow]].
  *
  * Each stage runs under a job description (`papmi`, `sm-greedy-init`,
  * `ccd sweep i`), cleared when `embed` returns.
  *
  * The result matches the thread-pool ParallelPane up to floating-point
  * summation order (tested).
  */
object SparkPane extends Serializable {

  /** A stitched affinity row: node id, block id (for SMGreedyInit), and
    * the node's rows of F' and B'.
    */
  final case class AffRow(id: Int, part: Int, f: Array[Double], b: Array[Double])

  /** CCD state row: embeddings + residuals for one node. */
  final case class CcdRow(id: Int, xf: Array[Double], xb: Array[Double],
                          sf: Array[Double], sb: Array[Double])

  /** Column-block slice of the affinity recurrence output (public: Spark
    * encoder codegen requires accessible case-class accessors).
    */
  final case class Slice(id: Int, block: Int, f: Array[Double], pbRow: Array[Double])

  /** Contiguous near-equal ranges — shared with ParallelPane so block
    * boundaries (and therefore SVD seeds) line up between the two.
    */
  private def ranges(size: Int, nb: Int): Seq[(Int, Int)] =
    repro.core.ParallelPane.ranges(size, nb)

  private def blockOf(id: Int, bounds: Array[Int]): Int = {
    // bounds = exclusive upper bounds of each range, ascending
    var lo = 0
    var hi = bounds.length - 1
    while (lo < hi) {
      val mid = (lo + hi) / 2
      if (id < bounds(mid)) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Distributed PAPMI: returns one AffRow per node (all n nodes). */
  def papmi(g: AttributedGraph, alpha: Double, t: Int, nb: Int,
            spark: SparkSession): Dataset[AffRow] = {
    import spark.implicits._
    val n = g.n
    val d = g.d
    val sc = spark.sparkContext
    val bcP = sc.broadcast(g.walkMatrix)
    val bcRr = sc.broadcast(g.attrRowNorm)
    val bcRc = sc.broadcast(g.attrColNorm)
    val colBlocks = ranges(d, math.max(nb, math.min(d, sc.defaultParallelism * 2)))
    val nodeBounds = ranges(n, nb).map(_._2).toArray

    val slices = spark.createDataset(colBlocks.zipWithIndex)
      .repartition(colBlocks.length)
      .flatMap { case ((from, until), bi) =>
        val p = bcP.value
        val w = until - from
        // Dense column slices of Rr / Rc restricted to [from, until).
        def slice(m: SparseMatrix): DenseMatrix = {
          val out = DenseMatrix.zeros(n, w)
          var i = 0
          while (i < n) {
            var q = m.rowPtr(i)
            while (q < m.rowPtr(i + 1)) {
              val c = m.colIdx(q)
              if (c >= from && c < until) out(i, c - from) = out(i, c - from) + m.values(q)
              q += 1
            }
            i += 1
          }
          out
        }
        val pf0 = slice(bcRr.value)
        val pb0 = slice(bcRc.value)
        var pf = pf0.copy
        var pb = pb0.copy
        var l = 1
        while (l <= t) {
          pf = (p * pf).zipWith(pf0, (pv, bv) => (1 - alpha) * pv + alpha * bv)
          pb = p.tMul(pb).zipWith(pb0, (pv, bv) => (1 - alpha) * pv + alpha * bv)
          l += 1
        }
        // F' is finalized in-block: its normalizer is a column sum.
        val cs = pf.colSums
        val fP = DenseMatrix.zeros(n, w)
        var i = 0
        while (i < n) {
          var j = 0
          while (j < w) {
            val s = cs(j)
            val hat = if (s > 0) pf(i, j) / s else 0.0
            fP(i, j) = math.log(n * hat + 1)
            j += 1
          }
          i += 1
        }
        (0 until n).iterator.map(id => Slice(id, bi, fP.row(id), pb.row(id)))
      }

    val widths = colBlocks.map { case (f, u) => u - f }.toArray
    val offsets = widths.scanLeft(0)(_ + _)
    slices.groupByKey(_.id).mapGroups { (id, it) =>
      val f = new Array[Double](d)
      val pbRow = new Array[Double](d)
      it.foreach { s =>
        System.arraycopy(s.f, 0, f, offsets(s.block), s.f.length)
        System.arraycopy(s.pbRow, 0, pbRow, offsets(s.block), s.pbRow.length)
      }
      // B' needs the full row: row-normalize then SPMI (Alg 2 Lines 7-8).
      var rs = 0.0
      var j = 0
      while (j < d) { rs += pbRow(j); j += 1 }
      val b = new Array[Double](d)
      j = 0
      while (j < d) {
        val hat = if (rs > 0) pbRow(j) / rs else 0.0
        b(j) = math.log(d * hat + 1)
        j += 1
      }
      AffRow(id, blockOf(id, nodeBounds), f, b)
    }
  }

  /** Per-node output of SMGreedyInit stage 1 (public for encoder codegen);
    * `vi` carries the block's flattened right factor on one row per block.
    */
  final case class Stage1(id: Int, part: Int, f: Array[Double], b: Array[Double],
                          u: Array[Double], vi: Array[Double])

  /** Full distributed PANE. `nb` is the number of node/SVD blocks
    * (defaults to the cluster parallelism).
    */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(),
            nbOpt: Option[Int] = None)(implicit spark: SparkSession): Embeddings = {
    val sc = spark.sparkContext
    try embedStages(g, cfg, nbOpt.getOrElse(sc.defaultParallelism))
    finally sc.setJobDescription(null)
  }

  private def embedStages(g: AttributedGraph, cfg: PaneConfig, nb: Int)
                         (implicit spark: SparkSession): Embeddings = {
    import spark.implicits._
    val sc = spark.sparkContext
    val half = cfg.k / 2
    val n = g.n
    val d = g.d
    val t = cfg.t

    sc.setJobDescription("papmi")
    val aff = papmi(g, cfg.alpha, t, nb, spark)
      .repartition(nb, $"part")
      .persist(StorageLevel.MEMORY_AND_DISK)
    aff.count()

    // ---- SMGreedyInit stage 1: per-block RandSVD of F'[Vi] --------------
    sc.setJobDescription("sm-greedy-init")
    val stage1 = aff.mapPartitions { rows =>
      rows.toSeq.groupBy(_.part).iterator.flatMap { case (part, group) =>
        val sorted = group.sortBy(_.id)
        val fBlock = DenseMatrix.fromRows(sorted.map(_.f))
        val (u, sig, v) = RandSvd(fBlock, half, t, seed = cfg.seed + part)
        val vt = v.transpose // half × d
        sorted.iterator.zipWithIndex.map { case (r, i) =>
          val uRow = new Array[Double](half)
          var j = 0
          while (j < half) { uRow(j) = u(i, j) * sig(j); j += 1 }
          Stage1(r.id, part, r.f, r.b, uRow, if (i == 0) vt.data else null)
        }
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)

    // ---- merge SVD on the driver (Alg 7 Lines 4-6) ----------------------
    val viByPart = stage1.filter(_.vi != null).map(s => (s.part, s.vi)).collect().sortBy(_._1)
    val stacked = DenseMatrix.vstack(viByPart.map { case (_, data) => new DenseMatrix(half, d, data) }.toSeq)
    val (phi, sig2, y0) = RandSvd(stacked, half, t, seed = cfg.seed + 9999)
    val w = DenseMatrix.zeros(stacked.rows, half)
    locally {
      var i = 0
      while (i < stacked.rows) {
        var j = 0
        while (j < half) { w(i, j) = phi(i, j) * sig2(j); j += 1 }
        i += 1
      }
    }
    // Parts may be non-contiguous ids if some blocks were empty; map part -> W slice.
    val partIndex = viByPart.map(_._1).zipWithIndex.toMap
    val bcW = sc.broadcast(w)
    val bcPartIndex = sc.broadcast(partIndex)
    val bcY0 = sc.broadcast(y0)

    // ---- stage 2: per-row init of Xf, Xb, Sf, Sb (Alg 7 Lines 7-11) -----
    var state = stage1.mapPartitions { rows =>
      val wAll = bcW.value
      val yv = bcY0.value
      val kern = new SvdCcd.RowKernels(yv)
      rows.map { s =>
        val bi = bcPartIndex.value(s.part)
        val xf = new Array[Double](half)
        var l2 = 0
        while (l2 < half) {
          var acc = 0.0
          var l = 0
          while (l < half) { acc += s.u(l) * wAll(bi * half + l, l2); l += 1 }
          xf(l2) = acc
          l2 += 1
        }
        val xb = new Array[Double](half)
        var l = 0
        while (l < half) {
          var acc = 0.0
          var j = 0
          while (j < d) { acc += s.b(j) * yv(j, l); j += 1 }
          xb(l) = acc
          l += 1
        }
        val sf = new Array[Double](d)
        val sb = new Array[Double](d)
        kern.residualRow(xf, 0, s.f, 0, sf, 0)
        kern.residualRow(xb, 0, s.b, 0, sb, 0)
        CcdRow(s.id, xf, xb, sf, sb)
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    state.count() // materialize before unpersisting parents
    aff.unpersist()

    // ---- PSVDCCD iterations --------------------------------------------
    var y = y0
    var pendingDeltaT = Array.empty[Double]
    val iters = cfg.refineIters
    var it = 0
    while (it < iters) {
      sc.setJobDescription(s"ccd sweep $it")
      val bcY = sc.broadcast(y)
      val bcDeltaT = sc.broadcast(pendingDeltaT)
      val prev = state
      state = prev.mapPartitions { rows =>
        val deltaT = bcDeltaT.value
        val kern = new SvdCcd.RowKernels(bcY.value)
        rows.map { row =>
          // Patch residuals for the Y move of the previous iteration.
          if (deltaT.nonEmpty) {
            SvdCcd.rowPatch(row.xf, 0, half, deltaT, d, row.sf, 0)
            SvdCcd.rowPatch(row.xb, 0, half, deltaT, d, row.sb, 0)
          }
          kern.nodeRow(row.xf, row.xb, 0, row.sf, row.sb, 0)
          row
        }
      }.persist(StorageLevel.MEMORY_AND_DISK)

      // Aggregate Gf, Gb, Hf, Hb over all rows in one flat array, copying
      // four rows at a time into the contiguous layout attrGramRows reads.
      val agg = state.mapPartitions { rows =>
        val acc = new Array[Double](SvdCcd.attrGramSize(half, d))
        val (xf4, xb4) = (new Array[Double](4 * half), new Array[Double](4 * half))
        val (sf4, sb4) = (new Array[Double](4 * d), new Array[Double](4 * d))
        rows.grouped(4).foreach { group =>
          group.iterator.zipWithIndex.foreach { case (r, q) =>
            System.arraycopy(r.xf, 0, xf4, q * half, half)
            System.arraycopy(r.xb, 0, xb4, q * half, half)
            System.arraycopy(r.sf, 0, sf4, q * d, d)
            System.arraycopy(r.sb, 0, sb4, q * d, d)
          }
          SvdCcd.attrGramRows(xf4, xb4, sf4, sb4, 0, d, group.length, half, d, acc)
        }
        Iterator.single(acc)
      }.reduce { (a, b) =>
        var i = 0
        while (i < a.length) { a(i) += b(i); i += 1 }
        a
      }
      prev.unpersist()

      // Exact driver replay of the sequential Y phase (Alg 4 Lines 10-14),
      // the same kernel SvdCcd.attrSweep runs on a column range.
      val newY = y.copy
      pendingDeltaT = SvdCcd.attrReplay(newY, agg, 0, d)
      y = newY
      it += 1
    }

    val rows = state.map(r => (r.id, r.xf, r.xb)).collect()
    state.unpersist()
    stage1.unpersist()
    val xf = DenseMatrix.zeros(n, half)
    val xb = DenseMatrix.zeros(n, half)
    rows.foreach { case (id, xfr, xbr) =>
      xf.setRow(id, xfr)
      xb.setRow(id, xbr)
    }
    Embeddings(xf, xb, y)
  }

  /** Collect a distributed affinity Dataset back to dense matrices —
    * used by tests to compare against the single-thread APMI.
    */
  def collectAffinity(aff: Dataset[AffRow], n: Int, d: Int): (DenseMatrix, DenseMatrix) = {
    val f = DenseMatrix.zeros(n, d)
    val b = DenseMatrix.zeros(n, d)
    aff.collect().foreach { r =>
      f.setRow(r.id, r.f)
      b.setRow(r.id, r.b)
    }
    (f, b)
  }

  /** One step of P·X as a pure DataFrame join-aggregate — the GraphX-style
    * message-passing formulation of the recurrence, kept as the dataflow
    * path for graphs too large to broadcast and cross-checked against the
    * local sparse kernel in tests.
    *
    * @param walk  DataFrame (src, dst, w) of P
    * @param x     DataFrame (id, vec) with vec: Array[Double]
    */
  def propagateStep(walk: org.apache.spark.sql.DataFrame,
                    x: org.apache.spark.sql.DataFrame,
                    spark: SparkSession): org.apache.spark.sql.DataFrame = {
    import spark.implicits._
    val edges = walk.as[(Int, Int, Double)]
    val vecs = x.as[(Int, Array[Double])]
    edges.joinWith(vecs, edges("dst") === vecs("id"))
      .map { case ((src, _, wgt), (_, vec)) =>
        val out = new Array[Double](vec.length)
        var i = 0
        while (i < vec.length) { out(i) = wgt * vec(i); i += 1 }
        (src, out)
      }
      .groupByKey(_._1)
      .reduceGroups { (a, b) =>
        val v = a._2
        var i = 0
        while (i < v.length) { v(i) += b._2(i); i += 1 }
        a
      }
      .map { case (id, (_, vec)) => (id, vec) }
      .toDF("id", "vec")
  }
}
