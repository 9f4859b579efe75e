package repro.spark

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel

import repro.core.{Apmi, Embeddings, PaneConfig, ParallelPane, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.DenseMatrix

/** Distributed-dataflow PANE (the paper's Section 4, with Spark partitions
  * playing the role of threads). Partition i holds node block i of
  * [[ParallelPane.ranges]]`(n, nb)` as contiguous row-major [[DenseMatrix]]es,
  * keyed by block id under a `HashPartitioner(nb)`, which maps a small
  * non-negative Int to itself; every later stage keeps that placement. So
  * each stage runs one task per block, on the same blocks and with the same
  * block kernels as the thread pool ([[ParallelPane]]).
  *
  *  - **PAPMI** (Alg 6): attribute-column blocks are the unit of
  *    parallelism. The sparse walk matrix P and its transpose are
  *    broadcast (the dataflow analog of the paper's shared memory); each
  *    task runs [[Apmi.propagate]] for its column slice, finalizes F'
  *    in-block (column normalization is block-local) and emits one chunk
  *    per node block. A partition stitches its chunks into F'[Vi] and
  *    P_b[Vi], then row-normalizes B'[Vi] in place, with the same kernels
  *    as [[Apmi.run]], so F' and B' equal the single-thread APMI bit for
  *    bit.
  *  - **SMGreedyInit** (Alg 7): [[ParallelPane.splitSvd]] on each block's
  *    F'[Vi], [[ParallelPane.mergeSvd]] on the driver, and
  *    [[ParallelPane.initBlock]] per block, as in the pool.
  *  - **PSVDCCD** (Alg 8): one job per sweep. Each block is copied (cached
  *    parents stay immutable for lineage), patched for the previous sweep's
  *    ΔYᵀ ([[SvdCcd.patchRows]]), swept by [[SvdCcd.nodeSweep]] and reduced to
  *    its Y-phase accumulator Gf = XfᵀSf, Gb = XbᵀSb, Hf = XfᵀXf,
  *    Hb = XbᵀXb ([[SvdCcd.attrGramRows]]). The driver sums the
  *    accumulators in block order and replays the coordinate updates
  *    ([[SvdCcd.attrReplay]], DESIGN.md §2); the ΔYᵀ it returns is the
  *    patch of the next sweep.
  *
  * Each stage runs under a job description (`papmi`, `sm-greedy-init`,
  * `ccd sweep i`), cleared when `embed` returns.
  *
  * The X-phase of every block equals the pool's bit for bit; the result
  * matches the thread-pool ParallelPane up to the summation order of the
  * Y-phase accumulators (tested to 1e-12 of its max-abs), and it is the same
  * for every run with the same nb (tested bit for bit).
  */
object SparkPane extends Serializable {

  /** Node block i of `ranges(n, nb)`: its first node and its rows of F'
    * and B'.
    */
  final case class AffBlock(from: Int, f: DenseMatrix, b: DenseMatrix)

  /** CCD state of one node block (its rows of Xf, Xb, Sf, Sb; `st.y` is the
    * Y of its last X-phase) and the Y-phase accumulator of its last sweep.
    */
  private[spark] type CcdBlocks = RDD[(Int, (SvdCcd.State, Array[Double]))]

  /** Distributed PAPMI: one [[AffBlock]] per node block of `ranges(n, nb)`,
    * block i in partition i.
    */
  def papmi(g: AttributedGraph, alpha: Double, t: Int, nb: Int,
            spark: SparkSession): RDD[(Int, AffBlock)] = {
    val n = g.n
    val d = g.d
    val sc = spark.sparkContext
    val bcP = sc.broadcast(g.walkMatrix)
    val bcPT = sc.broadcast(Apmi.transposeCsr(g.walkMatrix))
    val bcRr = sc.broadcast(g.attrRowNorm)
    val bcRc = sc.broadcast(g.attrColNorm)
    val colBlocks = ParallelPane.ranges(d, math.max(nb, math.min(d, sc.defaultParallelism * 2)))
    val nodeBlocks = ParallelPane.ranges(n, nb)

    val chunks = sc.parallelize(colBlocks.zipWithIndex, colBlocks.length).flatMap {
      case ((from, until), ci) =>
        // F' is finalized in-block: its normalizer is a column sum.
        val fP = Apmi.spmiCols(Apmi.propagate(bcP.value, bcRr.value, alpha, t, from, until))
        val pb = Apmi.propagate(bcPT.value, bcRc.value, alpha, t, from, until)
        nodeBlocks.iterator.zipWithIndex.map { case ((r0, r1), bi) =>
          (bi, (ci, fP.slice(r0, r1), pb.slice(r0, r1)))
        }
    }

    chunks.groupByKey(new HashPartitioner(nodeBlocks.length)).mapPartitions(_.map {
      case (bi, parts) =>
        val (from, until) = nodeBlocks(bi)
        val rows = until - from
        val f = DenseMatrix.zeros(rows, d)
        val b = DenseMatrix.zeros(rows, d)
        parts.foreach { case (ci, fc, pc) =>
          Apmi.stitch(fc, f, colBlocks(ci)._1)
          Apmi.stitch(pc, b, colBlocks(ci)._1)
        }
        // B' needs full rows: row-normalize then SPMI (Alg 2 Lines 7-8).
        Apmi.spmiRows(b, 0, rows)
        (bi, AffBlock(from, f, b))
    }, preservesPartitioning = true)
  }

  /** Full distributed PANE. `nb` is the number of node/SVD blocks
    * (defaults to the cluster parallelism). A k that does not fit the graph
    * and nb fails before any job starts ([[PaneConfig.requireK]]).
    */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(),
            nbOpt: Option[Int] = None)(implicit spark: SparkSession): Embeddings = {
    val sc = spark.sparkContext
    val nb = nbOpt.getOrElse(sc.defaultParallelism)
    cfg.requireK(g.n, g.d, nb)
    try embedStages(g, cfg, nb)
    finally sc.setJobDescription(null)
  }

  private def embedStages(g: AttributedGraph, cfg: PaneConfig, nb: Int)
                         (implicit spark: SparkSession): Embeddings = {
    val sc = spark.sparkContext
    val half = cfg.k / 2

    sc.setJobDescription("papmi")
    val aff = papmi(g, cfg.alpha, cfg.t, nb, spark).persist(StorageLevel.MEMORY_AND_DISK)
    aff.count()

    sc.setJobDescription("sm-greedy-init")
    var (state, y) = smGreedyInit(aff, cfg.k, cfg.t, cfg.seed)
    aff.unpersist()

    var deltaT = Array.emptyDoubleArray
    var it = 0
    while (it < cfg.refineIters) {
      sc.setJobDescription(s"ccd sweep $it")
      val (next, nextY, nextDeltaT) = sweep(state, y, deltaT)
      state = next
      y = nextY
      deltaT = nextDeltaT
      it += 1
    }

    val xs = state.mapValues { case (st, _) => (st.xf, st.xb) }.collect()
    state.unpersist()
    val xf = DenseMatrix.zeros(g.n, half)
    val xb = DenseMatrix.zeros(g.n, half)
    val nodeBlocks = ParallelPane.ranges(g.n, nb)
    xs.foreach { case (bi, (xfB, xbB)) =>
      System.arraycopy(xfB.data, 0, xf.data, nodeBlocks(bi)._1 * half, xfB.data.length)
      System.arraycopy(xbB.data, 0, xb.data, nodeBlocks(bi)._1 * half, xbB.data.length)
    }
    Embeddings(xf, xb, y)
  }

  /** SMGreedyInit (Alg 7) on the blocks of `aff`: the per-block split SVDs
    * in one job, the merge on the driver, then the per-block init in a
    * second job. Returns the materialized CCD blocks (block i in partition
    * i, empty accumulators) and Y.
    */
  private[spark] def smGreedyInit(aff: RDD[(Int, AffBlock)], k: Int, svdIters: Int,
                                  seed: Long): (CcdBlocks, DenseMatrix) = {
    val sc = aff.sparkContext
    val half = k / 2
    val split = aff.mapPartitions(_.map { case (bi, a) =>
      (bi, (a, ParallelPane.splitSvd(a.f, bi, half, svdIters, seed)))
    }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK)
    val vts = split.mapValues { case (_, (_, vt)) => vt }.collect().sortBy(_._1).map(_._2)
    val (w, y) = ParallelPane.mergeSvd(vts.toSeq, half, svdIters, seed)
    val bcW = sc.broadcast(w)
    val bcY = sc.broadcast(y)
    val state = split.mapPartitions(_.map { case (bi, (a, (ui, _))) =>
      val rows = a.f.rows
      val d = a.f.cols
      val st = SvdCcd.State(DenseMatrix.zeros(rows, half), DenseMatrix.zeros(rows, half), bcY.value,
        DenseMatrix.zeros(rows, d), DenseMatrix.zeros(rows, d))
      ParallelPane.initBlock(st, a.f, a.b, 0, rows, ui, bcW.value, bi)
      (bi, (st, Array.emptyDoubleArray))
    }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK)
    state.count() // materialize before unpersisting the parent
    split.unpersist()
    (state, y)
  }

  /** One PSVDCCD sweep (Alg 8) in one job: per block, copy, apply the
    * previous sweep's patch S −= X·ΔYᵀ (none when `deltaT` is empty), run the
    * X-phase and fill the Y-phase accumulator; then, on the driver, sum the
    * accumulators in block-id order and replay the Y-phase. Returns the
    * materialized new blocks (the old ones are unpersisted), the new Y and
    * the ΔYᵀ the next sweep applies.
    */
  private[spark] def sweep(state: CcdBlocks, y: DenseMatrix,
                           deltaT: Array[Double]): (CcdBlocks, DenseMatrix, Array[Double]) = {
    val sc = state.sparkContext
    val half = y.cols
    val d = y.rows
    val bcY = sc.broadcast(y)
    val bcDeltaT = sc.broadcast(deltaT)
    val next = state.mapValues { case (prev, _) =>
      val st = SvdCcd.State(prev.xf.copy, prev.xb.copy, bcY.value, prev.sf.copy, prev.sb.copy)
      val rows = st.xf.rows
      if (bcDeltaT.value.nonEmpty) SvdCcd.patchRows(st, bcDeltaT.value, 0, d)
      SvdCcd.nodeSweep(st, 0, rows)
      val acc = new Array[Double](SvdCcd.attrGramSize(half, d))
      SvdCcd.attrGramRows(st.xf.data, st.xb.data, st.sf.data, st.sb.data, 0, d, rows, half, d, acc)
      (st, acc)
    }.persist(StorageLevel.MEMORY_AND_DISK)
    val accs = next.mapValues(_._2).collect().sortBy(_._1).map(_._2)
    state.unpersist()

    // Exact driver replay of the sequential Y phase (Alg 4 Lines 10-14),
    // the same kernel SvdCcd.attrSweep runs on a column range.
    val agg = accs.head.clone()
    accs.iterator.drop(1).foreach { a =>
      var i = 0
      while (i < agg.length) { agg(i) += a(i); i += 1 }
    }
    val newY = y.copy
    val newDeltaT = SvdCcd.attrReplay(newY, agg, 0, d)
    (next, newY, newDeltaT)
  }

  /** Collect distributed affinity blocks back to dense matrices — used by
    * tests to compare against the single-thread APMI.
    */
  def collectAffinity(aff: RDD[(Int, AffBlock)], n: Int, d: Int): (DenseMatrix, DenseMatrix) = {
    val f = DenseMatrix.zeros(n, d)
    val b = DenseMatrix.zeros(n, d)
    aff.values.collect().foreach { a =>
      System.arraycopy(a.f.data, 0, f.data, a.from * d, a.f.data.length)
      System.arraycopy(a.b.data, 0, b.data, a.from * d, a.b.data.length)
    }
    (f, b)
  }
}
