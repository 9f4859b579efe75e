package repro.spark

import org.apache.spark.{HashPartitioner, Partition, TaskContext}
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
  *    per node block. A partition allocates F'[Vi] and P_b[Vi] once and
  *    stitches each chunk into them as the shuffle reader yields it, then
  *    row-normalizes B'[Vi] in place, with the same kernels as
  *    [[Apmi.run]], so F' and B' equal the single-thread APMI bit for bit.
  *  - **SMGreedyInit** (Alg 7): [[ParallelPane.splitSvd]] on each block's
  *    F'[Vi], [[ParallelPane.mergeSvd]] on the driver, and
  *    [[ParallelPane.initBlock]] per block, as in the pool. The init
  *    consumes the [[AffBlock]]s: Sf and Sb are written over the block's own
  *    F' and B' (Xb = B'·Y is taken first).
  *  - **PSVDCCD** (Alg 8): one job per sweep over the one cached copy of the
  *    CCD blocks. Each block is patched in place for the previous sweep's
  *    ΔYᵀ ([[SvdCcd.patchRows]]), swept by [[SvdCcd.nodeSweep]] and reduced to
  *    its Y-phase accumulator Gf = XfᵀSf, Gb = XbᵀSb, Hf = XfᵀXf,
  *    Hb = XbᵀXb ([[SvdCcd.attrGramRows]]). The driver sums the
  *    accumulators in block order and replays the coordinate updates
  *    ([[SvdCcd.attrReplay]], DESIGN.md §2); the ΔYᵀ it returns is the
  *    patch of the next sweep.
  *
  * So every stage holds one copy of the n·d state: F' and B', then Sf and
  * Sb in the same arrays. In-place steps are guarded instead of copied: a
  * consumed [[AffBlock]] and a [[CcdBlock]] that is not at rest after the
  * sweeps the driver expects (a retried task, a block recomputed from
  * lineage) fail with an `IllegalStateException` naming the block and the
  * sweep, never run a step twice.
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
    * and B'. SMGreedyInit takes over `f` and `b` for the residuals and marks
    * the block consumed.
    */
  final case class AffBlock(from: Int, f: DenseMatrix, b: DenseMatrix) {
    private var consumed = false

    private[spark] def requireUnconsumed(bi: Int): Unit =
      if (consumed) throw new IllegalStateException(
        s"PAPMI block $bi was consumed by an earlier SMGreedyInit: its F' and B' storage holds residuals")

    private[spark] def consume(bi: Int): Unit = { requireUnconsumed(bi); consumed = true }
  }

  /** CCD state of one node block, its rows of Xf, Xb, Sf and Sb (Sf, Sb in
    * the storage of its [[AffBlock]]), swept in place. `sweeps` counts the
    * completed sweeps; `busy` marks one under way, so a task that failed
    * part-way leaves the block unusable.
    */
  private[spark] final class CcdBlock(val xf: DenseMatrix, val xb: DenseMatrix,
                                      val sf: DenseMatrix, val sb: DenseMatrix) extends Serializable {
    private var sweeps = 0
    private var busy = false

    /** Throws unless the block is at rest after exactly `it` sweeps. */
    def requireAt(bi: Int, it: Int): Unit =
      if (busy || sweeps != it) throw new IllegalStateException(
        s"CCD block $bi: sweep $it found the block " +
          (if (busy) s"part-way through sweep $sweeps" else s"after $sweeps sweeps"))

    /** Runs sweep number `it` in place on the block with Y = `y`. */
    def sweep(bi: Int, it: Int, y: DenseMatrix)(step: SvdCcd.State => Unit): Unit = {
      requireAt(bi, it)
      busy = true
      step(SvdCcd.State(xf, xb, y, sf, sb))
      sweeps += 1
      busy = false
    }
  }

  /** The one cached RDD of [[CcdBlock]]s (block i in partition i), seen
    * after `sweeps` sweeps. Every sweep returns a new view of the same
    * cached blocks; unpersisting any view unpersists them.
    */
  private[spark] final class CcdBlocks(blocks: RDD[(Int, CcdBlock)], val sweeps: Int)
      extends RDD[(Int, CcdBlock)](blocks) {
    override protected def getPartitions: Array[Partition] = firstParent[(Int, CcdBlock)].partitions
    override def compute(split: Partition, context: TaskContext): Iterator[(Int, CcdBlock)] =
      firstParent[(Int, CcdBlock)].iterator(split, context)
    override def unpersist(blocking: Boolean = false): this.type = {
      firstParent[(Int, CcdBlock)].unpersist(blocking)
      this
    }
    def next: CcdBlocks = new CcdBlocks(firstParent[(Int, CcdBlock)], sweeps + 1)
  }

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

    // Partition bi receives exactly block bi's chunks; each is stitched as
    // it arrives, into disjoint columns, so no chunk outlives its copy.
    chunks.partitionBy(new HashPartitioner(nodeBlocks.length)).mapPartitionsWithIndex({ (bi, parts) =>
      val (from, until) = nodeBlocks(bi)
      val rows = until - from
      val f = DenseMatrix.zeros(rows, d)
      val b = DenseMatrix.zeros(rows, d)
      parts.foreach { case (_, (ci, fc, pc)) =>
        Apmi.stitch(fc, f, colBlocks(ci)._1)
        Apmi.stitch(pc, b, colBlocks(ci)._1)
      }
      // B' needs full rows: row-normalize then SPMI (Alg 2 Lines 7-8).
      Apmi.spmiRows(b, 0, rows)
      Iterator.single((bi, AffBlock(from, f, b)))
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
    var (state, y) = try {
      aff.count()
      sc.setJobDescription("sm-greedy-init")
      smGreedyInit(aff, cfg.k, cfg.t, cfg.seed)
    } finally aff.unpersist()

    val xs = try {
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
      val sweeps = state.sweeps
      state.map { case (bi, blk) => blk.requireAt(bi, sweeps); (bi, (blk.xf, blk.xb)) }.collect()
    } finally state.unpersist()
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
    * second job, which consumes `aff`'s blocks (their F' and B' storage
    * becomes Sf and Sb). Returns the materialized CCD blocks (block i in
    * partition i, before sweep 0) and Y.
    */
  private[spark] def smGreedyInit(aff: RDD[(Int, AffBlock)], k: Int, svdIters: Int,
                                  seed: Long): (CcdBlocks, DenseMatrix) = {
    val sc = aff.sparkContext
    val half = k / 2
    val split = aff.mapPartitions(_.map { case (bi, a) =>
      a.requireUnconsumed(bi)
      (bi, (a, ParallelPane.splitSvd(a.f, bi, half, svdIters, seed)))
    }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK)
    try {
      val vts = split.mapValues { case (_, (_, vt)) => vt }.collect().sortBy(_._1).map(_._2)
      val (w, y) = ParallelPane.mergeSvd(vts.toSeq, half, svdIters, seed)
      val bcW = sc.broadcast(w)
      val bcY = sc.broadcast(y)
      val blocks = new CcdBlocks(split.mapPartitions(_.map { case (bi, (a, (ui, _))) =>
        a.consume(bi)
        val rows = a.f.rows
        // Sf = Xf·Yᵀ − F' over F' row by row (each entry read before it is
        // written), the same for Sb over B'.
        val st = SvdCcd.State(DenseMatrix.zeros(rows, half), DenseMatrix.zeros(rows, half), bcY.value, a.f, a.b)
        ParallelPane.initBlock(st, a.f, a.b, 0, rows, ui, bcW.value, bi)
        (bi, new CcdBlock(st.xf, st.xb, st.sf, st.sb))
      }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK), 0)
      // Materialize before unpersisting the parent.
      try blocks.count() catch { case e: Throwable => blocks.unpersist(); throw e }
      (blocks, y)
    } finally split.unpersist()
  }

  /** One PSVDCCD sweep (Alg 8) in one job: per block, in place, apply the
    * previous sweep's patch S −= X·ΔYᵀ (none when `deltaT` is empty), run the
    * X-phase and fill the Y-phase accumulator; then, on the driver, sum the
    * accumulators in block-id order and replay the Y-phase. Returns the
    * blocks' view after this sweep (`state` no longer matches them: a
    * second sweep on it fails), the new Y and the ΔYᵀ the next sweep
    * applies.
    */
  private[spark] def sweep(state: CcdBlocks, y: DenseMatrix,
                           deltaT: Array[Double]): (CcdBlocks, DenseMatrix, Array[Double]) = {
    val sc = state.sparkContext
    val half = y.cols
    val d = y.rows
    val bcY = sc.broadcast(y)
    val bcDeltaT = sc.broadcast(deltaT)
    val it = state.sweeps
    val accs = state.map { case (bi, blk) =>
      val acc = new Array[Double](SvdCcd.attrGramSize(half, d))
      blk.sweep(bi, it, bcY.value) { st =>
        val rows = st.xf.rows
        if (bcDeltaT.value.nonEmpty) SvdCcd.patchRows(st, bcDeltaT.value, 0, d)
        SvdCcd.nodeSweep(st, 0, rows)
        SvdCcd.attrGramRows(st.xf.data, st.xb.data, st.sf.data, st.sb.data, 0, d, rows, half, d, acc)
      }
      (bi, acc)
    }.collect().sortBy(_._1).map(_._2)

    // Exact driver replay of the sequential Y phase (Alg 4 Lines 10-14),
    // the same kernel SvdCcd.attrSweep runs on a column range.
    val agg = accs.head.clone()
    accs.iterator.drop(1).foreach { a =>
      var i = 0
      while (i < agg.length) { agg(i) += a(i); i += 1 }
    }
    val newY = y.copy
    val newDeltaT = SvdCcd.attrReplay(newY, agg, 0, d)
    (state.next, newY, newDeltaT)
  }

  /** Collect distributed affinity blocks back to dense matrices — used by
    * tests to compare against the single-thread APMI.
    */
  def collectAffinity(aff: RDD[(Int, AffBlock)], n: Int, d: Int): (DenseMatrix, DenseMatrix) = {
    val f = DenseMatrix.zeros(n, d)
    val b = DenseMatrix.zeros(n, d)
    aff.collect().foreach { case (bi, a) =>
      a.requireUnconsumed(bi)
      System.arraycopy(a.f.data, 0, f.data, a.from * d, a.f.data.length)
      System.arraycopy(a.b.data, 0, b.data, a.from * d, a.b.data.length)
    }
    (f, b)
  }
}
