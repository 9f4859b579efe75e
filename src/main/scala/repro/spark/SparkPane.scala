package repro.spark

import java.io.{ObjectInputStream, ObjectOutputStream}

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
  *    per node block, its rows of the result ([[RowBlock]], no copy). A
  *    partition allocates F'[Vi] and P_b[Vi] once and stitches each chunk
  *    into them as the shuffle reader yields it, then row-normalizes B'[Vi]
  *    in place, with the same kernels as [[Apmi.run]], so F' and B' equal
  *    the single-thread APMI bit for bit.
  *  - **SMGreedyInit** (Alg 7): [[ParallelPane.splitSvd]] on each block's
  *    F'[Vi], [[ParallelPane.mergeSvd]] on the driver, and
  *    [[ParallelPane.initBlock]] per block, as in the pool. Each
  *    [[CcdBlock]] keeps its [[AffBlock]]'s F' and B' as they are.
  *  - **PSVDCCD** (Alg 8): one job per sweep over the one cached copy of the
  *    CCD blocks. Each block is swept by [[SvdCcd.nodeSweep]] in place and
  *    reduced to two arrays, G = XfᵀF', XbᵀB' ([[SvdCcd.attrGramRows]])
  *    and H = XᵀX (the same kernel on X, [[SvdCcd.gramian]]). The driver
  *    sums each array over the blocks in block order, forms
  *    G = H·Yᵀ − XᵀF' and replays the coordinate updates
  *    ([[SvdCcd.attrUpdate]], DESIGN.md §2).
  *
  * So every stage holds one copy of the n·d state, F' and B', which the
  * sweeps only read; per block, X is k/2 columns wide, G is O(k·d) and H
  * O(k²). X is updated in place, so a [[CcdBlock]] that is not at rest
  * after the sweeps the driver expects (a retried task, a block recomputed
  * from lineage) fails with an `IllegalStateException` naming the block and
  * the sweep, never runs a step twice.
  *
  * Each stage runs under a job description (`papmi`, `sm-greedy-init`,
  * `ccd sweep i`), cleared when `embed` returns.
  *
  * The X-phase of every block equals the pool's bit for bit; the result
  * matches the thread-pool ParallelPane up to the summation order of the
  * Y-phase sums (tested to 1e-12 of its max-abs), and it is the same
  * for every run with the same nb (tested bit for bit).
  */
object SparkPane extends Serializable {

  /** Rows [from, until) of a column block's F' or P_b as one shuffle record.
    * Java serialization writes the rows straight from the block's array and
    * reads them back as a matrix of just those rows, so the map side copies
    * nothing: a `rowSlice` per chunk allocated 2 n·d more per embed, which on
    * pubmed-lite forced a collection inside it. A serializer that skips
    * `writeObject` ships the whole block, and [[rows]] is still those rows.
    */
  private[spark] final class RowBlock(private var m: DenseMatrix, private var from: Int,
                                      private var until: Int) extends Serializable {
    require(0 <= from && from <= until && until <= m.rows,
      s"row range [$from, $until) outside [0, ${m.rows}) of a ${m.rows} x ${m.cols} matrix")

    def rows: DenseMatrix = if (from == 0 && until == m.rows) m else m.rowSlice(from, until)

    private def writeObject(out: ObjectOutputStream): Unit = {
      out.writeInt(until - from)
      out.writeInt(m.cols)
      var i = from * m.cols
      while (i < until * m.cols) { out.writeDouble(m.data(i)); i += 1 }
    }

    private def readObject(in: ObjectInputStream): Unit = {
      m = DenseMatrix.zeros(in.readInt(), in.readInt())
      from = 0
      until = m.rows
      var i = 0
      while (i < m.data.length) { m.data(i) = in.readDouble(); i += 1 }
    }
  }

  /** Node block i of `ranges(n, nb)`: its rows of F' and B'. */
  final case class AffBlock(f: DenseMatrix, b: DenseMatrix)

  /** CCD state of one node block: its rows of Xf and Xb, swept in place,
    * and of F' and B' (its [[AffBlock]]'s), read only. `sweeps` counts the
    * completed sweeps; `busy` marks one under way, so a task that failed
    * part-way leaves the block unusable.
    */
  private[spark] final class CcdBlock(val xf: DenseMatrix, val xb: DenseMatrix,
                                      val f: DenseMatrix, val b: DenseMatrix) extends Serializable {
    private var sweeps = 0
    private var busy = false

    /** Throws unless the block is at rest after exactly `it` sweeps. */
    def requireAt(bi: Int, it: Int): Unit =
      if (busy || sweeps != it) throw new IllegalStateException(
        s"CCD block $bi: sweep $it found the block " +
          (if (busy) s"part-way through sweep $sweeps" else s"after $sweeps sweeps"))

    /** Runs sweep number `it` in place on the block with Y = `y` and
      * returns what `step` returns.
      */
    def sweep[A](bi: Int, it: Int, y: DenseMatrix)(step: SvdCcd.State => A): A = {
      requireAt(bi, it)
      busy = true
      val out = step(SvdCcd.State(xf, xb, y, f, b))
      sweeps += 1
      busy = false
      out
    }
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
    val bcPT = sc.broadcast(g.walkMatrix.transpose)
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
          (bi, (ci, new RowBlock(fP, r0, r1), new RowBlock(pb, r0, r1)))
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
        Apmi.stitch(fc.rows, f, colBlocks(ci)._1)
        Apmi.stitch(pc.rows, b, colBlocks(ci)._1)
      }
      // B' needs full rows: row-normalize then SPMI (Alg 2 Lines 7-8).
      Apmi.spmiRows(b, 0, rows)
      Iterator.single((bi, AffBlock(f, b)))
    }, preservesPartitioning = true)
  }

  /** Full distributed PANE. `nb` is the number of node/SVD blocks; the
    * result depends on it, so the caller always gives it. A k that does not
    * fit the graph and nb fails before any job starts
    * ([[PaneConfig.requireK]]).
    */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(),
            nb: Some[Int])(implicit spark: SparkSession): Embeddings = {
    cfg.requireK(g.n, g.d, nb.value)
    try embedStages(g, cfg, nb.value)
    finally spark.sparkContext.setJobDescription(null)
  }

  private def embedStages(g: AttributedGraph, cfg: PaneConfig, nb: Int)
                         (implicit spark: SparkSession): Embeddings = {
    val sc = spark.sparkContext

    sc.setJobDescription("papmi")
    val aff = papmi(g, cfg.alpha, cfg.t, nb, spark).persist(StorageLevel.MEMORY_AND_DISK)
    val (blocks, y0) = try {
      aff.count()
      sc.setJobDescription("sm-greedy-init")
      smGreedyInit(aff, cfg.k, cfg.t, cfg.seed)
    } finally aff.unpersist()

    val sweeps = cfg.refineIters
    var y = y0
    val (xfs, xbs) = try {
      var it = 0
      while (it < sweeps) {
        sc.setJobDescription(s"ccd sweep $it")
        y = sweep(blocks, it, y)
        it += 1
      }
      blocks.map { case (bi, blk) => blk.requireAt(bi, sweeps); (bi, (blk.xf, blk.xb)) }
        .collect().sortBy(_._1).map(_._2).unzip
    } finally blocks.unpersist()
    // Block i holds rows ranges(n, nb)(i), so the blocks in id order tile X.
    Embeddings(DenseMatrix.vstack(xfs.toSeq), DenseMatrix.vstack(xbs.toSeq), y)
  }

  /** SMGreedyInit (Alg 7) on the blocks of `aff`: the per-block split SVDs
    * in one job, the merge on the driver, then the per-block init in a
    * second job, whose CCD blocks share `aff`'s F' and B'. Returns the
    * materialized CCD blocks (block i in partition i, before sweep 0) and Y.
    */
  private[spark] def smGreedyInit(aff: RDD[(Int, AffBlock)], k: Int, svdIters: Int,
                                  seed: Long): (RDD[(Int, CcdBlock)], DenseMatrix) = {
    val sc = aff.sparkContext
    val half = k / 2
    val split = aff.mapPartitions(_.map { case (bi, a) =>
      (bi, (a, ParallelPane.splitSvd(a.f, bi, half, svdIters, seed)))
    }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK)
    try {
      val vts = split.mapValues { case (_, (_, vt)) => vt }.collect().sortBy(_._1).map(_._2)
      val (w, y) = ParallelPane.mergeSvd(vts.toSeq, half, svdIters, seed)
      val bcW = sc.broadcast(w)
      val bcY = sc.broadcast(y)
      val blocks = split.mapPartitions(_.map { case (bi, (a, (ui, _))) =>
        val rows = a.f.rows
        val st = SvdCcd.State(DenseMatrix.zeros(rows, half), DenseMatrix.zeros(rows, half), bcY.value, a.f, a.b)
        ParallelPane.initBlock(st, 0, rows, ui, bcW.value, bi)
        (bi, new CcdBlock(st.xf, st.xb, a.f, a.b))
      }, preservesPartitioning = true).persist(StorageLevel.MEMORY_AND_DISK)
      // Materialize before unpersisting the parent.
      try blocks.count() catch { case e: Throwable => blocks.unpersist(); throw e }
      (blocks, y)
    } finally split.unpersist()
  }

  /** PSVDCCD sweep number `it` (Alg 8) in one job: per block, in place,
    * run the X-phase and form its G and H; then, on the driver, sum each
    * over the blocks in block-id order and replay the Y-phase. Every block
    * must be at rest after `it` sweeps, so repeating a sweep fails.
    * Returns the new Y.
    */
  private[spark] def sweep(blocks: RDD[(Int, CcdBlock)], it: Int, y: DenseMatrix): DenseMatrix = {
    val sc = blocks.sparkContext
    val half = y.cols
    val d = y.rows
    val bcY = sc.broadcast(y)
    val parts = blocks.map { case (bi, blk) =>
      (bi, blk.sweep(bi, it, bcY.value) { st =>
        val rows = st.xf.rows
        SvdCcd.nodeSweep(st, 0, rows)
        val g = new Array[Double](2 * half * d)
        SvdCcd.attrGramRows(st.xf.data, st.xb.data, st.f.data, st.b.data, 0, d, rows, half, d, g)
        (g, SvdCcd.gramian(st))
      })
    }.collect().sortBy(_._1).map(_._2)

    // Exact driver replay of the sequential Y phase (Alg 4 Lines 10-14),
    // the same kernel SvdCcd.attrSweep runs on a column range.
    def sum(arrays: Array[Array[Double]]): Array[Double] = {
      val agg = arrays.head.clone()
      arrays.iterator.drop(1).foreach { a =>
        var i = 0
        while (i < agg.length) { agg(i) += a(i); i += 1 }
      }
      agg
    }
    val newY = y.copy
    SvdCcd.attrUpdate(newY, sum(parts.map(_._1)), sum(parts.map(_._2)), 0, d)
    newY
  }
}
