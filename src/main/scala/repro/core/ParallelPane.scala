package repro.core

import java.util.concurrent.{Callable, Executors}
import scala.jdk.CollectionConverters._

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, SparseMatrix}

/** Algorithms 5–8 — parallel PANE on a local thread pool, faithful to the
  * paper's block structure:
  *
  *  - PAPMI (Alg 6): the affinity recurrence runs per *attribute-column*
  *    block; results concatenate to exactly the single-thread matrices
  *    (Lemma 4.1 — tested).
  *  - SMGreedyInit (Alg 7): per *node-row* block RandSVD of F'[Vi], merge
  *    of the stacked right factors, second RandSVD, then per-block
  *    initialization of Xf, Xb.
  *  - PSVDCCD (Alg 8): CCD sweeps run per node block (X phase) and per
  *    attribute block (Y phase). Both phases are exactly parallel: row
  *    updates touch disjoint rows of Xf/Xb, and with Xf, Xb fixed a
  *    Y[rj,·] update reads only X, F', B' and Y[rj,·]. H = XᵀX is formed
  *    once per sweep, by the Y-phase kernel on X, and shared by the
  *    attribute blocks.
  */
object ParallelPane {

  /** Where the block tasks of one call run: inline on the caller's thread
    * at nb = 1, else on one fixed pool of nb threads that every phase of the
    * call shares. Each phase is one [[runAll]]; the results do not depend on
    * which threads ran the tasks.
    */
  private final class Runner(val nb: Int) {
    private val pool = if (nb > 1) Some(Executors.newFixedThreadPool(nb)) else None

    /** Runs `tasks` to completion, propagating the first failure. */
    def runAll(tasks: Seq[() => Unit]): Unit = pool match {
      case None => tasks.foreach(_())
      case Some(p) =>
        val futures = p.invokeAll(tasks.map(t => new Callable[Unit] { def call(): Unit = t() }).asJava)
        futures.asScala.foreach(_.get()) // rethrows task exceptions
    }

    def shutdown(): Unit = pool.foreach(_.shutdown())
  }

  /** `body` on a [[Runner]] for `nb` blocks, shut down when it returns. */
  private def withRunner[A](nb: Int)(body: Runner => A): A = {
    val run = new Runner(nb)
    try body(run) finally run.shutdown()
  }

  /** Split [0, size) into at most `nb` near-equal contiguous ranges. */
  def ranges(size: Int, nb: Int): Seq[(Int, Int)] = {
    require(nb >= 1, s"need nb >= 1 blocks, got nb = $nb")
    val blocks = math.max(1, math.min(nb, size))
    (0 until blocks).map { i =>
      val from = (size.toLong * i / blocks).toInt
      val until = (size.toLong * (i + 1) / blocks).toInt
      (from, until)
    }.filter(r => r._2 > r._1)
  }

  /** Algorithm 6 — PAPMI: block-parallel affinity approximation. Each
    * attribute-column block runs [[Apmi.propagate]] forward (finalized to F'
    * in-block by [[Apmi.spmiCols]]) and backward over Pᵀ, returning its
    * columns of F' and P_b^{(t)}. With one block those are F' and P_b; with
    * more, each is copied once into its columns of F' and P_b
    * ([[Apmi.stitch]]). Node blocks then row-normalize B' in place
    * ([[Apmi.spmiRows]]). [[Apmi.run]] is its nb = 1 call, so every nb
    * gives the same F' and B' bit for bit (Lemma 4.1).
    */
  def papmi(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix,
            alpha: Double, t: Int, nb: Int): (DenseMatrix, DenseMatrix) =
    withRunner(nb)(papmi(p, rr, rc, alpha, t, _))

  private def papmi(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix,
                    alpha: Double, t: Int, run: Runner): (DenseMatrix, DenseMatrix) = {
    require(t >= 1, "need at least one iteration")
    val n = p.rows
    val d = rr.cols
    val pT = p.transpose
    val colBlocks = ranges(d, run.nb)
    val fs = new Array[DenseMatrix](colBlocks.length)
    val pbs = new Array[DenseMatrix](colBlocks.length)
    run.runAll(colBlocks.zipWithIndex.map { case ((from, until), ci) =>
      () => {
        fs(ci) = Apmi.spmiCols(Apmi.propagate(p, rr, alpha, t, from, until))
        pbs(ci) = Apmi.propagate(pT, rc, alpha, t, from, until)
      }
    })
    // Drops each block once copied, so a join holds at most n·d more.
    def join(blocks: Array[DenseMatrix]): DenseMatrix =
      if (blocks.length == 1) blocks(0)
      else {
        val m = DenseMatrix.zeros(n, d)
        blocks.indices.foreach { ci => Apmi.stitch(blocks(ci), m, colBlocks(ci)._1); blocks(ci) = null }
        m
      }
    val fP = join(fs)
    val bP = join(pbs)
    run.runAll(ranges(n, run.nb).map { case (from, until) => () => Apmi.spmiRows(bP, from, until) })
    (fP, bP)
  }

  /** Algorithm 7 — SMGreedyInit: split-merge parallel SVD seeding. */
  def smGreedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int,
                   nb: Int, seed: Long = 42L): SvdCcd.State =
    withRunner(nb)(smGreedyInit(f, b, k, svdIters, seed, _))

  private def smGreedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int,
                           seed: Long, run: Runner): SvdCcd.State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val n = f.rows
    val nodeBlocks = ranges(n, run.nb)
    val us = new Array[DenseMatrix](nodeBlocks.length)
    val vts = new Array[DenseMatrix](nodeBlocks.length)
    run.runAll(nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => {
        val (ui, vt) = splitSvd(f.rowSlice(from, until), bi, half, svdIters, seed)
        us(bi) = ui
        vts(bi) = vt
      }
    })
    val (w, y) = mergeSvd(vts.toSeq, half, svdIters, seed)
    val st = SvdCcd.State(DenseMatrix.zeros(n, half), DenseMatrix.zeros(n, half), y, f, b)
    run.runAll(nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => initBlock(st, from, until, us(bi), w, bi)
    })
    st
  }

  /** SMGreedyInit's split (Alg 7 Lines 2–3) on node block `bi`, the rows of
    * F'[Vi]: RandSVD(F'[Vi], k/2) = U·Σ·Vᵀ with seed `seed + bi`, returned as
    * (Ui = U·Σ, Viᵀ), Viᵀ being k/2 × d for stacking.
    */
  def splitSvd(fBlock: DenseMatrix, bi: Int, half: Int, svdIters: Int,
               seed: Long): (DenseMatrix, DenseMatrix) = {
    val (ui, v) = SvdCcd.scaledSvd(fBlock, half, svdIters, seed + bi)
    (ui, v.transpose)
  }

  /** SMGreedyInit's merge (Alg 7 Lines 4–6): RandSVD of the stacked
    * [V1ᵀ; …; V_nbᵀ] ∈ R^{(nb·k/2) × d} with seed `seed + 9999` gives Φ·Σ'·Yᵀ;
    * returns (W = Φ·Σ', Y). Block bi's rows of W are bi·k/2 until (bi+1)·k/2.
    */
  def mergeSvd(vts: Seq[DenseMatrix], half: Int, svdIters: Int,
               seed: Long): (DenseMatrix, DenseMatrix) =
    SvdCcd.scaledSvd(DenseMatrix.vstack(vts), half, svdIters, seed + 9999)

  /** SMGreedyInit's per-block init (Alg 7 Lines 7–11) of node block `bi`,
    * rows [from, until) of `st`: Xf = Ui·W[bi], Xb = B'[Vi]·Y with
    * B' = st.b and Y = st.y. The pool passes the full state and a block's
    * range; Spark passes one block's state and all of its rows. Xb is
    * formed from the rows of B' where they lie and written straight into st.xb
    * ([[DenseMatrix.mulRowsInto]]), so no copy of B'[Vi] is made.
    */
  def initBlock(st: SvdCcd.State, from: Int, until: Int,
                ui: DenseMatrix, w: DenseMatrix, bi: Int): Unit = {
    val half = st.y.cols
    val xfB = ui * w.rowSlice(bi * half, (bi + 1) * half)
    System.arraycopy(xfB.data, 0, st.xf.data, from * half, xfB.data.length)
    st.b.mulRowsInto(st.y, from, until, st.xb.data, from * half)
  }

  /** Algorithm 8 — PSVDCCD: `iters` CCD sweeps on the initialized state
    * `st`, in place, each an X-phase over the node blocks of
    * `ranges(n, nb)` then a Y-phase: H = XᵀX once ([[SvdCcd.gramian]]),
    * then the attribute blocks of `ranges(d, nb)`, which share it. Every nb
    * gives the same result bit for bit; nb = 1 is Algorithm 4's sequential
    * loop.
    */
  def psvdccd(st: SvdCcd.State, iters: Int, nb: Int): Embeddings =
    withRunner(nb)(psvdccd(st, iters, _))

  private def psvdccd(st: SvdCcd.State, iters: Int, run: Runner): Embeddings = {
    val nodeBlocks = ranges(st.xf.rows, run.nb)
    val attrBlocks = ranges(st.y.rows, run.nb)
    var it = 0
    while (it < iters) {
      run.runAll(nodeBlocks.map { case (from, until) => () => SvdCcd.nodeSweep(st, from, until) })
      val h = SvdCcd.gramian(st)
      run.runAll(attrBlocks.map { case (from, until) => () => SvdCcd.attrSweep(st, from, until, h) })
      it += 1
    }
    Embeddings(st.xf, st.xb, st.y)
  }

  /** Algorithm 5 — parallel PANE end to end, every phase on one pool. */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(), nb: Int): Embeddings = {
    cfg.requireK(g.n, g.d, nb)
    withRunner(nb) { run =>
      val (fP, bP) = papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, run)
      psvdccd(smGreedyInit(fP, bP, cfg.k, cfg.t, cfg.seed, run), cfg.refineIters, run)
    }
  }
}
