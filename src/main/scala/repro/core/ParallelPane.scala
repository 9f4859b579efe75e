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
  *    initialization of Xf, Xb, Sf, Sb.
  *  - PSVDCCD (Alg 8): CCD sweeps run per node block (X phase) and per
  *    attribute block (Y phase). Both phases are exactly parallel: row
  *    updates touch disjoint rows of Xf/Xb/Sf/Sb, and with Xf, Xb fixed a
  *    Y[rj,·] update only touches column rj of Sf/Sb.
  */
object ParallelPane {

  /** Run `tasks` on `nb` pool threads, propagating the first failure. */
  private def runAll(nb: Int, tasks: Seq[() => Unit]): Unit = {
    val pool = Executors.newFixedThreadPool(nb)
    try {
      val futures = pool.invokeAll(tasks.map(t => new Callable[Unit] { def call(): Unit = t() }).asJava)
      futures.asScala.foreach(_.get()) // rethrows task exceptions
    } finally pool.shutdown()
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
    * in-block by [[Apmi.spmiCols]]) and backward over Pᵀ, writing its
    * columns of F' and P_b^{(t)}; node blocks then row-normalize B' in place
    * ([[Apmi.spmiRows]]). [[Apmi.run]] is its nb = 1 call, so every nb
    * gives the same F' and B' bit for bit (Lemma 4.1).
    */
  def papmi(p: SparseMatrix, rr: SparseMatrix, rc: SparseMatrix,
            alpha: Double, t: Int, nb: Int): (DenseMatrix, DenseMatrix) = {
    require(t >= 1, "need at least one iteration")
    val n = p.rows
    val d = rr.cols
    val pT = Apmi.transposeCsr(p)
    // Column blocks write disjoint columns of the shared outputs.
    val fP = DenseMatrix.zeros(n, d)
    val bP = DenseMatrix.zeros(n, d)
    runAll(nb, ranges(d, nb).map { case (from, until) =>
      () => {
        Apmi.stitch(Apmi.spmiCols(Apmi.propagate(p, rr, alpha, t, from, until)), fP, from)
        Apmi.stitch(Apmi.propagate(pT, rc, alpha, t, from, until), bP, from)
      }
    })
    runAll(nb, ranges(n, nb).map { case (from, until) => () => Apmi.spmiRows(bP, from, until) })
    (fP, bP)
  }

  /** Algorithm 7 — SMGreedyInit: split-merge parallel SVD seeding. */
  def smGreedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int,
                   nb: Int, seed: Long = 42L): SvdCcd.State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val n = f.rows
    val d = f.cols
    val nodeBlocks = ranges(n, nb)
    val us = new Array[DenseMatrix](nodeBlocks.length)
    val vts = new Array[DenseMatrix](nodeBlocks.length)
    runAll(nb, nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => {
        val (ui, vt) = splitSvd(f.rowSlice(from, until), bi, half, svdIters, seed)
        us(bi) = ui
        vts(bi) = vt
      }
    })
    val (w, y) = mergeSvd(vts.toSeq, half, svdIters, seed)
    val st = SvdCcd.State(DenseMatrix.zeros(n, half), DenseMatrix.zeros(n, half), y,
      DenseMatrix.zeros(n, d), DenseMatrix.zeros(n, d))
    runAll(nb, nodeBlocks.zipWithIndex.map { case ((from, until), bi) =>
      () => initBlock(st, f, b, from, until, us(bi), w, bi)
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
    * rows [from, until) of `f`, `b` and `st`: Xf = Ui·W[bi], Xb = B'[Vi]·Y
    * with Y = st.y, then the rows' residuals Sf, Sb. The pool passes the
    * full matrices and a block's range; Spark passes one block's matrices
    * and all of their rows.
    */
  def initBlock(st: SvdCcd.State, f: DenseMatrix, b: DenseMatrix, from: Int, until: Int,
                ui: DenseMatrix, w: DenseMatrix, bi: Int): Unit = {
    val half = st.y.cols
    val xfB = ui * w.rowSlice(bi * half, (bi + 1) * half)
    val xbB = b.rowSlice(from, until) * st.y
    System.arraycopy(xfB.data, 0, st.xf.data, from * half, xfB.data.length)
    System.arraycopy(xbB.data, 0, st.xb.data, from * half, xbB.data.length)
    SvdCcd.residualRows(st, f, b, from, until)
  }

  /** Algorithm 8 — PSVDCCD: `iters` CCD sweeps on the initialized state
    * `st`, in place, each an X-phase over the node blocks of
    * `ranges(n, nb)` then a Y-phase over the attribute blocks of
    * `ranges(d, nb)`. Every nb gives the same result bit for bit; nb = 1 is
    * Algorithm 4's sequential loop.
    */
  def psvdccd(st: SvdCcd.State, iters: Int, nb: Int): Embeddings = {
    var it = 0
    while (it < iters) {
      runAll(nb, ranges(st.xf.rows, nb).map { case (from, until) =>
        () => SvdCcd.nodeSweep(st, from, until)
      })
      runAll(nb, ranges(st.y.rows, nb).map { case (from, until) =>
        () => SvdCcd.attrSweep(st, from, until)
      })
      it += 1
    }
    Embeddings(st.xf, st.xb, st.y)
  }

  /** Algorithm 5 — parallel PANE end to end. */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig(), nb: Int): Embeddings = {
    cfg.requireK(g.n, g.d, nb)
    val (fP, bP) = papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, nb)
    psvdccd(smGreedyInit(fP, bP, cfg.k, cfg.t, nb, cfg.seed), cfg.refineIters, nb)
  }
}
