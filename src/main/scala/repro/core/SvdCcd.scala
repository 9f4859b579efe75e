package repro.core

import repro.linalg.{DenseMatrix, RandSvd, RowAxpy}
import scala.util.Random

/** Embedding triple: forward/backward node embeddings (n × k/2 each) and
  * attribute embeddings (d × k/2).
  */
final case class Embeddings(xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix) {
  def k: Int = xf.cols * 2
}

/** Algorithms 3–4 — joint factorization of F', B' via greedy SVD seeding
  * followed by cyclic coordinate descent. The sweeps keep no residuals:
  * both phases form the gradients S·Y and XᵀS of Sf = Xf·Yᵀ − F',
  * Sb = Xb·Yᵀ − B' from F', B', X and Y through the Gramians (DESIGN.md §2),
  * so the state is X, Y and read-only F', B'. The inits and the block
  * kernels of the X- and Y-phases live here; every backend's sweep loop is
  * [[ParallelPane.psvdccd]] (single thread at nb = 1) or Spark's per-block
  * sweep.
  */
object SvdCcd extends Serializable {

  /** Full solver state between phases (what GreedyInit returns): X and Y,
    * updated in place by the sweeps, and F', B', which they only read.
    */
  final case class State(
      xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix,
      f: DenseMatrix, b: DenseMatrix,
  ) {
    /** Sf = Xf·Yᵀ − F', formed on demand (an n×d allocation). */
    def sf: DenseMatrix = xf * y.transpose - f

    /** Sb = Xb·Yᵀ − B', formed on demand (an n×d allocation). */
    def sb: DenseMatrix = xb * y.transpose - b
  }

  /** Algorithm 3 — GreedyInit.
    *
    * RandSVD(F', k/2) gives U Σ Vᵀ; seed Xf = UΣ, Y = V. Because V from
    * (near-)exact SVD is unitary, Xb ≈ Xb·Yᵀ·Y ≈ B'·Y is a good backward
    * seed, which is the key trick that slashes CCD iterations.
    */
  def greedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int, seed: Long = 42L): State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val (xf, y) = scaledSvd(f, k / 2, svdIters, seed)
    State(xf, b * y, y, f, b)
  }

  /** RandSVD(m, k/2) = U·Σ·Vᵀ returned as (U·Σ, V): GreedyInit's Xf and Y,
    * SMGreedyInit's split (Ui, Vi) and merge (W, Y).
    */
  def scaledSvd(m: DenseMatrix, half: Int, svdIters: Int, seed: Long): (DenseMatrix, DenseMatrix) = {
    val (u, sig, v) = RandSvd(m, half, svdIters, seed = seed)
    val us = DenseMatrix.zeros(m.rows, half)
    var i = 0
    while (i < m.rows) {
      var j = 0
      while (j < half) { us(i, j) = u(i, j) * sig(j); j += 1 }
      i += 1
    }
    (us, v)
  }

  /** Random initialization — the PANE-R baseline of §5.7 (GreedyInit
    * effectiveness study). Scaled to the data's magnitude so CCD has a
    * fighting chance.
    */
  def randomInit(f: DenseMatrix, b: DenseMatrix, k: Int, seed: Long = 7L): State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val half = k / 2
    val rnd = new Random(seed)
    val scale = f.frobenius / math.sqrt(f.rows.toDouble * f.cols * half)
    def mk(r: Int, c: Int) = {
      val m = DenseMatrix.zeros(r, c)
      var i = 0
      while (i < m.data.length) { m.data(i) = rnd.nextGaussian() * math.sqrt(scale); i += 1 }
      m
    }
    val xf = mk(f.rows, half)
    val xb = mk(f.rows, half)
    val y = mk(f.cols, half)
    State(xf, xb, y, f, b)
  }

  /** X-phase (Lines 3–9 of Algorithm 4) over node rows [rowFrom, rowUntil):
    * one [[RowKernels.nodeRow]] per row, in place on the state's row-major
    * X arrays. Safe to run concurrently for disjoint row ranges, and each
    * row's result is bit-identical however the rows are split.
    */
  def nodeSweep(st: State, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.xf.cols
    val d = st.y.rows
    val kern = new RowKernels(st.y)
    var i = rowFrom
    while (i < rowUntil) {
      kern.nodeRow(st.xf.data, st.xb.data, i * half, st.f.data, st.b.data, i * d)
      i += 1
    }
  }

  /** The node-row kernel for a fixed Y (k/2 columns, d rows): Y's d rows
    * as row arrays and H = YᵀY (k/2 × k/2), built once, plus a [[RowAxpy]]
    * of width d and O(k) more. Each array in an inner loop is read at the
    * same index (the form C2 vectorises, DESIGN.md §2). Not thread-safe:
    * each thread or Spark partition builds its own, and every instance built
    * from the same Y gives bit-identical rows.
    */
  final class RowKernels(y: DenseMatrix) {
    private val half = y.cols
    private val d = y.rows
    private val yRows = Array.tabulate(d)(y.row)
    private val h = y.tMul(y).data
    private val acc = new RowAxpy(d)
    private val gf = new Array[Double](half)
    private val gb = new Array[Double](half)
    private val xhf = new Array[Double](half)
    private val xhb = new Array[Double](half)

    /** The X-phase update of one node (Alg 4 Lines 4–9) by Gramian replay
      * (DESIGN.md §2), with the X rows at `xOff` and the rows F'[i], B'[i]
      * at `fOff`:
      *  1. p = F'[i]·Y for F' and B' as Σ_j F'[i,j]·Y[j] over the non-zero
      *     entries of the row, in ascending j, four rows of Y per pass
      *     ([[RowAxpy]]). Each p[l] gets the flat dot product's terms in its
      *     order, less the zero terms: a zero term adds ±0 to a sum that
      *     starts at +0.0 and, under round-to-nearest, never becomes −0.0,
      *     so dropping it is exact for finite Y;
      *  2. g = X[i]·H − p, which is S[i]·Y, with X[i]·H summed over the rows
      *     of H in order;
      *  3. for each l in order, μ = g[l] / H[l,l] (Eq 16), X[i,l] −= μ and
      *     g −= μ·H[:,l], which is S[i]·Y after the step of Eq 18/19.
      * Only X[i] is written; F' and B' are read.
      */
    def nodeRow(xf: Array[Double], xb: Array[Double], xOff: Int,
                f: Array[Double], b: Array[Double], fOff: Int): Unit = {
      java.util.Arrays.fill(gf, 0.0)
      java.util.Arrays.fill(gb, 0.0)
      acc.addNonZeros(f, fOff, d, yRows, gf, half)
      acc.addNonZeros(b, fOff, d, yRows, gb, half)
      java.util.Arrays.fill(xhf, 0.0)
      java.util.Arrays.fill(xhb, 0.0)
      var l = 0
      var l2 = 0
      while (l2 < half) {
        val hOff = l2 * half
        val xfv = xf(xOff + l2)
        l = 0
        while (l < half) { xhf(l) += xfv * h(hOff + l); l += 1 }
        val xbv = xb(xOff + l2)
        l = 0
        while (l < half) { xhb(l) += xbv * h(hOff + l); l += 1 }
        l2 += 1
      }
      l = 0
      while (l < half) {
        gf(l) = xhf(l) - gf(l)
        gb(l) = xhb(l) - gb(l)
        l += 1
      }
      l = 0
      while (l < half) {
        val hOff = l * half
        val hll = h(hOff + l)
        if (hll > 1e-300) {
          val muF = gf(l) / hll
          val muB = gb(l) / hll
          xf(xOff + l) -= muF
          xb(xOff + l) -= muB
          l2 = l + 1
          while (l2 < half) {
            val hv = h(hOff + l2)
            gf(l2) -= muF * hv
            gb(l2) -= muB * hv
            l2 += 1
          }
        }
        l += 1
      }
    }
  }

  /** An l-major k/2 × w block at `off` (entry (l, c) at off + l·w + c) as
    * k/2 row arrays.
    */
  private[core] def lRows(a: Array[Double], off: Int, half: Int, w: Int): Array[Array[Double]] =
    Array.tabulate(half)(l => java.util.Arrays.copyOfRange(a, off + l * w, off + (l + 1) * w))

  /** Y-phase (Lines 10–14 of Algorithm 4) for attributes [attrFrom, attrUntil),
    * by Gramian replay (DESIGN.md §2): H = XᵀX over all node rows
    * ([[gramian]]), then the Y-phase given it (the overload below). Mutates
    * Y in place.
    */
  def attrSweep(st: State, attrFrom: Int, attrUntil: Int): Unit =
    attrSweep(st, attrFrom, attrUntil, gramian(st))

  /** The Y-phase for attributes [attrFrom, attrUntil) given `h`, Hf then Hb
    * of the state's X (as [[gramian]] fills them). Two steps:
    *  1. accumulate G = XfᵀF'[:,range] and XbᵀB'[:,range] ([[attrGramRows]]);
    *  2. form G = H·Yᵀ − XᵀF' and replay the sequential coordinate updates
    *     on it ([[attrUpdate]]).
    * Scratch is O(k·w) for w = attrUntil − attrFrom.
    *
    * Safe to run concurrently for disjoint attribute ranges, and each
    * column's result is bit-identical however the range is split: with Xf,
    * Xb fixed, the update of Y[rj,·] reads only X, F', B' and Y[rj,·].
    */
  def attrSweep(st: State, attrFrom: Int, attrUntil: Int, h: Array[Double]): Unit = {
    val half = st.y.cols
    val w = attrUntil - attrFrom
    val g = new Array[Double](2 * half * w)
    attrGramRows(st.xf.data, st.xb.data, st.f.data, st.b.data, attrFrom, st.y.rows, st.xf.rows, half, w, g)
    attrUpdate(st.y, g, h, attrFrom, w)
  }

  /** H = XᵀX over all of the state's node rows: Hf = XfᵀXf then
    * Hb = XbᵀXb, k/2 × k/2 each, row-major. It is [[attrGramRows]] with X in
    * place of F' and B' (w = k/2), whose G layout at that width is exactly
    * this one.
    */
  def gramian(st: State): Array[Double] = {
    val half = st.y.cols
    val h = new Array[Double](2 * half * half)
    attrGramRows(st.xf.data, st.xb.data, st.xf.data, st.xb.data, 0, half, st.xf.rows, half, half, h)
    h
  }

  /** Adds `rows` consecutive node rows to G = XfᵀF' then XbᵀB' on w columns
    * (k/2 × w each, l-major: G[l, c] at l·w + c), X rows at r·k/2, the w
    * entries of row r of F' (B') at fOff + r·fStride. The G rows are held as
    * row arrays while they accumulate and each group of four F' and B' rows
    * is staged in scratch rows, so the loops read every array at the same
    * index; four node rows per pass over G, so each G entry is loaded and
    * stored once per four rows. Every inner loop updates one output array
    * (Gf[l], then Gb[l]): C2 runs a one-output loop over twice as fast as
    * the same terms updating two outputs per iteration (DESIGN.md §2). G is
    * written back to `g` at the end.
    */
  def attrGramRows(xf: Array[Double], xb: Array[Double],
                   f: Array[Double], b: Array[Double], fOff: Int, fStride: Int,
                   rows: Int, half: Int, w: Int, g: Array[Double]): Unit = {
    val gSize = half * w
    val gf = lRows(g, 0, half, w)
    val gb = lRows(g, gSize, half, w)
    val f0r, f1r, f2r, f3r, b0r, b1r, b2r, b3r = new Array[Double](w)
    var r = 0
    while (r + 4 <= rows) {
      val x0 = r * half
      val x1 = x0 + half
      val x2 = x1 + half
      val x3 = x2 + half
      val s0 = fOff + r * fStride
      System.arraycopy(f, s0, f0r, 0, w); System.arraycopy(b, s0, b0r, 0, w)
      System.arraycopy(f, s0 + fStride, f1r, 0, w); System.arraycopy(b, s0 + fStride, b1r, 0, w)
      System.arraycopy(f, s0 + 2 * fStride, f2r, 0, w); System.arraycopy(b, s0 + 2 * fStride, b2r, 0, w)
      System.arraycopy(f, s0 + 3 * fStride, f3r, 0, w); System.arraycopy(b, s0 + 3 * fStride, b3r, 0, w)
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l); val f1 = xf(x1 + l); val f2 = xf(x2 + l); val f3 = xf(x3 + l)
        val b0 = xb(x0 + l); val b1 = xb(x1 + l); val b2 = xb(x2 + l); val b3 = xb(x3 + l)
        val gfl = gf(l)
        var c = 0
        while (c < w) { gfl(c) += f0 * f0r(c) + f1 * f1r(c) + f2 * f2r(c) + f3 * f3r(c); c += 1 }
        val gbl = gb(l)
        c = 0
        while (c < w) { gbl(c) += b0 * b0r(c) + b1 * b1r(c) + b2 * b2r(c) + b3 * b3r(c); c += 1 }
        l += 1
      }
      r += 4
    }
    while (r < rows) {
      val x0 = r * half
      val s0 = fOff + r * fStride
      System.arraycopy(f, s0, f0r, 0, w)
      System.arraycopy(b, s0, b0r, 0, w)
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l)
        val b0 = xb(x0 + l)
        val gfl = gf(l)
        var c = 0
        while (c < w) { gfl(c) += f0 * f0r(c); c += 1 }
        val gbl = gb(l)
        c = 0
        while (c < w) { gbl(c) += b0 * b0r(c); c += 1 }
        l += 1
      }
      r += 1
    }
    var l = 0
    while (l < half) {
      System.arraycopy(gf(l), 0, g, l * w, w)
      System.arraycopy(gb(l), 0, g, gSize + l * w, w)
      l += 1
    }
  }

  /** The Y-phase update of attributes [from, from + w) from G = XfᵀF' then
    * XbᵀB' on those columns (layout of [[attrGramRows]]) and H (layout of
    * [[gramian]]): forms G = H·Yᵀ − XᵀF' in place, which is XᵀS on those
    * columns ([[attrGradient]]), then replays the coordinate updates on it
    * ([[attrReplay]]). Mutates `y` and `g`.
    */
  def attrUpdate(y: DenseMatrix, g: Array[Double], h: Array[Double], from: Int, w: Int): Unit = {
    attrGradient(y, g, h, from, w)
    attrReplay(y, g, h, from, w)
  }

  /** G[l, c] = Σ_l2 H[l, l2]·Y[from + c, l2] − (XᵀF')[l, c] for Gf over Hf
    * and Gb over Hb, l2 in order: the Y-phase gradient XᵀS from the Gramian,
    * Y and the accumulated XᵀF'.
    */
  private def attrGradient(y: DenseMatrix, g: Array[Double], h: Array[Double], from: Int, w: Int): Unit = {
    val half = y.cols
    val gSize = half * w
    val hbOff = half * half
    val yd = y.data
    var l = 0
    while (l < half) {
      var c = 0
      while (c < w) {
        val yOff = (from + c) * half
        var sf, sb = 0.0
        var l2 = 0
        while (l2 < half) {
          val yv = yd(yOff + l2)
          sf += h(l * half + l2) * yv
          sb += h(hbOff + l * half + l2) * yv
          l2 += 1
        }
        g(l * w + c) = sf - g(l * w + c)
        g(gSize + l * w + c) = sb - g(gSize + l * w + c)
        c += 1
      }
      l += 1
    }
  }

  /** Exact replay of the sequential Y-phase on attributes [from, from + w)
    * from G = XᵀS (layout of [[attrGramRows]]) and H (layout of
    * [[gramian]]): for each rj, then each l,
    * μ = (Gf[l,rj] + Gb[l,rj]) / (Hf[l,l] + Hb[l,l]) (Eq 20), Y[rj,l] −= μ,
    * and G[·,rj] −= μ·H[·,l] carries the residual move of column rj.
    * Mutates `y` and `g`.
    */
  def attrReplay(y: DenseMatrix, g: Array[Double], h: Array[Double], from: Int, w: Int): Unit = {
    val half = y.cols
    val gSize = half * w
    val hbOff = half * half
    var c = 0
    while (c < w) {
      val rj = from + c
      var l = 0
      while (l < half) {
        val denom = h(l * half + l) + h(hbOff + l * half + l)
        if (denom > 1e-300) {
          val mu = (g(l * w + c) + g(gSize + l * w + c)) / denom
          y(rj, l) = y(rj, l) - mu
          var l2 = 0
          while (l2 < half) {
            g(l2 * w + c) -= mu * h(l2 * half + l)
            g(gSize + l2 * w + c) -= mu * h(hbOff + l2 * half + l)
            l2 += 1
          }
        }
        l += 1
      }
      c += 1
    }
  }

  /** Objective (4): ‖F' − Xf·Yᵀ‖²_F + ‖B' − Xb·Yᵀ‖²_F. */
  def objective(f: DenseMatrix, b: DenseMatrix, e: Embeddings): Double = {
    val yT = e.y.transpose
    val rf = e.xf * yT - f
    val rb = e.xb * yT - b
    val a = rf.frobenius
    val c = rb.frobenius
    a * a + c * c
  }
}
