package repro.core

import repro.linalg.{DenseMatrix, RandSvd}
import scala.util.Random

/** Embedding triple: forward/backward node embeddings (n × k/2 each) and
  * attribute embeddings (d × k/2).
  */
final case class Embeddings(xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix) {
  def k: Int = xf.cols * 2
}

/** Algorithms 3–4 — joint factorization of F', B' via greedy SVD seeding
  * followed by cyclic coordinate descent with dynamically maintained
  * residuals Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'. The inits and the block
  * kernels of the X- and Y-phases live here; every backend's sweep loop is
  * [[ParallelPane.psvdccd]] (single thread at nb = 1) or Spark's per-block
  * sweep.
  */
object SvdCcd extends Serializable {

  /** Full solver state between phases (what GreedyInit returns). */
  final case class State(
      xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix,
      sf: DenseMatrix, sb: DenseMatrix,
  )

  /** Algorithm 3 — GreedyInit.
    *
    * RandSVD(F', k/2) gives U Σ Vᵀ; seed Xf = UΣ, Y = V. Because V from
    * (near-)exact SVD is unitary, Xb ≈ Xb·Yᵀ·Y ≈ B'·Y is a good backward
    * seed, which is the key trick that slashes CCD iterations.
    */
  def greedyInit(f: DenseMatrix, b: DenseMatrix, k: Int, svdIters: Int, seed: Long = 42L): State = {
    require(k >= 2 && k % 2 == 0, s"space budget k must be even and >= 2, got $k")
    val (xf, y) = scaledSvd(f, k / 2, svdIters, seed)
    withResiduals(xf, b * y, y, f, b)
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
    withResiduals(xf, xb, y, f, b)
  }

  private def withResiduals(xf: DenseMatrix, xb: DenseMatrix, y: DenseMatrix,
                            f: DenseMatrix, b: DenseMatrix): State = {
    val st = State(xf, xb, y, DenseMatrix.zeros(f.rows, f.cols), DenseMatrix.zeros(b.rows, b.cols))
    residualRows(st, f, b, 0, f.rows)
    st
  }

  /** Fills Sf = Xf·Yᵀ − F' and Sb = Xb·Yᵀ − B' on node rows [rowFrom,
    * rowUntil) from the state's X and Y, one [[RowKernels.residualRow]]
    * per row. Safe to run concurrently for disjoint row ranges.
    */
  def residualRows(st: State, f: DenseMatrix, b: DenseMatrix, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.y.cols
    val d = st.y.rows
    val kern = new RowKernels(st.y)
    var i = rowFrom
    while (i < rowUntil) {
      kern.residualRow(st.xf.data, i * half, f.data, i * d, st.sf.data, i * d)
      kern.residualRow(st.xb.data, i * half, b.data, i * d, st.sb.data, i * d)
      i += 1
    }
  }

  /** X-phase (Lines 3–9 of Algorithm 4) over node rows [rowFrom, rowUntil):
    * one [[RowKernels.nodeRow]] per row, in place on the state's row-major
    * arrays. Safe to run concurrently for disjoint row ranges, and each
    * row's result is bit-identical however the rows are split.
    */
  def nodeSweep(st: State, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.xf.cols
    val d = st.y.rows
    val kern = new RowKernels(st.y)
    var i = rowFrom
    while (i < rowUntil) {
      kern.nodeRow(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d)
      i += 1
    }
  }

  /** The node-row kernels for a fixed Y (k/2 columns, d rows): Yᵀ (l-major,
    * k/2 × d) and H = YᵀY (k/2 × k/2), built once, plus O(k) scratch. Not
    * thread-safe: each thread or Spark partition builds its own, and every
    * instance built from the same Y gives bit-identical rows.
    */
  final class RowKernels(y: DenseMatrix) {
    private val half = y.cols
    private val d = y.rows
    private val yt = y.transpose.data
    private val h = y.tMul(y).data
    private val gf = new Array[Double](half)
    private val gb = new Array[Double](half)
    private val dxf = new Array[Double](half)
    private val dxb = new Array[Double](half)

    /** The X-phase update of one node (Alg 4 Lines 4–9) by Gramian replay
      * (DESIGN.md §2). With the X rows at `xOff` and the residual rows at
      * `sOff`:
      *  1. g = S[i]·Y for Sf and Sb, one unit-stride pass over Yᵀ per four
      *     coordinates, eight independent sums;
      *  2. for each l in order, μ = g[l] / H[l,l] (Eq 16), X[i,l] −= μ and
      *     g −= μ·H[:,l], which is S[i]·Y after the step of Eq 18/19;
      *  3. one patch S[i] −= ΔX[i]·Yᵀ ([[rowPatch]]).
      */
    def nodeRow(xf: Array[Double], xb: Array[Double], xOff: Int,
                sf: Array[Double], sb: Array[Double], sOff: Int): Unit = {
      var l = 0
      while (l + 4 <= half) {
        val o0 = l * d
        val o1 = o0 + d
        val o2 = o1 + d
        val o3 = o2 + d
        var f0, f1, f2, f3, b0, b1, b2, b3 = 0.0
        var j = 0
        while (j < d) {
          val sfj = sf(sOff + j)
          val sbj = sb(sOff + j)
          val y0 = yt(o0 + j)
          val y1 = yt(o1 + j)
          val y2 = yt(o2 + j)
          val y3 = yt(o3 + j)
          f0 += sfj * y0; f1 += sfj * y1; f2 += sfj * y2; f3 += sfj * y3
          b0 += sbj * y0; b1 += sbj * y1; b2 += sbj * y2; b3 += sbj * y3
          j += 1
        }
        gf(l) = f0; gf(l + 1) = f1; gf(l + 2) = f2; gf(l + 3) = f3
        gb(l) = b0; gb(l + 1) = b1; gb(l + 2) = b2; gb(l + 3) = b3
        l += 4
      }
      while (l < half) {
        val o0 = l * d
        var f0, b0 = 0.0
        var j = 0
        while (j < d) { f0 += sf(sOff + j) * yt(o0 + j); b0 += sb(sOff + j) * yt(o0 + j); j += 1 }
        gf(l) = f0
        gb(l) = b0
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
          dxf(l) = muF
          dxb(l) = muB
          var l2 = l + 1
          while (l2 < half) {
            val hv = h(hOff + l2)
            gf(l2) -= muF * hv
            gb(l2) -= muB * hv
            l2 += 1
          }
        } else {
          dxf(l) = 0.0
          dxb(l) = 0.0
        }
        l += 1
      }
      rowPatch(dxf, 0, half, yt, d, sf, sOff)
      rowPatch(dxb, 0, half, yt, d, sb, sOff)
    }

    /** Initial residual row S = X[i]·Yᵀ − F'[i] for the X row at `xOff` and
      * the d entries of F' at `fOff`, written at `sOff`: S = −F'[i], then
      * patched with the coefficients −X[i] ([[rowPatch]]).
      */
    def residualRow(x: Array[Double], xOff: Int, f: Array[Double], fOff: Int,
                    s: Array[Double], sOff: Int): Unit = {
      var j = 0
      while (j < d) { s(sOff + j) = -f(fOff + j); j += 1 }
      var l = 0
      while (l < half) { dxf(l) = -x(xOff + l); l += 1 }
      rowPatch(dxf, 0, half, yt, d, s, sOff)
    }
  }

  /** The one residual patch: s[sOff + c] −= Σ_l coef[cOff + l]·m[l·w + c]
    * for c < w and l < half, where m is k/2 × w in l-major order. Four
    * coordinates per pass over the row, so each entry of s is loaded and
    * stored once per four rows of m. The X-phase calls it with ΔX[i] and
    * Yᵀ, the Y-phase with X[i] and ΔYᵀ, the initial residual with −X[i]
    * and Yᵀ.
    */
  def rowPatch(coef: Array[Double], cOff: Int, half: Int,
               m: Array[Double], w: Int,
               s: Array[Double], sOff: Int): Unit = {
    var l = 0
    while (l + 4 <= half) {
      val c0 = coef(cOff + l)
      val c1 = coef(cOff + l + 1)
      val c2 = coef(cOff + l + 2)
      val c3 = coef(cOff + l + 3)
      val o0 = l * w
      val o1 = o0 + w
      val o2 = o1 + w
      val o3 = o2 + w
      var c = 0
      while (c < w) {
        s(sOff + c) -= c0 * m(o0 + c) + c1 * m(o1 + c) + c2 * m(o2 + c) + c3 * m(o3 + c)
        c += 1
      }
      l += 4
    }
    while (l < half) {
      val c0 = coef(cOff + l)
      val o0 = l * w
      var c = 0
      while (c < w) { s(sOff + c) -= c0 * m(o0 + c); c += 1 }
      l += 1
    }
  }

  /** Y-phase (Lines 10–14 of Algorithm 4) for attributes [attrFrom, attrUntil),
    * by Gramian replay (DESIGN.md §2). Three row-major passes:
    *  1. accumulate Gf = Xfᵀ·Sf[:,range], Gb = Xbᵀ·Sb[:,range], Hf = XfᵀXf,
    *     Hb = XbᵀXb ([[attrGramRows]]);
    *  2. replay the sequential coordinate updates on them ([[attrReplay]]);
    *  3. patch Sf −= Xf·ΔYᵀ, Sb −= Xb·ΔYᵀ on the range ([[patchRows]]).
    * Mutates in place; scratch is O(k·w + k²) for w = attrUntil − attrFrom.
    *
    * Safe to run concurrently for disjoint attribute ranges, and each
    * column's result is bit-identical however the range is split: with Xf,
    * Xb fixed, the update of Y[rj,·] and of column rj of Sf/Sb reads only
    * Xf, Xb and that column.
    */
  def attrSweep(st: State, attrFrom: Int, attrUntil: Int): Unit = {
    val half = st.y.cols
    val n = st.xf.rows
    val d = st.y.rows
    val w = attrUntil - attrFrom
    val acc = new Array[Double](attrGramSize(half, w))
    attrGramRows(st.xf.data, st.xb.data, st.sf.data, st.sb.data, attrFrom, d, n, half, w, acc)
    patchRows(st, attrReplay(st.y, acc, attrFrom, w), attrFrom, w)
  }

  /** The Y-phase residual move on every node row: Sf −= Xf·ΔYᵀ and
    * Sb −= Xb·ΔYᵀ on columns [from, from + w), ΔYᵀ being k/2 × w, l-major
    * ([[attrReplay]]'s result), one [[rowPatch]] per row.
    */
  def patchRows(st: State, deltaT: Array[Double], from: Int, w: Int): Unit = {
    val half = st.y.cols
    val d = st.y.rows
    var i = 0
    while (i < st.xf.rows) {
      rowPatch(st.xf.data, i * half, half, deltaT, w, st.sf.data, i * d + from)
      rowPatch(st.xb.data, i * half, half, deltaT, w, st.sb.data, i * d + from)
      i += 1
    }
  }

  /** Length of the Y-phase accumulator for a w-column range: Gf then Gb
    * (k/2 × w each, l-major: G[l, c] at l·w + c), then Hf then Hb
    * (k/2 × k/2 each, row-major).
    */
  def attrGramSize(half: Int, w: Int): Int = 2 * half * w + 2 * half * half

  /** Adds `rows` consecutive node rows to the Y-phase accumulator: X rows
    * at r·k/2, the w residual entries of row r at sOff + r·sStride. Four
    * node rows per pass over G, so each G entry is loaded and stored once
    * per four rows.
    */
  def attrGramRows(xf: Array[Double], xb: Array[Double],
                   sf: Array[Double], sb: Array[Double], sOff: Int, sStride: Int,
                   rows: Int, half: Int, w: Int, acc: Array[Double]): Unit = {
    val gSize = half * w
    val hfBase = 2 * gSize
    val hbBase = 2 * gSize + half * half
    var r = 0
    while (r + 4 <= rows) {
      val x0 = r * half
      val x1 = x0 + half
      val x2 = x1 + half
      val x3 = x2 + half
      val s0 = sOff + r * sStride
      val s1 = s0 + sStride
      val s2 = s1 + sStride
      val s3 = s2 + sStride
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l); val f1 = xf(x1 + l); val f2 = xf(x2 + l); val f3 = xf(x3 + l)
        val b0 = xb(x0 + l); val b1 = xb(x1 + l); val b2 = xb(x2 + l); val b3 = xb(x3 + l)
        val gfOff = l * w
        val gbOff = gSize + l * w
        var c = 0
        while (c < w) {
          acc(gfOff + c) += f0 * sf(s0 + c) + f1 * sf(s1 + c) + f2 * sf(s2 + c) + f3 * sf(s3 + c)
          acc(gbOff + c) += b0 * sb(s0 + c) + b1 * sb(s1 + c) + b2 * sb(s2 + c) + b3 * sb(s3 + c)
          c += 1
        }
        val hfOff = hfBase + l * half
        val hbOff = hbBase + l * half
        var l2 = 0
        while (l2 < half) {
          acc(hfOff + l2) += f0 * xf(x0 + l2) + f1 * xf(x1 + l2) + f2 * xf(x2 + l2) + f3 * xf(x3 + l2)
          acc(hbOff + l2) += b0 * xb(x0 + l2) + b1 * xb(x1 + l2) + b2 * xb(x2 + l2) + b3 * xb(x3 + l2)
          l2 += 1
        }
        l += 1
      }
      r += 4
    }
    while (r < rows) {
      val x0 = r * half
      val s0 = sOff + r * sStride
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l)
        val b0 = xb(x0 + l)
        val gfOff = l * w
        val gbOff = gSize + l * w
        var c = 0
        while (c < w) {
          acc(gfOff + c) += f0 * sf(s0 + c)
          acc(gbOff + c) += b0 * sb(s0 + c)
          c += 1
        }
        val hfOff = hfBase + l * half
        val hbOff = hbBase + l * half
        var l2 = 0
        while (l2 < half) {
          acc(hfOff + l2) += f0 * xf(x0 + l2)
          acc(hbOff + l2) += b0 * xb(x0 + l2)
          l2 += 1
        }
        l += 1
      }
      r += 1
    }
  }

  /** Exact replay of the sequential Y-phase on attributes [from, from + w)
    * from a filled accumulator (layout of [[attrGramSize]]): for each rj,
    * then each l, μ = (Gf[l,rj] + Gb[l,rj]) / (Hf[l,l] + Hb[l,l]) (Eq 20),
    * Y[rj,l] −= μ, and G[·,rj] −= μ·H[·,l] carries the residual move of
    * column rj. Mutates `y` and the G part of `acc`; returns ΔYᵀ (k/2 × w,
    * l-major, the layout [[rowPatch]] takes) with Y_new = Y_old − ΔY.
    */
  def attrReplay(y: DenseMatrix, acc: Array[Double], from: Int, w: Int): Array[Double] = {
    val half = y.cols
    val gSize = half * w
    val hfOff = 2 * gSize
    val hbOff = 2 * gSize + half * half
    val deltaT = new Array[Double](half * w)
    var c = 0
    while (c < w) {
      val rj = from + c
      var l = 0
      while (l < half) {
        val denom = acc(hfOff + l * half + l) + acc(hbOff + l * half + l)
        if (denom > 1e-300) {
          val mu = (acc(l * w + c) + acc(gSize + l * w + c)) / denom
          y(rj, l) = y(rj, l) - mu
          deltaT(l * w + c) = mu
          var l2 = 0
          while (l2 < half) {
            acc(l2 * w + c) -= mu * acc(hfOff + l2 * half + l)
            acc(gSize + l2 * w + c) -= mu * acc(hbOff + l2 * half + l)
            l2 += 1
          }
        }
        l += 1
      }
      c += 1
    }
    deltaT
  }

  /** Objective (4): ‖F' − Xf·Yᵀ‖²_F + ‖B' − Xb·Yᵀ‖²_F. */
  def objective(f: DenseMatrix, b: DenseMatrix, e: Embeddings): Double = {
    val rf = e.xf.mulT(e.y) - f
    val rb = e.xb.mulT(e.y) - b
    val a = rf.frobenius
    val c = rb.frobenius
    a * a + c * c
  }
}
