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
  * residuals Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'.
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
    val half = k / 2
    val (u, sig, v) = RandSvd(f, half, svdIters, seed = seed)
    val xf = DenseMatrix.zeros(f.rows, half)
    var i = 0
    while (i < f.rows) {
      var j = 0
      while (j < half) { xf(i, j) = u(i, j) * sig(j); j += 1 }
      i += 1
    }
    val y = v
    val xb = b * y
    val sf = xf.mulT(y) - f
    val sb = xb.mulT(y) - b
    State(xf, xb, y, sf, sb)
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
    State(xf, xb, y, xf.mulT(y) - f, xb.mulT(y) - b)
  }

  /** X-phase (Lines 3–9 of Algorithm 4) over node rows [rowFrom, rowUntil):
    * one [[nodeRowUpdate]] per row, in place on the state's row-major
    * arrays. Safe to run concurrently for disjoint row ranges.
    */
  def nodeSweep(st: State, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.xf.cols
    val d = st.y.rows
    // Column norms ||Y[:,l]||² — fixed during the node phase.
    val yColNorm = yColNorms(st.y)
    var i = rowFrom
    while (i < rowUntil) {
      nodeRowUpdate(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d, st.y, yColNorm)
      i += 1
    }
  }

  /** Y-phase (Lines 10–14 of Algorithm 4) for attributes [attrFrom, attrUntil),
    * by Gramian replay (DESIGN.md §2). Three row-major passes:
    *  1. accumulate Gf = Xfᵀ·Sf[:,range], Gb = Xbᵀ·Sb[:,range], Hf = XfᵀXf,
    *     Hb = XbᵀXb ([[attrGramRow]]);
    *  2. replay the sequential coordinate updates on them ([[attrReplay]]);
    *  3. patch Sf −= Xf·ΔYᵀ, Sb −= Xb·ΔYᵀ on the range ([[attrRowPatch]]).
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
    var i = 0
    while (i < n) {
      attrGramRow(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d + attrFrom, half, w, acc)
      i += 1
    }
    val delta = attrReplay(st.y, acc, attrFrom, w)
    i = 0
    while (i < n) {
      attrRowPatch(st.xf.data, st.xb.data, i * half, st.sf.data, st.sb.data, i * d + attrFrom, delta, half, w)
      i += 1
    }
  }

  /** Length of the Y-phase accumulator for a w-column range: Gf then Gb
    * (k/2 × w each, l-major: G[l, c] at l·w + c), then Hf then Hb
    * (k/2 × k/2 each, row-major).
    */
  def attrGramSize(half: Int, w: Int): Int = 2 * half * w + 2 * half * half

  /** Adds one node row to the Y-phase accumulator: X rows at `xOff`, the w
    * residual entries of the range at `sOff`.
    */
  def attrGramRow(xf: Array[Double], xb: Array[Double], xOff: Int,
                  sf: Array[Double], sb: Array[Double], sOff: Int,
                  half: Int, w: Int, acc: Array[Double]): Unit = {
    val gSize = half * w
    val hSize = half * half
    var l = 0
    while (l < half) {
      val xfl = xf(xOff + l)
      val xbl = xb(xOff + l)
      val gfOff = l * w
      val gbOff = gSize + l * w
      var c = 0
      while (c < w) {
        acc(gfOff + c) += xfl * sf(sOff + c)
        acc(gbOff + c) += xbl * sb(sOff + c)
        c += 1
      }
      val hfOff = 2 * gSize + l * half
      val hbOff = 2 * gSize + hSize + l * half
      var l2 = 0
      while (l2 < half) {
        acc(hfOff + l2) += xfl * xf(xOff + l2)
        acc(hbOff + l2) += xbl * xb(xOff + l2)
        l2 += 1
      }
      l += 1
    }
  }

  /** Exact replay of the sequential Y-phase on attributes [from, from + w)
    * from a filled accumulator (layout of [[attrGramSize]]): for each rj,
    * then each l, μ = (Gf[l,rj] + Gb[l,rj]) / (Hf[l,l] + Hb[l,l]) (Eq 20),
    * Y[rj,l] −= μ, and G[·,rj] −= μ·H[·,l] carries the residual move of
    * column rj. Mutates `y` and the G part of `acc`; returns ΔY (w × k/2,
    * row-major) with Y_new = Y_old − ΔY.
    */
  def attrReplay(y: DenseMatrix, acc: Array[Double], from: Int, w: Int): Array[Double] = {
    val half = y.cols
    val gSize = half * w
    val hfOff = 2 * gSize
    val hbOff = 2 * gSize + half * half
    val delta = new Array[Double](w * half)
    var c = 0
    while (c < w) {
      val rj = from + c
      var l = 0
      while (l < half) {
        val denom = acc(hfOff + l * half + l) + acc(hbOff + l * half + l)
        if (denom > 1e-300) {
          val mu = (acc(l * w + c) + acc(gSize + l * w + c)) / denom
          y(rj, l) = y(rj, l) - mu
          delta(c * half + l) = mu
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
    delta
  }

  /** Residual patch of one node row for a Y move (Eq 20 summed over l):
    * S[i, c] −= Σ_l X[i,l]·ΔY[c,l] for the w entries at `sOff`.
    */
  def attrRowPatch(xf: Array[Double], xb: Array[Double], xOff: Int,
                   sf: Array[Double], sb: Array[Double], sOff: Int,
                   delta: Array[Double], half: Int, w: Int): Unit = {
    var c = 0
    while (c < w) {
      var accF = 0.0
      var accB = 0.0
      var l = 0
      while (l < half) {
        val dv = delta(c * half + l)
        accF += xf(xOff + l) * dv
        accB += xb(xOff + l) * dv
        l += 1
      }
      sf(sOff + c) -= accF
      sb(sOff + c) -= accB
      c += 1
    }
  }

  /** ‖Y[:,l]‖² for every coordinate l — the denominators of Eq (16). */
  def yColNorms(y: DenseMatrix): Array[Double] = {
    val half = y.cols
    val out = new Array[Double](half)
    var l = 0
    while (l < half) {
      var s = 0.0
      var j = 0
      while (j < y.rows) { val v = y(j, l); s += v * v; j += 1 }
      out(l) = s
      l += 1
    }
    out
  }

  /** The per-node X-phase update (Alg 4 Lines 4–9) on one node's rows:
    * for each coordinate l, step Xf[vi,l], Xb[vi,l] along the exact
    * coordinate minimizer and patch the residual rows in O(d). The X rows
    * start at `xOff`, the residual rows at `sOff`.
    */
  def nodeRowUpdate(xf: Array[Double], xb: Array[Double], xOff: Int,
                    sf: Array[Double], sb: Array[Double], sOff: Int,
                    y: DenseMatrix, yColNorm: Array[Double]): Unit = {
    val half = y.cols
    val d = y.rows
    var l = 0
    while (l < half) {
      if (yColNorm(l) > 1e-300) {
        // μ_f(vi,l) = Sf[vi]·Y[:,l] / ||Y[:,l]||², μ_b likewise (Eq 16)
        var dotF = 0.0
        var dotB = 0.0
        var j = 0
        while (j < d) {
          val yv = y(j, l)
          dotF += sf(sOff + j) * yv
          dotB += sb(sOff + j) * yv
          j += 1
        }
        val muF = dotF / yColNorm(l)
        val muB = dotB / yColNorm(l)
        xf(xOff + l) -= muF
        xb(xOff + l) -= muB
        // Sf[vi] -= μ_f · Y[:,l]ᵀ (Eq 18), Sb[vi] -= μ_b · Y[:,l]ᵀ (Eq 19)
        j = 0
        while (j < d) {
          val yv = y(j, l)
          sf(sOff + j) -= muF * yv
          sb(sOff + j) -= muB * yv
          j += 1
        }
      }
      l += 1
    }
  }

  /** [[nodeRowUpdate]] on standalone row arrays — the unit of work shipped
    * to Spark executors by SparkPane.
    */
  def nodeRowUpdate(xfRow: Array[Double], xbRow: Array[Double],
                    sfRow: Array[Double], sbRow: Array[Double],
                    y: DenseMatrix, yColNorm: Array[Double]): Unit =
    nodeRowUpdate(xfRow, xbRow, 0, sfRow, sbRow, 0, y, yColNorm)

  /** Algorithm 4 — SVDCCD: greedy init + `iters` CCD refinement sweeps. */
  def run(f: DenseMatrix, b: DenseMatrix, k: Int, iters: Int,
          init: State = null, seed: Long = 42L): Embeddings = {
    val st = if (init != null) init else greedyInit(f, b, k, iters, seed)
    var it = 0
    while (it < iters) {
      nodeSweep(st, 0, f.rows)
      attrSweep(st, 0, f.cols)
      it += 1
    }
    Embeddings(st.xf, st.xb, st.y)
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
