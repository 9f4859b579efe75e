package repro.core

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RowAxpy, SparseMatrix}

/** Algorithm 2 — APMI: approximate forward/backward affinity matrices
  * F', B' in O(m·d·t) without sampling random walks.
  *
  * Iterates  P_f^{(ℓ)} = (1−α)·P·P_f^{(ℓ−1)} + α·P_f^{(0)}  (and the
  * transposed recurrence for P_b), then column-normalizes P_f^{(t)},
  * row-normalizes P_b^{(t)}, and applies the SPMI transform
  * F' = log(n·P̂_f + 1), B' = log(d·P̂_b + 1)  (Equation (7)).
  *
  * [[propagate]] is the one recurrence kernel and [[spmiCols]] /
  * [[spmiRows]] the one SPMI finaliser. [[run]] is PAPMI at nb = 1, and
  * Spark runs the same kernels on column blocks, so all three backends
  * give the same F' and B' bit for bit (Lemma 4.1).
  */
object Apmi {

  /** Approximate affinity matrices F' and B'. */
  final case class Result(fPrime: DenseMatrix, bPrime: DenseMatrix)

  /** t = max(1, ⌈log ε / log(1−α) − 1⌉), which guarantees
    * (1−α)^{t+1} ≤ ε as required by Lemma 3.1 (and matches the paper's
    * ε ∈ {0.001..0.25} ↔ t ∈ {9..1} at α = 0.5).
    */
  def iterations(alpha: Double, eps: Double): Int = {
    require(alpha > 0 && alpha < 1, s"alpha must be in (0,1), got $alpha")
    require(eps > 0 && eps < 1, s"eps must be in (0,1), got $eps")
    math.max(1, math.ceil(math.log(eps) / math.log(1 - alpha) - 1).toInt)
  }

  /** F' and B' of `g`: the nb = 1 call of [[ParallelPane.papmi]], one
    * column block covering all d attributes.
    */
  def run(g: AttributedGraph, alpha: Double, t: Int): Result = {
    val (f, b) = ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, alpha, t, 1)
    Result(f, b)
  }

  /** Columns [from, until) of P^{(t)} for the recurrence
    * P^{(ℓ)} = (1−α)·P·P^{(ℓ−1)} + α·R0, P^{(0)} = R0, as an n × (until − from)
    * matrix. The forward walk passes (P, Rr); the backward walk passes
    * (`P.transpose`, Rc).
    *
    * Each hop is one fused pass: row i gathers Σ_q P[i,q]·X[q] in P's row
    * order into a scratch row, four rows of X per pass ([[RowAxpy.add]] on
    * P's values and column indices, over X held as row arrays), then the R0
    * row, kept sparse and staged in a second scratch row, is folded in as
    * (1−α)·x + α·r. Hops 1 … t − 1 write into a ping-pong row buffer; the
    * last hop drops that buffer and writes straight into the result, so at
    * most 2·n·w doubles are live. The sums, their order and the final expression are those of
    * `(P * X).zipWith(R0)`, so the result equals that dense recurrence bit
    * for bit, on any column range; t = 0 gives R0's block.
    *
    * Unrolling the printed recurrence gives
    *   P^(t) = α Σ_{ℓ=0..t-1} (1-α)^ℓ P^ℓ R0  +  (1-α)^t P^t R0,
    * i.e. the t-th hop absorbs the whole series tail (rows sum to exactly
    * 1), which differs from Equation (6)'s α Σ_{ℓ=0..t} form by at most
    * (1-α)^t entrywise. We implement the recurrence as printed in
    * Algorithm 2 Lines 2-5; Lemma 3.1-style bounds hold with ε' = (1-α)^t.
    */
  def propagate(p: SparseMatrix, r0: SparseMatrix, alpha: Double, t: Int,
                from: Int, until: Int): DenseMatrix = {
    val n = p.rows
    require(p.cols == n && r0.rows == n, s"need square P and R0 with its rows: P ${p.rows} x ${p.cols}, R0 ${r0.rows} rows")
    require(0 <= from && from <= until && until <= r0.cols, s"column range [$from, $until) outside [0, ${r0.cols})")
    require(t >= 0, s"need t >= 0, got $t")
    val w = until - from
    // Adds row i of R0's block into `row` from `off`; with `clear`, zeroes those entries again.
    def stage(i: Int, row: Array[Double], off: Int, clear: Boolean): Unit = {
      var q = r0.rowPtr(i)
      while (q < r0.rowPtr(i + 1)) {
        val c = r0.colIdx(q) - from
        if (c >= 0 && c < w) row(off + c) = if (clear) 0.0 else row(off + c) + r0.values(q)
        q += 1
      }
    }
    if (t == 0) {
      val out = DenseMatrix.zeros(n, w)
      var i = 0
      while (i < n) { stage(i, out.data, i * w, clear = false); i += 1 }
      out
    } else {
      val acc = new Array[Double](w)
      val r = new Array[Double](w)
      val beta = 1 - alpha
      // Row i of one hop over X = `x`, written into `dst` from `off`.
      def hop(x: Array[Array[Double]], i: Int, dst: Array[Double], off: Int): Unit = {
        java.util.Arrays.fill(acc, 0.0)
        RowAxpy.add(p.values, p.colIdx, p.rowPtr(i), p.rowPtr(i + 1), x, acc, w)
        stage(i, r, 0, clear = false)
        var j = 0
        while (j < w) { dst(off + j) = beta * acc(j) + alpha * r(j); j += 1 }
        stage(i, r, 0, clear = true)
      }
      var cur = Array.fill(n)(new Array[Double](w))
      var i = 0
      while (i < n) { stage(i, cur(i), 0, clear = false); i += 1 }
      var nxt = if (t > 1) Array.fill(n)(new Array[Double](w)) else null
      var l = 1
      while (l < t) {
        i = 0
        while (i < n) { hop(cur, i, nxt(i), 0); i += 1 }
        val tmp = cur; cur = nxt; nxt = tmp
        l += 1
      }
      nxt = null
      val out = DenseMatrix.zeros(n, w)
      i = 0
      while (i < n) { hop(cur, i, out.data, i * w); i += 1 }
      out
    }
  }

  /** SPMI for F' on a column block, in place: column-normalizes
    * P_f^{(t)}[:, block] (a column sum needs only the block, summed in row
    * order) and maps each entry to log(n·P̂ + 1), n being the number of
    * rows. Returns `pf`.
    */
  def spmiCols(pf: DenseMatrix): DenseMatrix = {
    val n = pf.rows
    val w = pf.cols
    val cs = new Array[Double](w)
    var i = 0
    while (i < n) {
      val off = i * w
      var j = 0
      while (j < w) { cs(j) += pf.data(off + j); j += 1 }
      i += 1
    }
    i = 0
    while (i < n) {
      val off = i * w
      var j = 0
      while (j < w) {
        val s = cs(j)
        pf.data(off + j) = math.log(n * (if (s > 0) pf.data(off + j) / s else 0.0) + 1)
        j += 1
      }
      i += 1
    }
    pf
  }

  /** SPMI for B' on rows [from, until) of `b`, in place: each row of
    * P_b^{(t)} (all d columns) is row-normalized and each entry mapped to
    * log(d·P̂ + 1).
    */
  def spmiRows(b: DenseMatrix, from: Int, until: Int): Unit = {
    val d = b.cols
    var i = from
    while (i < until) {
      val off = i * d
      var s = 0.0
      var j = 0
      while (j < d) { s += b.data(off + j); j += 1 }
      j = 0
      while (j < d) {
        b.data(off + j) = math.log(d * (if (s > 0) b.data(off + j) / s else 0.0) + 1)
        j += 1
      }
      i += 1
    }
  }

  /** Copies `block` into the first rows of `m`, columns starting at `col`. */
  def stitch(block: DenseMatrix, m: DenseMatrix, col: Int): Unit = {
    require(block.rows <= m.rows && 0 <= col && col + block.cols <= m.cols,
      s"${block.rows} x ${block.cols} block at column $col outside a ${m.rows} x ${m.cols} matrix")
    val w = block.cols
    var i = 0
    while (i < block.rows) {
      System.arraycopy(block.data, i * w, m.data, i * m.cols + col, w)
      i += 1
    }
  }
}
