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
    * P^{(ℓ)} = (1−α)·P·P^{(ℓ−1)} + α·R0, P^{(0)} = R0, as n row arrays of
    * width until − from. The forward walk passes (P, Rr); the backward
    * walk passes (Pᵀ from [[transposeCsr]], Rc).
    *
    * Each hop is one fused pass into a ping-pong buffer: row i gathers
    * Σ_q P[i,q]·X[q] in P's row order into its output row, four rows of X
    * per pass ([[RowAxpy.add]] on P's values and column indices), then the
    * R0 row, kept sparse and staged in a scratch row, is folded in. Every
    * array in the inner loops is read at the same index. The sums, their
    * order and the final (1−α)·x + α·r are those of `(P * X).zipWith(R0)`,
    * so the result equals that dense recurrence bit for bit, on any
    * column range.
    *
    * Unrolling the printed recurrence gives
    *   P^(t) = α Σ_{ℓ=0..t-1} (1-α)^ℓ P^ℓ R0  +  (1-α)^t P^t R0,
    * i.e. the t-th hop absorbs the whole series tail (rows sum to exactly
    * 1), which differs from Equation (6)'s α Σ_{ℓ=0..t} form by at most
    * (1-α)^t entrywise. We implement the recurrence as printed in
    * Algorithm 2 Lines 2-5; Lemma 3.1-style bounds hold with ε' = (1-α)^t.
    */
  def propagate(p: SparseMatrix, r0: SparseMatrix, alpha: Double, t: Int,
                from: Int, until: Int): Array[Array[Double]] = {
    val n = p.rows
    require(p.cols == n && r0.rows == n, s"need square P and R0 with its rows: P ${p.rows} x ${p.cols}, R0 ${r0.rows} rows")
    require(0 <= from && from <= until && until <= r0.cols, s"column range [$from, $until) outside [0, ${r0.cols})")
    require(t >= 0, s"need t >= 0, got $t")
    val w = until - from
    // Adds row i of R0's block into `row`; with `clear`, zeroes those entries again.
    def stage(i: Int, row: Array[Double], clear: Boolean): Unit = {
      var q = r0.rowPtr(i)
      while (q < r0.rowPtr(i + 1)) {
        val c = r0.colIdx(q) - from
        if (c >= 0 && c < w) row(c) = if (clear) 0.0 else row(c) + r0.values(q)
        q += 1
      }
    }
    var cur = Array.fill(n)(new Array[Double](w))
    var i = 0
    while (i < n) { stage(i, cur(i), clear = false); i += 1 }
    var nxt = Array.fill(n)(new Array[Double](w))
    val r = new Array[Double](w)
    val beta = 1 - alpha
    var l = 1
    while (l <= t) {
      i = 0
      while (i < n) {
        val acc = nxt(i)
        java.util.Arrays.fill(acc, 0.0)
        RowAxpy.add(p.values, p.colIdx, p.rowPtr(i), p.rowPtr(i + 1), cur, acc, w)
        stage(i, r, clear = false)
        var j = 0
        while (j < w) { acc(j) = beta * acc(j) + alpha * r(j); j += 1 }
        stage(i, r, clear = true)
        i += 1
      }
      val tmp = cur; cur = nxt; nxt = tmp
      l += 1
    }
    cur
  }

  /** Explicit CSR of Pᵀ in O(nnz): P's entries, visited row by row, go
    * through [[SparseMatrix.countingSort]] by column. Row j lists its
    * sources i in ascending order, the order in which `p.tMul`'s scatter
    * adds them, so gathering over it sums the same terms in the same order.
    */
  def transposeCsr(p: SparseMatrix): SparseMatrix = {
    val (ptr, order) = SparseMatrix.countingSort(p.cols, p.colIdx, Array.range(0, p.nnz))
    val rowOf = new Array[Int](p.nnz)
    var i = 0
    while (i < p.rows) { java.util.Arrays.fill(rowOf, p.rowPtr(i), p.rowPtr(i + 1), i); i += 1 }
    new SparseMatrix(p.cols, p.rows, ptr, order.map(rowOf(_)), order.map(p.values(_)))
  }

  /** SPMI for F' on a column block, in place: column-normalizes the rows
    * of P_f^{(t)}[:, block] (a column sum needs only the block) and maps
    * each entry to log(n·P̂ + 1), n being the number of rows. Returns `pf`.
    */
  def spmiCols(pf: Array[Array[Double]]): Array[Array[Double]] = {
    val n = pf.length
    val w = if (n == 0) 0 else pf(0).length
    val cs = new Array[Double](w)
    var i = 0
    while (i < n) {
      val row = pf(i)
      var j = 0
      while (j < w) { cs(j) += row(j); j += 1 }
      i += 1
    }
    i = 0
    while (i < n) {
      val row = pf(i)
      var j = 0
      while (j < w) {
        val s = cs(j)
        row(j) = math.log(n * (if (s > 0) row(j) / s else 0.0) + 1)
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

  /** Copies `rows` into the first rows of `m`, columns starting at `col`. */
  def stitch(rows: Array[Array[Double]], m: DenseMatrix, col: Int): Unit = {
    var i = 0
    while (i < rows.length) {
      System.arraycopy(rows(i), 0, m.data, i * m.cols + col, rows(i).length)
      i += 1
    }
  }
}
