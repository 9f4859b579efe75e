package repro.linalg

/** Immutable CSR (compressed sparse row) matrix.
  *
  * Backs the random-walk matrix `P` (n×n, m non-zeros) and the attribute
  * matrix `R` (n×d, |E_R| non-zeros). The only kernels PANE needs are
  * sparse·dense products — `P·X` and `Pᵀ·X` — plus row/column normalization
  * for Equation (1).
  */
final class SparseMatrix(
    val rows: Int,
    val cols: Int,
    val rowPtr: Array[Int],
    val colIdx: Array[Int],
    val values: Array[Double],
) extends LinOp {
  require(rowPtr.length == rows + 1, "rowPtr must have rows+1 entries")
  require(colIdx.length == values.length, "colIdx/values length mismatch")

  def nnz: Int = values.length

  /** Dense materialization: O(rows·cols) memory, so only for small matrices (NetMF's and TADW's n×n P, tests). */
  def toDense: DenseMatrix = {
    val m = DenseMatrix.zeros(rows, cols)
    var i = 0
    while (i < rows) {
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) { m(i, colIdx(p)) = m(i, colIdx(p)) + values(p); p += 1 }
      i += 1
    }
    m
  }

  /** C = this · B  (rows×cols · cols×k). */
  def *(b: DenseMatrix): DenseMatrix = {
    require(cols == b.rows, s"dim mismatch: ($rows x $cols) * (${b.rows} x ${b.cols})")
    val k = b.cols
    val c = DenseMatrix.zeros(rows, k)
    var i = 0
    while (i < rows) {
      val cOff = i * k
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) {
        val v = values(p)
        val bOff = colIdx(p) * k
        var j = 0
        while (j < k) { c.data(cOff + j) += v * b.data(bOff + j); j += 1 }
        p += 1
      }
      i += 1
    }
    c
  }

  /** C = thisᵀ · B  (cols×rows · rows×k) without materializing the transpose. */
  def tMul(b: DenseMatrix): DenseMatrix = {
    require(rows == b.rows, s"dim mismatch: ($rows x $cols)T * (${b.rows} x ${b.cols})")
    val k = b.cols
    val c = DenseMatrix.zeros(cols, k)
    var i = 0
    while (i < rows) {
      val bOff = i * k
      var p = rowPtr(i)
      while (p < rowPtr(i + 1)) {
        val v = values(p)
        val cOff = colIdx(p) * k
        var j = 0
        while (j < k) { c.data(cOff + j) += v * b.data(bOff + j); j += 1 }
        p += 1
      }
      i += 1
    }
    c
  }

  /** Row sums (length `rows`). */
  def rowSums: Array[Double] = {
    val s = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var p = rowPtr(i)
      var acc = 0.0
      while (p < rowPtr(i + 1)) { acc += values(p); p += 1 }
      s(i) = acc
      i += 1
    }
    s
  }

  /** Column sums (length `cols`). */
  def colSums: Array[Double] = {
    val s = new Array[Double](cols)
    var p = 0
    while (p < values.length) { s(colIdx(p)) += values(p); p += 1 }
    s
  }

  /** New matrix with each row scaled to sum 1 (zero rows stay zero). */
  def rowNormalized: SparseMatrix = {
    val rs = rowSums
    val out = values.clone()
    var i = 0
    while (i < rows) {
      val s = rs(i)
      if (s != 0.0) {
        var p = rowPtr(i)
        while (p < rowPtr(i + 1)) { out(p) = values(p) / s; p += 1 }
      }
      i += 1
    }
    new SparseMatrix(rows, cols, rowPtr, colIdx, out)
  }

  /** New matrix with each column scaled to sum 1 (zero columns stay zero). */
  def colNormalized: SparseMatrix = {
    val cs = colSums
    val out = values.clone()
    var p = 0
    while (p < values.length) {
      val s = cs(colIdx(p))
      if (s != 0.0) out(p) = values(p) / s
      p += 1
    }
    new SparseMatrix(rows, cols, rowPtr, colIdx, out)
  }

  override def applyTo(x: DenseMatrix): DenseMatrix = this * x
  override def applyTransposeTo(x: DenseMatrix): DenseMatrix = this.tMul(x)
}

object SparseMatrix {

  /** Build from COO arrays: entry k is (row(k), col(k), value(k)).
    * A stable counting sort by column and then by row gives each row its
    * columns in ascending order, with duplicate (i, j) entries next to each
    * other in input order; they are summed in that order.
    */
  def fromCoo(rows: Int, cols: Int, row: Array[Int], col: Array[Int], value: Array[Double]): SparseMatrix = {
    require(row.length == col.length && col.length == value.length,
      s"COO arrays differ in length: row ${row.length}, col ${col.length}, value ${value.length}")
    var k = 0
    while (k < row.length) {
      if (row(k) < 0 || row(k) >= rows)
        throw new IllegalArgumentException(s"entry $k: row ${row(k)} out of range [0,$rows)")
      if (col(k) < 0 || col(k) >= cols)
        throw new IllegalArgumentException(s"entry $k: column ${col(k)} out of range [0,$cols)")
      k += 1
    }
    val (_, byCol) = countingSort(cols, col, Array.range(0, col.length))
    val (ptr, order) = countingSort(rows, row, byCol)
    val rowPtr = new Array[Int](rows + 1)
    val colIdx = new Array[Int](order.length)
    val values = new Array[Double](order.length)
    var at = 0
    var i = 0
    while (i < rows) {
      var q = ptr(i)
      while (q < ptr(i + 1)) {
        val e = order(q)
        if (q > ptr(i) && col(e) == colIdx(at - 1)) values(at - 1) += value(e)
        else { colIdx(at) = col(e); values(at) = value(e); at += 1 }
        q += 1
      }
      rowPtr(i + 1) = at
      i += 1
    }
    new SparseMatrix(rows, cols, rowPtr,
      java.util.Arrays.copyOf(colIdx, at), java.util.Arrays.copyOf(values, at))
  }

  /** Stable counting sort (Gustavson 1978): the positions listed in
    * `order`, grouped by `key(position)` into `buckets` buckets, each
    * bucket in `order`'s order. Returns the bucket pointers (buckets + 1
    * entries) and the grouped positions.
    */
  def countingSort(buckets: Int, key: Array[Int], order: Array[Int]): (Array[Int], Array[Int]) = {
    val ptr = new Array[Int](buckets + 1)
    var q = 0
    while (q < order.length) { ptr(key(order(q)) + 1) += 1; q += 1 }
    var b = 0
    while (b < buckets) { ptr(b + 1) += ptr(b); b += 1 }
    val next = java.util.Arrays.copyOf(ptr, buckets)
    val out = new Array[Int](order.length)
    q = 0
    while (q < order.length) {
      val e = order(q)
      out(next(key(e))) = e
      next(key(e)) += 1
      q += 1
    }
    (ptr, out)
  }
}
