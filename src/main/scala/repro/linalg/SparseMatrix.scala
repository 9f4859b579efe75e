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

  /** Dense materialization — test/debug use only. */
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

  /** Build from COO triples; duplicate (i,j) entries are summed. */
  def fromCoo(rows: Int, cols: Int, entries: Seq[(Int, Int, Double)]): SparseMatrix = {
    val byRow = entries.groupBy(_._1)
    byRow.keys.foreach(i => require(i >= 0 && i < rows, s"row $i out of range [0,$rows)"))
    val rowPtr = new Array[Int](rows + 1)
    var i = 0
    while (i < rows) {
      rowPtr(i + 1) = rowPtr(i) + byRow.get(i).map(e => e.map(x => (x._2, x._3)).groupBy(_._1).size).getOrElse(0)
      i += 1
    }
    val nnz = rowPtr(rows)
    val colIdx = new Array[Int](nnz)
    val values = new Array[Double](nnz)
    i = 0
    while (i < rows) {
      byRow.get(i).foreach { es =>
        val merged = es.map(x => (x._2, x._3)).groupBy(_._1).map { case (j, vs) => (j, vs.map(_._2).sum) }
          .toArray.sortBy(_._1)
        var p = rowPtr(i)
        merged.foreach { case (j, v) =>
          require(j >= 0 && j < cols, s"column $j out of range [0,$cols)")
          colIdx(p) = j; values(p) = v; p += 1
        }
      }
      i += 1
    }
    new SparseMatrix(rows, cols, rowPtr, colIdx, values)
  }
}
