package repro.linalg

import scala.util.Random

/** Row-major dense matrix of doubles.
  *
  * This is the workhorse for all O(n·d) intermediates in PANE (affinity
  * matrices, embeddings, residuals). Kernels are plain JVM loops; the
  * products stage rows in scratch arrays so every inner loop reads its
  * arrays at one index (DESIGN.md §2, kernel shape). At reproduction scale
  * (n ≤ 1e5, d ≤ 2e3, k ≤ 256) this is comfortably fast and has no native
  * dependencies.
  */
final class DenseMatrix(val rows: Int, val cols: Int, val data: Array[Double]) extends LinOp {
  require(data.length == rows.toLong * cols, s"data length ${data.length} != $rows x $cols")

  @inline def apply(i: Int, j: Int): Double = data(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  /** Copy of row `i` as a fresh array. */
  def row(i: Int): Array[Double] = java.util.Arrays.copyOfRange(data, i * cols, (i + 1) * cols)

  def copy: DenseMatrix = new DenseMatrix(rows, cols, data.clone())

  /** C = this * B in i-k-j order. Each C row is accumulated in a scratch
    * row, t += aik·B[k], over B split into row arrays, so every array in
    * the inner loop is read at the same index (the form C2 vectorises),
    * then copied into C. Same order and zero skip as the flat loop, so
    * the result is bit-identical to it.
    */
  def *(b: DenseMatrix): DenseMatrix = {
    require(cols == b.rows, s"dim mismatch: ($rows x $cols) * (${b.rows} x ${b.cols})")
    val c = DenseMatrix.zeros(rows, b.cols)
    val bc = b.cols
    val bRows = Array.tabulate(b.rows)(b.row)
    val t = new Array[Double](bc)
    var i = 0
    while (i < rows) {
      java.util.Arrays.fill(t, 0.0)
      val aOff = i * cols
      var k = 0
      while (k < cols) {
        val aik = data(aOff + k)
        if (aik != 0.0) {
          val bk = bRows(k)
          var j = 0
          while (j < bc) { t(j) += aik * bk(j); j += 1 }
        }
        k += 1
      }
      System.arraycopy(t, 0, c.data, i * bc, bc)
      i += 1
    }
    c
  }

  /** C = thisᵀ * B without materializing the transpose. B's row i is
    * copied to a scratch row t and added into C's rows, held as row
    * arrays, C[k] += aik·t, so the inner loop reads every array at the
    * same index; C is flattened at the end. Bit-identical to the flat loop.
    */
  def tMul(b: DenseMatrix): DenseMatrix = {
    require(rows == b.rows, s"dim mismatch: ($rows x $cols)ᵀ * (${b.rows} x ${b.cols})")
    val bc = b.cols
    val cRows = Array.fill(cols)(new Array[Double](bc))
    val t = new Array[Double](bc)
    var i = 0
    while (i < rows) {
      System.arraycopy(b.data, i * bc, t, 0, bc)
      val aOff = i * cols
      var k = 0
      while (k < cols) {
        val aik = data(aOff + k)
        if (aik != 0.0) {
          val ck = cRows(k)
          var j = 0
          while (j < bc) { ck(j) += aik * t(j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    val c = DenseMatrix.zeros(cols, bc)
    var k = 0
    while (k < cols) { System.arraycopy(cRows(k), 0, c.data, k * bc, bc); k += 1 }
    c
  }

  /** C = this * Bᵀ. */
  def mulT(b: DenseMatrix): DenseMatrix = {
    require(cols == b.cols, s"dim mismatch: ($rows x $cols) * (${b.rows} x ${b.cols})ᵀ")
    val c = DenseMatrix.zeros(rows, b.rows)
    var i = 0
    while (i < rows) {
      val aOff = i * cols
      var j = 0
      while (j < b.rows) {
        val bOff = j * cols
        var s = 0.0
        var k = 0
        while (k < cols) { s += data(aOff + k) * b.data(bOff + k); k += 1 }
        c.data(i * b.rows + j) = s
        j += 1
      }
      i += 1
    }
    c
  }

  def transpose: DenseMatrix = {
    val t = DenseMatrix.zeros(cols, rows)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { t.data(j * rows + i) = data(i * cols + j); j += 1 }
      i += 1
    }
    t
  }

  def +(b: DenseMatrix): DenseMatrix = zipWith(b, _ + _)
  def -(b: DenseMatrix): DenseMatrix = zipWith(b, _ - _)

  def zipWith(b: DenseMatrix, f: (Double, Double) => Double): DenseMatrix = {
    require(rows == b.rows && cols == b.cols, "shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i), b.data(i)); i += 1 }
    new DenseMatrix(rows, cols, out)
  }

  def map(f: Double => Double): DenseMatrix = {
    val out = new Array[Double](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i)); i += 1 }
    new DenseMatrix(rows, cols, out)
  }

  def scale(s: Double): DenseMatrix = map(_ * s)

  /** Frobenius norm. */
  def frobenius: Double = {
    var s = 0.0
    var i = 0
    while (i < data.length) { s += data(i) * data(i); i += 1 }
    math.sqrt(s)
  }

  /** Largest absolute entry — handy in approximation tests. */
  def maxAbs: Double = {
    var m = 0.0
    var i = 0
    while (i < data.length) { val a = math.abs(data(i)); if (a > m) m = a; i += 1 }
    m
  }

  /** Column sums, length `cols`. */
  def colSums: Array[Double] = {
    val s = new Array[Double](cols)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var j = 0
      while (j < cols) { s(j) += data(off + j); j += 1 }
      i += 1
    }
    s
  }

  /** Row sums, length `rows`. */
  def rowSums: Array[Double] = {
    val s = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      val off = i * cols
      var j = 0
      var acc = 0.0
      while (j < cols) { acc += data(off + j); j += 1 }
      s(i) = acc
      i += 1
    }
    s
  }

  /** Matrix block of the given row range [from, until). */
  def rowSlice(from: Int, until: Int): DenseMatrix =
    new DenseMatrix(until - from, cols,
      java.util.Arrays.copyOfRange(data, from * cols, until * cols))

  // LinOp interface: lets RandSvd treat explicit and implicit matrices alike.
  override def applyTo(x: DenseMatrix): DenseMatrix = this * x
  override def applyTransposeTo(x: DenseMatrix): DenseMatrix = this.tMul(x)
}

object DenseMatrix {
  /** Largest array length every mainstream JVM accepts. */
  private val MaxArrayLength = Int.MaxValue - 8

  /** rows·cols as an array length; fails before allocating when the product
    * is negative or exceeds what a JVM array can hold, giving the footprint.
    */
  private def checkedLength(rows: Int, cols: Int): Int = {
    val len = rows.toLong * cols
    require(rows >= 0 && cols >= 0 && len <= MaxArrayLength,
      f"cannot allocate a $rows x $cols dense matrix (${len * 8.0 / (1 << 20)}%.0f MiB): " +
        s"dimensions must be >= 0 and rows * cols <= $MaxArrayLength")
    len.toInt
  }

  def zeros(rows: Int, cols: Int): DenseMatrix =
    new DenseMatrix(rows, cols, new Array[Double](checkedLength(rows, cols)))

  def eye(n: Int): DenseMatrix = {
    val m = zeros(n, n)
    var i = 0
    while (i < n) { m(i, i) = 1.0; i += 1 }
    m
  }

  /** Standard-normal entries, deterministic in `seed`. */
  def randn(rows: Int, cols: Int, seed: Long): DenseMatrix = {
    val rnd = new Random(seed)
    val d = new Array[Double](checkedLength(rows, cols))
    var i = 0
    while (i < d.length) { d(i) = rnd.nextGaussian(); i += 1 }
    new DenseMatrix(rows, cols, d)
  }

  /** Build from a sequence of row arrays (all of equal length). */
  def fromRows(rowsSeq: Seq[Array[Double]]): DenseMatrix = {
    require(rowsSeq.nonEmpty, "no rows")
    val r = rowsSeq.length
    val c = rowsSeq.head.length
    val m = zeros(r, c)
    var i = 0
    rowsSeq.foreach { row =>
      require(row.length == c, "ragged rows")
      System.arraycopy(row, 0, m.data, i * c, c)
      i += 1
    }
    m
  }

  /** Vertical concatenation. */
  def vstack(blocks: Seq[DenseMatrix]): DenseMatrix = {
    require(blocks.nonEmpty)
    val c = blocks.head.cols
    require(blocks.forall(_.cols == c), "vstack: column mismatch")
    val r = blocks.map(_.rows).sum
    val out = zeros(r, c)
    var off = 0
    blocks.foreach { b =>
      System.arraycopy(b.data, 0, out.data, off, b.data.length)
      off += b.data.length
    }
    out
  }
}
