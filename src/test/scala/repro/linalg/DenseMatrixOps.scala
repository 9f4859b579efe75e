package repro.linalg

/** Operations on a [[DenseMatrix]] that only the tests use. */
object DenseMatrixOps {

  implicit final class Reductions(private val m: DenseMatrix) extends AnyVal {

    def +(b: DenseMatrix): DenseMatrix = m.zipWith(b, _ + _)

    /** Row sums, length `rows`. */
    def rowSums: Array[Double] = {
      val s = new Array[Double](m.rows)
      var i = 0
      while (i < m.rows) {
        val off = i * m.cols
        var j = 0
        var acc = 0.0
        while (j < m.cols) { acc += m.data(off + j); j += 1 }
        s(i) = acc
        i += 1
      }
      s
    }

    /** Largest absolute entry — handy in approximation tests. */
    def maxAbs: Double = {
      var r = 0.0
      var i = 0
      while (i < m.data.length) { val a = math.abs(m.data(i)); if (a > r) r = a; i += 1 }
      r
    }

    /** Column sums, length `cols`. */
    def colSums: Array[Double] = {
      val s = new Array[Double](m.cols)
      var i = 0
      while (i < m.rows) {
        val off = i * m.cols
        var j = 0
        while (j < m.cols) { s(j) += m.data(off + j); j += 1 }
        i += 1
      }
      s
    }
  }
}
