package repro.linalg

/** Cyclic-Jacobi eigensolver for small symmetric matrices.
  *
  * RandSvd projects the target operator onto an s-dimensional sketch
  * (s = k/2 + oversampling ≤ ~200) and only ever eigendecomposes the
  * s×s Gramian, where Jacobi is simple, robust, and plenty fast.
  */
object Eig {

  /** Jacobi sweeps run until the off-diagonal norm is at most Tol times the
    * Frobenius norm, or MaxSweeps have run.
    */
  private val MaxSweeps = 64
  private val Tol = 1e-12

  /** Eigendecomposition A = V·diag(w)·Vᵀ of a symmetric matrix.
    *
    * @return (eigenvalues descending, eigenvectors as columns of V in the
    *         matching order)
    */
  def symmetric(aIn: DenseMatrix): (Array[Double], DenseMatrix) = {
    require(aIn.rows == aIn.cols, "symmetric eig needs a square matrix")
    val n = aIn.rows
    val a = aIn.copy
    val v = DenseMatrix.eye(n)
    var sweep = 0
    var off = offDiagNorm(a)
    val scale = math.max(a.frobenius, 1e-300)
    while (sweep < MaxSweeps && off > Tol * scale) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p, q)
          if (math.abs(apq) > 1e-300) {
            val app = a(p, p)
            val aqq = a(q, q)
            val theta = (aqq - app) / (2.0 * apq)
            val t =
              if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
              else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
            val c = 1.0 / math.sqrt(1.0 + t * t)
            val s = t * c
            // A <- Jᵀ A J for the (p,q) rotation.
            var i = 0
            while (i < n) {
              val aip = a(i, p)
              val aiq = a(i, q)
              a(i, p) = c * aip - s * aiq
              a(i, q) = s * aip + c * aiq
              i += 1
            }
            i = 0
            while (i < n) {
              val api = a(p, i)
              val aqi = a(q, i)
              a(p, i) = c * api - s * aqi
              a(q, i) = s * api + c * aqi
              i += 1
            }
            i = 0
            while (i < n) {
              val vip = v(i, p)
              val viq = v(i, q)
              v(i, p) = c * vip - s * viq
              v(i, q) = s * vip + c * viq
              i += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val w = Array.tabulate(n)(i => a(i, i))
    val order = w.indices.sortBy(i => -w(i)).toArray
    val wSorted = order.map(w)
    val vSorted = DenseMatrix.zeros(n, n)
    var j = 0
    while (j < n) {
      var i = 0
      while (i < n) { vSorted(i, j) = v(i, order(j)); i += 1 }
      j += 1
    }
    (wSorted, vSorted)
  }

  private def offDiagNorm(a: DenseMatrix): Double = {
    var s = 0.0
    var i = 0
    while (i < a.rows) {
      var j = 0
      while (j < a.cols) {
        if (i != j) s += a(i, j) * a(i, j)
        j += 1
      }
      i += 1
    }
    math.sqrt(s)
  }
}
