package repro.linalg

/** Thin QR orthonormalization of tall row-major matrices.
  *
  * RandSvd re-orthonormalizes its sketch after every product through
  * [[orthonormal]]: CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto,
  * ScalA 2014), which touches the matrix only row by row, with Householder
  * [[thinQ]] as the fallback for sketches whose Gramian is (near-)singular.
  * Gram–Schmidt is not used: it loses orthogonality exactly in the
  * ill-conditioned regimes power iteration creates.
  */
object Qr {

  /** A Cholesky pivot p_j of AᵀA counts as tiny when p_j ≤ this times the
    * column's own squared norm, i.e. column j has less than 1e-5 of its norm
    * outside the span of the columns before it. Such a sketch is (close to)
    * rank-deficient; CholeskyQR2 needs κ(A) well below 1/√u (u the unit
    * roundoff) to end orthonormal to O(u), so it goes to Householder.
    */
  private val TinyPivot = 1e-10

  /** Orthonormal basis (rows×cols) of the column space of a tall matrix:
    * [[cholQr2]] when both passes have positive, non-tiny pivots, otherwise
    * Householder [[thinQ]] (rank-deficient or badly conditioned input).
    */
  def orthonormal(a: DenseMatrix): DenseMatrix =
    cholQr2(a).getOrElse(thinQ(a))

  /** CholeskyQR2: two passes of Q = A·R⁻¹ with RᵀR = AᵀA. Each pass forms
    * the Gram matrix by `tMul`, factors it by Cholesky, and solves the
    * triangular system row by row, so A is only read along its rows.
    * `None` when a pivot of either pass is non-positive, tiny
    * ([[TinyPivot]]) or not a number.
    */
  def cholQr2(a: DenseMatrix): Option[DenseMatrix] = {
    require(a.rows >= a.cols, s"cholQr2 needs a tall matrix, got ${a.rows} x ${a.cols}")
    cholQr(a).flatMap(cholQr)
  }

  private def cholQr(a: DenseMatrix): Option[DenseMatrix] = {
    val n = a.cols
    val g = a.tMul(a).data
    // Lower Cholesky factor L = Rᵀ, row-major: AᵀA = L·Lᵀ.
    val lo = new Array[Double](n * n)
    val invDiag = new Array[Double](n)
    var j = 0
    while (j < n) {
      val jOff = j * n
      var k = 0
      while (k < j) {
        val kOff = k * n
        var s = g(jOff + k)
        var m = 0
        while (m < k) { s -= lo(jOff + m) * lo(kOff + m); m += 1 }
        lo(jOff + k) = s * invDiag(k)
        k += 1
      }
      var p = g(jOff + j)
      var m = 0
      while (m < j) { p -= lo(jOff + m) * lo(jOff + m); m += 1 }
      if (!(p > TinyPivot * g(jOff + j))) return None
      val r = math.sqrt(p)
      lo(jOff + j) = r
      invDiag(j) = 1.0 / r
      j += 1
    }
    // Row i of Q solves q·Lᵀ = a_i: forward substitution along the row.
    val q = DenseMatrix.zeros(a.rows, n)
    var i = 0
    while (i < a.rows) {
      val off = i * n
      j = 0
      while (j < n) {
        val jOff = j * n
        var s = a.data(off + j)
        var k = 0
        while (k < j) { s -= q.data(off + k) * lo(jOff + k); k += 1 }
        q.data(off + j) = s * invDiag(j)
        j += 1
      }
      i += 1
    }
    Some(q)
  }

  /** Householder thin QR: the Q factor (rows×cols, orthonormal columns)
    * of a tall matrix (rows >= cols), whatever its rank. R is not needed
    * by any caller and is dropped. Walks columns of the row-major input,
    * so it is the fallback of [[orthonormal]], not the fast path.
    */
  def thinQ(a: DenseMatrix): DenseMatrix = {
    val m = a.rows
    val n = a.cols
    require(m >= n, s"thinQ needs a tall matrix, got $m x $n")
    val r = a.copy
    // Householder vectors are stored below the diagonal of r; betas separately.
    val betas = new Array[Double](n)
    var k = 0
    while (k < n) {
      // Compute the Householder vector for column k.
      var normX = 0.0
      var i = k
      while (i < m) { val v = r(i, k); normX += v * v; i += 1 }
      normX = math.sqrt(normX)
      if (normX > 0.0) {
        val alpha = if (r(k, k) >= 0) -normX else normX
        val v0 = r(k, k) - alpha
        r(k, k) = alpha
        // v = (v0, r(k+1..m-1, k)); normalize so v(0) = 1.
        if (v0 != 0.0) {
          i = k + 1
          while (i < m) { r(i, k) = r(i, k) / v0; i += 1 }
          betas(k) = -v0 / alpha
          // Apply reflector to the remaining columns.
          var j = k + 1
          while (j < n) {
            var s = r(k, j)
            i = k + 1
            while (i < m) { s += r(i, k) * r(i, j); i += 1 }
            s *= betas(k)
            r(k, j) = r(k, j) - s
            i = k + 1
            while (i < m) { r(i, j) = r(i, j) - s * r(i, k); i += 1 }
            j += 1
          }
        } else betas(k) = 0.0
      } else betas(k) = 0.0
      k += 1
    }
    // Accumulate Q = H_0 H_1 ... H_{n-1} · [I; 0] by applying reflectors in
    // reverse to the thin identity.
    val q = DenseMatrix.zeros(m, n)
    var j = 0
    while (j < n) { q(j, j) = 1.0; j += 1 }
    k = n - 1
    while (k >= 0) {
      if (betas(k) != 0.0) {
        var jj = 0
        while (jj < n) {
          var s = q(k, jj)
          var i = k + 1
          while (i < m) { s += r(i, k) * q(i, jj); i += 1 }
          s *= betas(k)
          q(k, jj) = q(k, jj) - s
          i = k + 1
          while (i < m) { q(i, jj) = q(i, jj) - s * r(i, k); i += 1 }
          jj += 1
        }
      }
      k -= 1
    }
    q
  }
}
