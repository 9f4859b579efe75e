package repro.linalg

/** Small symmetric solves built on the Jacobi eigensolver — used by the
  * TADW baseline's alternating least squares steps.
  */
object Solve {

  /** X = (A + λI)⁻¹ B for symmetric positive semi-definite A. */
  def ridge(a: DenseMatrix, lambda: Double, b: DenseMatrix): DenseMatrix = {
    require(a.rows == a.cols, "ridge: A must be square")
    require(a.rows == b.rows, "ridge: dim mismatch")
    val (w, v) = Eig.symmetric(a)
    // X = V diag(1/(w+λ)) Vᵀ B
    val vtb = v.tMul(b)
    var i = 0
    while (i < w.length) {
      val inv = 1.0 / (math.max(w(i), 0.0) + lambda)
      var j = 0
      while (j < vtb.cols) { vtb(i, j) = vtb(i, j) * inv; j += 1 }
      i += 1
    }
    v * vtb
  }

  /** Solve the Sylvester-type ridge system  A·H·B + λ·H = C  for H, with
    * A (p×p) and B (q×q) symmetric PSD: diagonalize both, scale entrywise
    * by 1/(λa_i·λb_j + λ), transform back.
    */
  def sylvesterRidge(a: DenseMatrix, b: DenseMatrix, lambda: Double, c: DenseMatrix): DenseMatrix = {
    require(a.rows == a.cols && b.rows == b.cols, "sylvesterRidge: A, B must be square")
    require(c.rows == a.rows && c.cols == b.rows, "sylvesterRidge: C dim mismatch")
    val (wa, va) = Eig.symmetric(a)
    val (wb, vb) = Eig.symmetric(b)
    val cTilde = va.tMul(c) * vb
    var i = 0
    while (i < wa.length) {
      var j = 0
      while (j < wb.length) {
        cTilde(i, j) = cTilde(i, j) / (math.max(wa(i), 0.0) * math.max(wb(j), 0.0) + lambda)
        j += 1
      }
      i += 1
    }
    va * (cTilde * vb.transpose)
  }
}
