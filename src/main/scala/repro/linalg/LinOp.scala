package repro.linalg

/** An implicit linear operator: anything that can multiply a dense block
  * from the left, and do the same with its transpose.
  *
  * RandSvd only needs these two kernels, so it works identically on an
  * explicit matrix (a DenseMatrix applies its transpose by `tMul`, a
  * SparseMatrix as `transpose *`) and on operators that are never
  * materialized — e.g. NRP's truncated personalized-PageRank proximity
  * Π = α Σ_ℓ (1−α)^ℓ P^ℓ, which would be a dense n×n matrix.
  */
trait LinOp extends Serializable {
  def rows: Int
  def cols: Int

  /** this · x, where x is cols×k. */
  def applyTo(x: DenseMatrix): DenseMatrix

  /** thisᵀ · x, where x is rows×k. */
  def applyTransposeTo(x: DenseMatrix): DenseMatrix
}

/** Truncated RWR/PPR proximity operator Π = α Σ_{ℓ=0..t} (1−α)^ℓ P^ℓ,
  * applied without materializing any n×n matrix: Π·X is t sparse products,
  * and Πᵀ·X the same Horner loop over Pᵀ, built once with the operator.
  */
final class PprOp(p: SparseMatrix, alpha: Double, t: Int) extends LinOp {
  require(p.rows == p.cols, "P must be square")
  private val pT = p.transpose
  override def rows: Int = p.rows
  override def cols: Int = p.cols

  override def applyTo(x: DenseMatrix): DenseMatrix = horner(p, x)
  override def applyTransposeTo(x: DenseMatrix): DenseMatrix = horner(pT, x)

  /** Horner form: α·(X + (1−α)M(X + (1−α)M(... ))). */
  private def horner(m: SparseMatrix, x: DenseMatrix): DenseMatrix = {
    var acc = x.copy
    var l = 0
    while (l < t) {
      val mx = m * acc
      acc = x.zipWith(mx, (a, b) => a + (1 - alpha) * b)
      l += 1
    }
    acc.scale(alpha)
  }
}
