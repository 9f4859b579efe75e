package repro.linalg

/** Randomized truncated SVD via subspace (power) iteration.
  *
  * The paper's GreedyInit calls RandSVD [Musco–Musco NeurIPS'15]; we
  * substitute randomized subspace iteration (Halko, Martinsson & Tropp
  * 2011), re-orthonormalizing the sketch after every product with
  * CholeskyQR2 and a Householder fallback ([[Qr.orthonormal]]). It offers
  * the same contract — a near-optimal rank-k approximation whose accuracy
  * improves with the iteration count `iters` and is exact in the iters→∞
  * limit (what Lemma 4.2 relies on).
  *
  * Works over any [[LinOp]], so NRP can factorize its truncated-PPR
  * proximity without ever materializing the n×n matrix.
  */
object RandSvd {

  /** Truncated SVD A ≈ U·diag(s)·Vᵀ with U: rows×k, V: cols×k.
    *
    * @param a          operator to factorize
    * @param k          target rank
    * @param iters      number of power iterations (≥ 0)
    * @param oversample extra sketch columns (trimmed from the result)
    * @param seed       randomness seed — deterministic output
    */
  def apply(
      a: LinOp,
      k: Int,
      iters: Int,
      oversample: Int = 8,
      seed: Long = 42L,
  ): (DenseMatrix, Array[Double], DenseMatrix) = {
    require(k >= 1, "rank must be >= 1")
    val s = math.min(math.min(a.rows, a.cols), k + oversample)
    require(s >= k, s"rank $k exceeds matrix dims ${a.rows} x ${a.cols}")
    val g = DenseMatrix.randn(a.cols, s, seed)
    var q = Qr.orthonormal(a.applyTo(g))
    var it = 0
    while (it < iters) {
      val z = Qr.orthonormal(a.applyTransposeTo(q))
      q = Qr.orthonormal(a.applyTo(z))
      it += 1
    }
    // Project: B = Qᵀ A is s×cols; factorize via the s×s Gramian B·Bᵀ.
    // B·Bᵀ = Qᵀ·A·Aᵀ·Q computed as (AᵀQ)ᵀ(AᵀQ).
    val atq = a.applyTransposeTo(q) // cols×s = Bᵀ
    val gram = atq.tMul(atq) // s×s
    val (w, u2) = Eig.symmetric(gram)
    val sv = w.map(x => math.sqrt(math.max(x, 0.0)))
    // U = Q·U2 ; V = Bᵀ·U2·Σ⁻¹ = atq·U2·Σ⁻¹
    val uFull = q * u2
    val vRaw = atq * u2
    val v = DenseMatrix.zeros(a.cols, k)
    val u = DenseMatrix.zeros(a.rows, k)
    var j = 0
    while (j < k) {
      val inv = if (sv(j) > 1e-12) 1.0 / sv(j) else 0.0
      var i = 0
      while (i < a.cols) { v(i, j) = vRaw(i, j) * inv; i += 1 }
      i = 0
      while (i < a.rows) { u(i, j) = uFull(i, j); i += 1 }
      j += 1
    }
    (u, sv.take(k), v)
  }
}
