package repro.baselines

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RandSvd, Solve}

/** TADW [Yang et al., IJCAI'15] — text-associated DeepWalk, the classic
  * factorization ANE baseline.
  *
  * Objective: min_{W,H} ‖M − Wᵀ·H·T‖²_F + λ(‖W‖² + ‖H‖²), with
  * M = (S + S²)/2 the second-order proximity of the row-normalized
  * adjacency S, and T the SVD-reduced attribute features (ft × n).
  * Solved by exact alternating least squares: the W step is a ridge
  * solve, the H step a Sylvester-ridge solve (both closed-form via the
  * Jacobi eigensolver). Node representation is [Wᵀ | (H·T)ᵀ].
  *
  * Like the original, this materializes the dense n×n matrix M, which is
  * exactly why TADW has "-" entries on the paper's large graphs — we keep
  * (and test) that memory wall via `maxNodes`.
  */
object Tadw {

  /** Graphs larger than this would need an n×n dense proximity matrix. */
  val maxNodes: Int = 10000

  def embed(g: AttributedGraph, k: Int, ft: Int = 80, lambda: Double = 0.2,
            iters: Int = 10, seed: Long = 42L): DotModel = {
    require(g.n <= maxNodes,
      s"TADW materializes an n×n proximity matrix; n=${g.n} exceeds $maxNodes " +
        "(the same scalability wall the paper reports as '-')")
    require(k >= 2 && k % 2 == 0, "k must be even")
    val half = k / 2
    val n = g.n
    // M = (S + S²)/2, dense.
    val s = g.walkMatrix
    val sDense = s.toDense
    val s2 = s * sDense
    val m = sDense.zipWith(s2, (a, b) => (a + b) / 2.0)
    // T: SVD-reduced attributes, ft × n.
    val fDim = math.min(ft, math.min(g.d, n) - 1)
    val (ur, sr, _) = RandSvd(g.attrMatrix, fDim, 6, seed = seed)
    val tMat = DenseMatrix.zeros(fDim, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < fDim) { tMat(j, i) = ur(i, j) * sr(j); j += 1 }
      i += 1
    }
    // ALS on ‖M − Wᵀ H T‖² + λ(‖W‖²+‖H‖²); W: half×n, H: half×ft.
    var w = DenseMatrix.randn(half, n, seed).scale(0.01)
    var h = DenseMatrix.randn(half, fDim, seed + 1).scale(0.01)
    val tT = tMat.transpose // n×ft
    val tt = tMat * tT // ft×ft
    var it = 0
    while (it < iters) {
      // W step: (Z Zᵀ + λI) W = Z Mᵀ, with Z = H·T.
      val z = h * tMat // half×n
      val zz = z * z.transpose // half×half
      // Z·Mᵀ = (M·Zᵀ)ᵀ: transposes n×half blocks, never the n×n M.
      w = Solve.ridge(zz, lambda, (m * z.transpose).transpose) // = (ZZᵀ+λI)⁻¹·Z·Mᵀ, half×n
      // H step: (W Wᵀ)·H·(T Tᵀ) + λH = W·M·Tᵀ.
      val ww = w * w.transpose // half×half
      val rhs = (w * m) * tT // half×ft
      h = Solve.sylvesterRidge(ww, tt, lambda, rhs)
      it += 1
    }
    // Representation: [Wᵀ | (H·T)ᵀ], n × k.
    val z = h * tMat
    val x = DenseMatrix.zeros(n, 2 * half)
    i = 0
    while (i < n) {
      var l = 0
      while (l < half) {
        x(i, l) = w(l, i)
        x(i, half + l) = z(l, i)
        l += 1
      }
      i += 1
    }
    DotModel(x)
  }
}
