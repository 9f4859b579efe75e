package repro.baselines

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RandSvd}

/** NetMF [Qiu et al., WSDM'18] — DeepWalk as matrix factorization.
  *
  * Stands in for the structure-only random-walk family (DeepWalk backbone
  * of STNE/GATNE): factorizes
  *   M = log(max(1, vol/(b·T) · Σ_{ℓ=1..T} P^ℓ D⁻¹))
  * with randomized SVD, X = U·Σ^½. Materializes the dense n×n matrix —
  * the same memory wall the paper's "-" entries reflect; enforced via
  * `maxNodes`.
  */
object NetMf {

  val maxNodes: Int = 10000

  def embed(g: AttributedGraph, k: Int, window: Int = 5, negatives: Double = 1.0,
            seed: Long = 42L): DotModel = {
    require(g.n <= maxNodes,
      s"NetMF materializes an n×n matrix; n=${g.n} exceeds $maxNodes " +
        "(the paper's large-graph '-' wall)")
    // Symmetrize (DeepWalk-family methods are undirected).
    val sym = g.symmetrized
    val p = sym.walkMatrix
    val n = g.n
    val vol = sym.adjacency.nnz.toDouble
    // Σ_{ℓ=1..T} P^ℓ, dense.
    var power = p.toDense
    val acc = power.copy
    var l = 1
    while (l < window) {
      power = p * power
      var i = 0
      while (i < acc.data.length) { acc.data(i) += power.data(i); i += 1 }
      l += 1
    }
    // Right-multiply by D⁻¹ (invDeg of the symmetrized graph).
    val deg = sym.outDegree
    val m = DenseMatrix.zeros(n, n)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < n) {
        val dj = deg(j)
        val v = if (dj > 0) acc(i, j) / dj else 0.0
        m(i, j) = math.log(math.max(1.0, vol / (negatives * window) * v))
        j += 1
      }
      i += 1
    }
    val (u, sig, _) = RandSvd(m, k, 6, seed = seed)
    val x = DenseMatrix.zeros(n, k)
    i = 0
    while (i < n) {
      var j = 0
      while (j < k) { x(i, j) = u(i, j) * math.sqrt(math.max(sig(j), 0.0)); j += 1 }
      i += 1
    }
    DotModel(x)
  }
}
