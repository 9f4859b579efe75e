package repro.baselines

import repro.core.Apmi
import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, RandSvd}

/** BANE [Yang et al., ICDM'18] / LQANR [Yang et al., IJCAI'19] — lite.
  *
  * Both learn *quantized* embeddings from a fused topology+attribute
  * proximity. We linearize their Weisfeiler-Lehman-style fusion to
  * M = Â^s · R̃ (s propagation hops of the row-normalized adjacency with
  * self-loops over the row-normalized attributes; n×d, so it scales),
  * factorize by randomized SVD, and then quantize the factor:
  *
  *  - BANE:  X = sign(U·Σ^½) ∈ {−1, +1}^k        (1-bit codes)
  *  - LQANR: X = round-to-b-bits(U·Σ^½) ∈ {−2^b … 2^b}^k
  *
  * which keeps the defining property the paper reports for both: compact
  * codes that trade accuracy for space.
  */
object Bane {

  /** Shared real-valued factor before quantization. */
  private def realFactor(g: AttributedGraph, k: Int, hops: Int, seed: Long): DenseMatrix = {
    // Â: row-normalized adjacency with self-loops on the symmetrized graph
    // (BANE is undirected-only — part of the gap PANE exploits); α = 0
    // gives `hops` plain products Â·M from M = R̃.
    val aHat = g.symmetrized.withSelfLoops.walkMatrix
    val m = Apmi.propagate(aHat, g.attrRowNorm, 0.0, hops, 0, g.d)
    val (u, sig, _) = RandSvd(m, k, 6, seed = seed)
    val x = DenseMatrix.zeros(g.n, k)
    var i = 0
    while (i < g.n) {
      var l = 0
      while (l < k) { x(i, l) = u(i, l) * math.sqrt(math.max(sig(l), 0.0)); l += 1 }
      i += 1
    }
    x
  }

  /** BANE: 1-bit sign codes. */
  def embed(g: AttributedGraph, k: Int, hops: Int = 2, seed: Long = 42L): DotModel =
    DotModel(realFactor(g, k, hops, seed).map(v => if (v >= 0) 1.0 else -1.0))

  /** LQANR: b-bit codes in {−2^b, …, −1, 0, 1, …, 2^b}, max-abs scaled
    * per column.
    */
  def quantized(g: AttributedGraph, k: Int, bits: Int, hops: Int = 2, seed: Long = 42L): DotModel = {
    require(bits >= 1 && bits <= 8, "bits must be in [1, 8]")
    val x = realFactor(g, k, hops, seed)
    val levels = (1 << bits).toDouble
    var l = 0
    while (l < k) {
      var maxAbs = 0.0
      var i = 0
      while (i < x.rows) { val a = math.abs(x(i, l)); if (a > maxAbs) maxAbs = a; i += 1 }
      val scale = if (maxAbs > 0) levels / maxAbs else 0.0
      i = 0
      while (i < x.rows) { x(i, l) = math.rint(x(i, l) * scale); i += 1 }
      l += 1
    }
    DotModel(x)
  }
}
