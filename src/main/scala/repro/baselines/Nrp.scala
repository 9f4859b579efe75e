package repro.baselines

import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, PprOp, RandSvd}

/** NRP [Yang et al., PVLDB'20] — homogeneous network embedding via
  * personalized-PageRank proximity factorization (lite).
  *
  * NRP factorizes the PPR matrix Π = α Σ_ℓ (1−α)^ℓ P^ℓ into forward and
  * backward node embeddings and then reweights them by degree. We
  * factorize the truncated Π through an *implicit operator* (never
  * materializing n×n) with randomized SVD: Xf = UΣ^½, Xb = VΣ^½, plus a
  * simple out/in-degree reweighting in the spirit of NRP's reweighting
  * stage. Attributes are ignored — NRP is the structure-only competitor
  * of Tables 4/5.
  */
object Nrp {

  final case class Model(xf: DenseMatrix, xb: DenseMatrix) {
    /** Directed link score Xf[vi]·Xb[vj] (the paper's NRP scoring). */
    def directed(vi: Int, vj: Int): Double = {
      var s = 0.0
      var l = 0
      while (l < xf.cols) { s += xf(vi, l) * xb(vj, l); l += 1 }
      s
    }
    def undirected(vi: Int, vj: Int): Double = directed(vi, vj) + directed(vj, vi)
  }

  def embed(g: AttributedGraph, k: Int, alpha: Double = 0.15, t: Int = 10,
            svdIters: Int = 5, seed: Long = 42L): Model = {
    require(k >= 2 && k % 2 == 0, "k must be even")
    val half = k / 2
    val op = new PprOp(g.walkMatrix, alpha, t)
    val (u, sig, v) = RandSvd(op, half, svdIters, seed = seed)
    val xf = DenseMatrix.zeros(g.n, half)
    val xb = DenseMatrix.zeros(g.n, half)
    // Degree-aware reweighting (NRP §4 simplified): scale each node's
    // forward row by log(1+outdeg) and backward row by log(1+indeg) so
    // high-degree hubs regain the edge mass lost to normalization in P.
    // In-degrees from the merged adjacency, as P and the out-degrees are:
    // parallel edges count once.
    val inDeg = g.adjacency.colSums
    var i = 0
    while (i < g.n) {
      val wf = math.log1p(g.outDegree(i).toDouble)
      val wb = math.log1p(inDeg(i))
      var l = 0
      while (l < half) {
        val s = math.sqrt(math.max(sig(l), 0.0))
        xf(i, l) = u(i, l) * s * wf
        xb(i, l) = v(i, l) * s * wb
        l += 1
      }
      i += 1
    }
    Model(xf, xb)
  }
}
