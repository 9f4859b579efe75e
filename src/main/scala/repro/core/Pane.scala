package repro.core

import repro.graph.AttributedGraph
import repro.linalg.DenseMatrix

/** PANE hyper-parameters (paper defaults: k = 128, α = 0.5, ε = 0.015).
  *
  * @param k     total embedding space budget (k/2 per direction)
  * @param alpha random walk stopping probability
  * @param eps   error threshold — sets the iteration count t
  * @param seed  randomness seed (RandSVD sketches)
  */
final case class PaneConfig(
    k: Int = 128,
    alpha: Double = 0.5,
    eps: Double = 0.015,
    seed: Long = 42L,
) {
  /** Algorithm 1 Line 1: the APMI hops, the RandSVD power iterations and
    * the CCD sweeps.
    */
  def t: Int = Apmi.iterations(alpha, eps)

  /** The number of CCD sweeps, which is t. */
  def refineIters: Int = t

  /** Rejects an nb below 1, and a k that cannot embed an n-node,
    * d-attribute graph in `nb` node blocks, before any work starts: k must
    * be even and at least 2, at most 2·min(n, d), and k/2 may not exceed
    * the rows of the smallest node block of [[ParallelPane.ranges]]`(n, nb)`
    * (each block's RandSVD needs k/2 ≤ its rows).
    */
  def requireK(n: Int, d: Int, nb: Int): Unit = {
    require(nb >= 1,
      s"nb = $nb node blocks cannot embed n = $n nodes, d = $d attributes with k = $k: nb must be at least 1")
    val smallest = ParallelPane.ranges(n, nb).map(r => r._2 - r._1).minOption.getOrElse(0)
    require(k >= 2 && k % 2 == 0 && k / 2 <= math.min(n, d) && k / 2 <= smallest,
      s"space budget k = $k does not fit n = $n nodes, d = $d attributes in nb = $nb node blocks: " +
      s"k must be even, at least 2 and at most 2·min(n, d) = ${2 * math.min(n, d)}, " +
      s"and k/2 at most $smallest, the rows of the smallest node block")
  }
}

/** Algorithm 1 — single-thread PANE: the nb = 1 case of the block pipeline
  * of [[ParallelPane]] (PAPMI and PSVDCCD are exact at nb = 1), seeded by
  * GreedyInit instead of SMGreedyInit.
  */
object Pane {

  /** APMI, GreedyInit with t power iterations, then t CCD sweeps, all as
    * one node block.
    */
  def embed(g: AttributedGraph, cfg: PaneConfig = PaneConfig()): Embeddings = {
    cfg.requireK(g.n, g.d, 1)
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    ParallelPane.psvdccd(SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.t, cfg.seed), cfg.refineIters, 1)
  }

  /** Attribute-inference score (Equation 21):
    * p(vi, rj) = Xf[vi]·Y[rj]ᵀ + Xb[vi]·Y[rj]ᵀ ≈ F[vi,rj] + B[vi,rj].
    */
  def attrScore(e: Embeddings, vi: Int, rj: Int): Double = {
    var s = 0.0
    var l = 0
    val half = e.xf.cols
    while (l < half) {
      s += (e.xf(vi, l) + e.xb(vi, l)) * e.y(rj, l)
      l += 1
    }
    s
  }

  /** Link-prediction scorer (Equation 22):
    * p(vi,vj) = Σ_r (Xf[vi]·Y[r]ᵀ)(Xb[vj]·Y[r]ᵀ) = Xf[vi]·(YᵀY)·Xb[vj]ᵀ.
    * Precomputes the k/2×k/2 Gramian so each pair costs O(k²).
    */
  final class LinkScorer(e: Embeddings) {
    private val gram: DenseMatrix = e.y.tMul(e.y)
    private val half = e.xf.cols

    /** Directed score for edge (vi → vj). */
    def directed(vi: Int, vj: Int): Double = {
      var s = 0.0
      var a = 0
      while (a < half) {
        val xfa = e.xf(vi, a)
        if (xfa != 0.0) {
          var b = 0
          while (b < half) { s += xfa * gram(a, b) * e.xb(vj, b); b += 1 }
        }
        a += 1
      }
      s
    }

    /** Undirected score p(vi,vj) + p(vj,vi) — used on undirected graphs. */
    def undirected(vi: Int, vj: Int): Double = directed(vi, vj) + directed(vj, vi)
  }
}
