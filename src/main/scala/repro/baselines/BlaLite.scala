package repro.baselines

import repro.core.Apmi
import repro.graph.AttributedGraph
import repro.linalg.DenseMatrix

/** BLA [Yang et al., WWW'17] — lite substitute for the bidirectional
  * joint attribute-inference baseline of Table 4.
  *
  * BLA iteratively propagates attribute evidence between linked users.
  * We implement the propagation core without the link-inference EM:
  * Z^{(ℓ)} = λ·P_sym·Z^{(ℓ−1)} + (1−λ)·R_train over the symmetrized
  * row-normalized adjacency, scoring attribute (vi, rj) by Z[vi, rj].
  * It is a *non-embedding* inference method — the paper's point in
  * Table 4 is that affinity-preserving embeddings beat direct
  * propagation, which this baseline preserves.
  */
object BlaLite {

  final case class Model(z: DenseMatrix) {
    def attrScore(vi: Int, rj: Int): Double = z(vi, rj)
  }

  /** APMI's forward recurrence with α = 1 − λ. For λ ≥ 0.5, 1 − (1 − λ)
    * is exactly λ, so each hop is exactly λ·P·Z + (1−λ)·R_train.
    */
  def infer(g: AttributedGraph, lambda: Double = 0.7, iters: Int = 3): Model =
    Model(DenseMatrix.fromRows(
      Apmi.propagate(g.symmetrized.walkMatrix, g.attrRowNorm, 1 - lambda, iters, 0, g.d).toSeq))
}
