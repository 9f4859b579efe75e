package repro.baselines

import repro.core.{Apmi, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.DenseMatrix

/** CAN [Meng et al., WSDM'19] — lite structural substitute.
  *
  * CAN co-embeds nodes and attributes of an *undirected* graph with a
  * graph-VAE. We substitute its encoder with a linear co-embedding: a
  * single randomized SVD of the undirected multi-hop node→attribute walk
  * distribution (no SPMI normalization, no direction). The two modelling
  * gaps this keeps relative to PANE — symmetrized edges and raw (un-PMI'd)
  * probabilities — are exactly the two advantages the paper credits for
  * PANE's margin over CAN in Tables 4 and 5.
  */
object CanLite {

  final case class Model(x: DenseMatrix, y: DenseMatrix) {
    /** Attribute-inference score: inner product of node and attribute
      * embeddings, as in the CAN evaluation protocol.
      */
    def attrScore(vi: Int, rj: Int): Double = {
      var s = 0.0
      var l = 0
      while (l < x.cols) { s += x(vi, l) * y(rj, l); l += 1 }
      s
    }

    /** Link score: inner product of node embeddings (CAN's own method). */
    def linkScore(vi: Int, vj: Int): Double = {
      var s = 0.0
      var l = 0
      while (l < x.cols) { s += x(vi, l) * x(vj, l); l += 1 }
      s
    }
  }

  /** @param t receptive-field depth. Defaults to 2, matching CAN's
    *          two-layer GCN encoder — CAN sees 2-hop neighbourhoods,
    *          not PANE's geometrically-weighted multi-hop walks.
    */
  def embed(g: AttributedGraph, k: Int, alpha: Double = 0.5, t: Int = 2,
            seed: Long = 42L): Model = {
    // Symmetrize the graph (CAN cannot use direction).
    val sym = g.symmetrized
    // PANE's forward recurrence, t hops.
    val cur = DenseMatrix.fromRows(Apmi.propagate(sym.walkMatrix, sym.attrRowNorm, alpha, t, 0, g.d).toSeq)
    // Raw walk probabilities — deliberately no SPMI transform.
    val (x, v) = SvdCcd.scaledSvd(cur, k / 2, 6, seed)
    Model(x, v)
  }
}
