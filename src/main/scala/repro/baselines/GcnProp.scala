package repro.baselines

import repro.core.{Apmi, SvdCcd}
import repro.graph.AttributedGraph
import repro.linalg.{DenseMatrix, SparseMatrix}

/** SGC-style propagation — linear stand-in for the unsupervised GNN
  * encoders DGI [ICLR'19] and ARGA [IJCAI'18].
  *
  * Computes X = SVD_k(Â^s · R̃) where Â is the symmetrically normalized
  * adjacency with self-loops of the symmetrized graph and R̃ the
  * row-normalized attribute matrix — i.e. an untrained graph-convolution
  * encoder with an SVD readout (the standard linear proxy for this model
  * family; "Simplifying Graph Convolutional Networks", Wu et al. '19).
  */
object GcnProp {

  final case class Model(x: DenseMatrix) {
    def score(vi: Int, vj: Int): Double = {
      var s = 0.0
      var l = 0
      while (l < x.cols) { s += x(vi, l) * x(vj, l); l += 1 }
      s
    }
  }

  def embed(g: AttributedGraph, k: Int, hops: Int = 2, seed: Long = 42L): Model = {
    // Â = D̃^{-1/2} (A_sym + I) D̃^{-1/2}
    val a = g.symmetrized.withSelfLoops.adjacency
    val deg = a.rowSums
    val vals = a.values.clone()
    var i = 0
    while (i < g.n) {
      var p = a.rowPtr(i)
      while (p < a.rowPtr(i + 1)) {
        vals(p) = a.values(p) / math.sqrt(deg(i) * deg(a.colIdx(p)))
        p += 1
      }
      i += 1
    }
    val aHat = new SparseMatrix(g.n, g.n, a.rowPtr, a.colIdx, vals)
    // α = 0: `hops` plain products Â·M from M = R̃.
    val m = DenseMatrix.fromRows(Apmi.propagate(aHat, g.attrRowNorm, 0.0, hops, 0, g.d).toSeq)
    Model(SvdCcd.scaledSvd(m, k, 6, seed)._1)
  }
}
