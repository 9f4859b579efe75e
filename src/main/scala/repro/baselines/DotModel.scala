package repro.baselines

import repro.linalg.DenseMatrix

/** Node embeddings `x` (one row per node) scored by inner product,
  * x[vi]·x[vj]: the link score of BANE, LQANR, GCN-prop, NetMF, TADW and
  * CAN-lite.
  */
final case class DotModel(x: DenseMatrix) {
  def score(vi: Int, vj: Int): Double = {
    var s = 0.0
    var l = 0
    while (l < x.cols) { s += x(vi, l) * x(vj, l); l += 1 }
    s
  }
}
