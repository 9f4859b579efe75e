package repro.eval

import scala.collection.mutable
import scala.util.Random
import repro.graph.AttributedGraph

/** The paper's evaluation protocols (§5.2, §5.3): data splits, negative
  * sampling, and scoring for attribute inference and link prediction.
  */
object Tasks {

  /** A labelled test pair: (i, j) with ground truth `positive`. For
    * attribute inference j is an attribute id; for link prediction a
    * node id.
    */
  final case class TestPair(i: Int, j: Int, positive: Boolean)

  /** Attribute-inference split (§5.2): hold out `1 − trainRatio` of the
    * non-zero attribute entries as test positives; train on the rest;
    * negatives are uniformly sampled absent (node, attr) pairs of equal
    * count.
    *
    * @return (training graph, test pairs)
    */
  def attributeInference(g: AttributedGraph, trainRatio: Double = 0.8,
                         seed: Long = 99L): (AttributedGraph, Array[TestPair]) = {
    require(trainRatio > 0 && trainRatio < 1, "trainRatio in (0,1)")
    val rnd = new Random(seed)
    val idx = rnd.shuffle((0 until g.numAttrEntries).toVector)
    val nTrain = (g.numAttrEntries * trainRatio).toInt
    val (trainIdx, testIdx) = idx.splitAt(nTrain)
    val gTrain = g.withAttrEntries(
      trainIdx.map(g.attrNode).toArray,
      trainIdx.map(g.attrId).toArray,
      trainIdx.map(g.attrW).toArray)
    val positives = testIdx.map(i => TestPair(g.attrNode(i), g.attrId(i), positive = true))
    val negatives = Vector.newBuilder[TestPair]
    var need = positives.size
    while (need > 0) {
      val vi = rnd.nextInt(g.n)
      val rj = rnd.nextInt(g.d)
      if (!g.attrEntrySet.contains(vi.toLong * g.d + rj)) {
        negatives += TestPair(vi, rj, positive = false)
        need -= 1
      }
    }
    (gTrain, (positives ++ negatives.result()).toArray)
  }

  /** Link-prediction split (§5.3): remove `removeRatio` of the edges
    * (whole undirected pairs on undirected graphs), keep the residual
    * graph for training, and build a test set of the removed edges plus
    * an equal number of non-edges.
    *
    * @return (residual graph, test pairs)
    */
  def linkPrediction(g: AttributedGraph, removeRatio: Double = 0.3,
                     seed: Long = 77L): (AttributedGraph, Array[TestPair]) = {
    require(removeRatio > 0 && removeRatio < 1, "removeRatio in (0,1)")
    val rnd = new Random(seed)
    if (g.directed) {
      val idx = shuffledIndices(g.m, rnd)
      val nRemove = (g.m * removeRatio).toInt
      val kept = java.util.Arrays.copyOfRange(idx, nRemove, g.m)
      val residual = g.withEdges(kept.map(i => g.src(i)), kept.map(i => g.dst(i)))
      val positives = Array.tabulate(nRemove)(r => TestPair(g.src(idx(r)), g.dst(idx(r)), positive = true))
      (residual, positives ++ sampleNonEdges(g, nRemove, rnd))
    } else {
      // Undirected: operate on canonical pairs u <= v, as keys u·n + v in
      // first-occurrence order, so both directions of an edge are removed
      // (and tested) together.
      val n = g.n.toLong
      val seen = new mutable.LongMap[Unit]()
      val keys = mutable.ArrayBuilder.make[Long]
      var i = 0
      while (i < g.m) {
        val key = math.min(g.src(i), g.dst(i)) * n + math.max(g.src(i), g.dst(i))
        if (!seen.contains(key)) { seen.update(key, ()); keys += key }
        i += 1
      }
      val pairs = keys.result()
      val shuffled = shuffledIndices(pairs.length, rnd).map(i => pairs(i))
      val nRemove = (pairs.length * removeRatio).toInt
      val src = new Array[Int](2 * (pairs.length - nRemove))
      val dst = new Array[Int](src.length)
      var r = nRemove
      while (r < pairs.length) {
        val u = (shuffled(r) / n).toInt
        val v = (shuffled(r) % n).toInt
        val e = 2 * (r - nRemove)
        src(e) = u; dst(e) = v; src(e + 1) = v; dst(e + 1) = u
        r += 1
      }
      val residual = g.withEdges(src, dst)
      val positives = Array.tabulate(nRemove)(r => TestPair((shuffled(r) / n).toInt, (shuffled(r) % n).toInt, positive = true))
      (residual, positives ++ sampleNonEdges(g, nRemove, rnd))
    }
  }

  /** The permutation `rnd.shuffle` applies to a sequence of `size`
    * elements, drawing from `rnd` in the same order: for m from size down
    * to 2, swap(m − 1, nextInt(m)).
    */
  private def shuffledIndices(size: Int, rnd: Random): Array[Int] = {
    val idx = Array.range(0, size)
    var m = size
    while (m >= 2) {
      val k = rnd.nextInt(m)
      val tmp = idx(m - 1)
      idx(m - 1) = idx(k)
      idx(k) = tmp
      m -= 1
    }
    idx
  }

  private def sampleNonEdges(g: AttributedGraph, count: Int, rnd: Random): Vector[TestPair] = {
    val out = Vector.newBuilder[TestPair]
    var need = count
    while (need > 0) {
      val u = rnd.nextInt(g.n)
      val v = rnd.nextInt(g.n)
      val isEdge = g.edgeSet.contains(u.toLong * g.n + v) ||
        (!g.directed && g.edgeSet.contains(v.toLong * g.n + u))
      if (u != v && !isEdge) {
        out += TestPair(u, v, positive = false)
        need -= 1
      }
    }
    out.result()
  }

  /** Score test pairs with `scorer` and compute (AUC, AP). */
  def evaluate(pairs: Array[TestPair], scorer: (Int, Int) => Double): (Double, Double) = {
    val scored = pairs.toSeq.map(p => (scorer(p.i, p.j), p.positive))
    (Metrics.auc(scored), Metrics.averagePrecision(scored))
  }
}
