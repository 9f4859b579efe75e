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
    * count (they may repeat). Fails before splitting if an entry is
    * repeated (one copy could be held out while another trains), and
    * before sampling if every pair is present.
    *
    * @return (training graph, test pairs)
    */
  def attributeInference(g: AttributedGraph, trainRatio: Double = 0.8,
                         seed: Long = 99L): (AttributedGraph, Array[TestPair]) = {
    require(trainRatio > 0 && trainRatio < 1, "trainRatio in (0,1)")
    val size = g.numAttrEntries
    val nTrain = (size * trainRatio).toInt
    val distinct = g.attrEntrySet.distinct
    require(distinct == size,
      s"attribute split needs distinct (node, attribute) entries: $size entries, $distinct distinct keys")
    require(nTrain == size || distinct < g.n.toLong * g.d,
      s"cannot sample ${size - nTrain} negative (node, attribute) pairs: all n·d pairs of n = ${g.n} nodes " +
        s"and d = ${g.d} attributes are among the $distinct distinct attribute entries")
    val rnd = new Random(seed)
    val idx = shuffledIndices(size, rnd)
    val node = new Array[Int](nTrain)
    val attr = new Array[Int](nTrain)
    val w = new Array[Double](nTrain)
    var r = 0
    while (r < nTrain) {
      val e = idx(r)
      node(r) = g.attrNode(e); attr(r) = g.attrId(e); w(r) = g.attrW(e)
      r += 1
    }
    val gTrain = g.withAttrEntries(node, attr, w)
    val nTest = size - nTrain
    val pairs = new Array[TestPair](2 * nTest)
    while (r < size) {
      val e = idx(r)
      pairs(r - nTrain) = TestPair(g.attrNode(e), g.attrId(e), positive = true)
      r += 1
    }
    var need = nTest
    while (need > 0) {
      val vi = rnd.nextInt(g.n)
      val rj = rnd.nextInt(g.d)
      if (!g.attrEntrySet.contains(vi.toLong * g.d + rj)) {
        pairs(2 * nTest - need) = TestPair(vi, rj, positive = false)
        need -= 1
      }
    }
    (gTrain, pairs)
  }

  /** Link-prediction split (§5.3): remove `removeRatio` of the edges
    * (whole undirected pairs on undirected graphs), keep the residual
    * graph for training, and build a test set of the removed edges plus
    * an equal number of non-edges (they may repeat). Fails before splitting
    * if a directed graph repeats an edge (one copy could be removed while
    * another stays), and before sampling if every pair of distinct nodes is
    * an edge.
    *
    * @return (residual graph, test pairs)
    */
  def linkPrediction(g: AttributedGraph, removeRatio: Double = 0.3,
                     seed: Long = 77L): (AttributedGraph, Array[TestPair]) = {
    require(removeRatio > 0 && removeRatio < 1, "removeRatio in (0,1)")
    val rnd = new Random(seed)
    if (g.directed) {
      require(g.edgeSet.distinct == g.m,
        s"directed link split needs distinct edges: ${g.m} edges, ${g.edgeSet.distinct} distinct keys")
      val nRemove = (g.m * removeRatio).toInt
      val selfLoops = (0 until g.n).count(i => g.edgeSet.contains(i.toLong * g.n + i))
      requireNonEdge(g, nRemove, g.edgeSet.distinct - selfLoops)
      val idx = shuffledIndices(g.m, rnd)
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
      val nRemove = (pairs.length * removeRatio).toInt
      requireNonEdge(g, nRemove, 2L * pairs.count(key => key / n != key % n))
      val shuffled = shuffledIndices(pairs.length, rnd).map(i => pairs(i))
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

  /** Fails unless `count` is 0 or some ordered pair of distinct nodes is a
    * non-edge, given that `edges` of the n·(n − 1) such pairs are edges (in
    * either direction, on an undirected graph).
    */
  private def requireNonEdge(g: AttributedGraph, count: Int, edges: Long): Unit =
    require(count == 0 || edges < g.n.toLong * (g.n - 1),
      s"cannot sample $count negative (node, node) pairs: every ordered pair of distinct nodes among n = ${g.n} is an edge " +
        s"(m = ${g.m}, ${g.edgeSet.distinct} distinct)")

  private def sampleNonEdges(g: AttributedGraph, count: Int, rnd: Random): Array[TestPair] = {
    val out = new Array[TestPair](count)
    var need = count
    while (need > 0) {
      val u = rnd.nextInt(g.n)
      val v = rnd.nextInt(g.n)
      val isEdge = g.edgeSet.contains(u.toLong * g.n + v) ||
        (!g.directed && g.edgeSet.contains(v.toLong * g.n + u))
      if (u != v && !isEdge) {
        out(count - need) = TestPair(u, v, positive = false)
        need -= 1
      }
    }
    out
  }

  /** Score test pairs with `scorer`, in pair order, and compute (AUC, AP). */
  def evaluate(pairs: Array[TestPair], scorer: (Int, Int) => Double): (Double, Double) = {
    val (scores, positive) = (new Array[Double](pairs.length), new Array[Boolean](pairs.length))
    for (r <- pairs.indices) { scores(r) = scorer(pairs(r).i, pairs(r).j); positive(r) = pairs(r).positive }
    Metrics.aucAp(scores, positive)
  }
}
