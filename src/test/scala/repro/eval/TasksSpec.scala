package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.Fixtures
import repro.graph.AttributedGraph

class TasksSpec extends AnyFunSuite {

  private lazy val g = Fixtures.mid
  private lazy val gu = Fixtures.midUndirected

  test("attribute split keeps the requested ratio and balances classes") {
    val (gTrain, pairs) = Tasks.attributeInference(g, trainRatio = 0.8, seed = 1L)
    assert(gTrain.numAttrEntries == (g.numAttrEntries * 0.8).toInt)
    val pos = pairs.count(_.positive)
    val neg = pairs.length - pos
    assert(pos == g.numAttrEntries - gTrain.numAttrEntries)
    assert(pos == neg)
  }

  test("attribute split has no leakage: test positives are not in training") {
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 2L)
    val trainSet = gTrain.attrEntrySet
    pairs.filter(_.positive).foreach { p =>
      assert(!trainSet.contains(p.i.toLong * g.d + p.j), s"leaked pair $p")
    }
  }

  test("attribute negatives are true non-entries") {
    val (_, pairs) = Tasks.attributeInference(g, seed = 3L)
    pairs.filterNot(_.positive).foreach { p =>
      assert(!g.attrEntrySet.contains(p.i.toLong * g.d + p.j))
    }
  }

  test("attribute split fails before sampling when no (node, attribute) pair is absent") {
    val full = AttributedGraph(2, 2, src = Array(0), dst = Array(1),
      attrNode = Array(0, 0, 1, 1), attrId = Array(0, 1, 0, 1), attrW = Array(1.0, 1.0, 1.0, 1.0),
      labels = Array.fill(2)(Array(0)), directed = true)
    val msg = intercept[IllegalArgumentException](Tasks.attributeInference(full, trainRatio = 0.5)).getMessage
    for (part <- Seq("cannot sample 2 negative", "n = 2", "d = 2", "4 distinct")) assert(msg.contains(part), msg)
  }

  test("link split fails before sampling when every pair of distinct nodes is an edge") {
    val pairs = for (u <- 0 until 3; v <- 0 until 3 if u != v) yield (u, v)
    def complete(directed: Boolean) = AttributedGraph(3, 1, src = pairs.map(_._1).toArray, dst = pairs.map(_._2).toArray,
      attrNode = Array(0), attrId = Array(0), attrW = Array(1.0), labels = Array.fill(3)(Array(0)), directed = directed)
    // One removed edge either way: 6 directed edges at 0.3, 3 undirected pairs at 0.5.
    for ((directed, ratio) <- Seq((true, 0.3), (false, 0.5))) {
      val msg = intercept[IllegalArgumentException](Tasks.linkPrediction(complete(directed), ratio)).getMessage
      for (part <- Seq("cannot sample 1 negative", "n = 3", "m = 6", "6 distinct")) assert(msg.contains(part), msg)
    }
    // Self-loops are no candidates: 5 of the 6 pairs plus 3 self-loops leave the non-edge 0 → 1.
    val loops = AttributedGraph(3, 1, src = pairs.tail.map(_._1).toArray ++ Array(0, 1, 2),
      dst = pairs.tail.map(_._2).toArray ++ Array(0, 1, 2),
      attrNode = Array(0), attrId = Array(0), attrW = Array(1.0), labels = Array.fill(3)(Array(0)), directed = true)
    val (_, sampled) = Tasks.linkPrediction(loops, removeRatio = 0.3)
    assert(sampled.filterNot(_.positive).map(p => (p.i, p.j)).toSeq == Seq((0, 1), (0, 1)))
  }

  test("splits fail before splitting when a directed edge or an attribute entry repeats") {
    // 40 nodes with two out-edges and two attributes each, every one given twice.
    val n = 40
    val (src, dst) = (0 until n).flatMap(i => Seq((i, (i + 1) % n), (i, (i + 7) % n))).unzip
    val (attrNode, attrId) = (0 until n).flatMap(i => Seq((i, i % 10), (i, (3 * i + 1) % 10))).unzip
    def twice(a: IndexedSeq[Int]): Array[Int] = (a ++ a).toArray
    def doubled(directed: Boolean) = AttributedGraph(n, 10, twice(src), twice(dst), twice(attrNode), twice(attrId),
      Array.fill(4 * n)(1.0), labels = Array.fill(n)(Array(0)), directed = directed)
    val attrMsg = intercept[IllegalArgumentException](Tasks.attributeInference(doubled(true), seed = 1L)).getMessage
    for (part <- Seq("160 entries", "80 distinct")) assert(attrMsg.contains(part), attrMsg)
    val linkMsg = intercept[IllegalArgumentException](Tasks.linkPrediction(doubled(true), seed = 2L)).getMessage
    for (part <- Seq("160 edges", "80 distinct")) assert(linkMsg.contains(part), linkMsg)
    // Undirected, the split runs on distinct pairs, so no removed pair stays.
    val (gRes, pairs) = Tasks.linkPrediction(doubled(false), seed = 2L)
    assert(pairs.count(_.positive) == (80 * 0.3).toInt)
    pairs.filter(_.positive).foreach { p =>
      assert(!gRes.edgeSet.contains(p.i.toLong * n + p.j) && !gRes.edgeSet.contains(p.j.toLong * n + p.i), s"leaked $p")
    }
  }

  test("attribute split preserves the graph edges untouched") {
    val (gTrain, _) = Tasks.attributeInference(g, seed = 4L)
    assert(gTrain.m == g.m)
  }

  test("directed link split removes the requested fraction") {
    val (gRes, pairs) = Tasks.linkPrediction(g, removeRatio = 0.3, seed = 1L)
    val removed = g.m - gRes.m
    assert(removed == (g.m * 0.3).toInt)
    assert(pairs.count(_.positive) == removed)
    assert(pairs.count(_.positive) == pairs.count(!_.positive))
  }

  test("directed link split: positives are true edges absent from the residual") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 2L)
    pairs.filter(_.positive).foreach { p =>
      assert(g.edgeSet.contains(p.i.toLong * g.n + p.j))
      assert(!gRes.edgeSet.contains(p.i.toLong * g.n + p.j))
    }
  }

  test("link negatives are non-edges without self-loops") {
    val (_, pairs) = Tasks.linkPrediction(g, seed = 3L)
    pairs.filterNot(_.positive).foreach { p =>
      assert(p.i != p.j)
      assert(!g.edgeSet.contains(p.i.toLong * g.n + p.j))
    }
  }

  test("undirected link split removes both directions together") {
    val (gRes, pairs) = Tasks.linkPrediction(gu, removeRatio = 0.3, seed = 4L)
    pairs.filter(_.positive).foreach { p =>
      assert(!gRes.edgeSet.contains(p.i.toLong * gu.n + p.j))
      assert(!gRes.edgeSet.contains(p.j.toLong * gu.n + p.i))
    }
    // residual still stores both directions of kept edges
    val set = gRes.src.indices.map(i => (gRes.src(i), gRes.dst(i))).toSet
    set.foreach { case (u, v) => assert(set.contains((v, u))) }
  }

  test("undirected negatives avoid edges in either direction") {
    val (_, pairs) = Tasks.linkPrediction(gu, seed = 5L)
    pairs.filterNot(_.positive).foreach { p =>
      assert(!gu.edgeSet.contains(p.i.toLong * gu.n + p.j))
      assert(!gu.edgeSet.contains(p.j.toLong * gu.n + p.i))
    }
  }

  /** The boxed `Vector` link split `Tasks.linkPrediction` replaced, with
    * its non-edge sampler, kept as the oracle of the array form.
    */
  private def vectorLinkSplit(g: AttributedGraph, removeRatio: Double,
                              seed: Long): (AttributedGraph, Array[Tasks.TestPair]) = {
    val rnd = new Random(seed)
    def sampleNonEdges(count: Int): Vector[Tasks.TestPair] = {
      val out = Vector.newBuilder[Tasks.TestPair]
      var need = count
      while (need > 0) {
        val u = rnd.nextInt(g.n)
        val v = rnd.nextInt(g.n)
        val isEdge = g.edgeSet.contains(u.toLong * g.n + v) ||
          (!g.directed && g.edgeSet.contains(v.toLong * g.n + u))
        if (u != v && !isEdge) { out += Tasks.TestPair(u, v, positive = false); need -= 1 }
      }
      out.result()
    }
    if (g.directed) {
      val idx = rnd.shuffle((0 until g.m).toVector)
      val nRemove = (g.m * removeRatio).toInt
      val (removed, kept) = idx.splitAt(nRemove)
      val residual = g.withEdges(kept.map(g.src).toArray, kept.map(g.dst).toArray)
      val positives = removed.map(i => Tasks.TestPair(g.src(i), g.dst(i), positive = true))
      (residual, (positives ++ sampleNonEdges(positives.size)).toArray)
    } else {
      val pairs = (0 until g.m).map(i => (math.min(g.src(i), g.dst(i)), math.max(g.src(i), g.dst(i)))).distinct
      val idx = rnd.shuffle(pairs.toVector)
      val nRemove = (idx.size * removeRatio).toInt
      val (removed, kept) = idx.splitAt(nRemove)
      val src = Array.newBuilder[Int]
      val dst = Array.newBuilder[Int]
      kept.foreach { case (u, v) => src += u; dst += v; src += v; dst += u }
      val residual = g.withEdges(src.result(), dst.result())
      val positives = removed.map { case (u, v) => Tasks.TestPair(u, v, positive = true) }
      (residual, (positives ++ sampleNonEdges(positives.size)).toArray)
    }
  }

  test("the array link split equals the boxed Vector split exactly, directed and undirected") {
    // A repeated edge and a reciprocal pair give the undirected dedupe
    // later occurrences to drop.
    val dup = gu.withEdges(gu.src ++ Array(gu.src(0), gu.dst(3)), gu.dst ++ Array(gu.dst(0), gu.src(3)))
    for (graph <- Seq(g, gu, dup, Fixtures.tiny); seed <- Seq(1L, 77L, 2024L); ratio <- Seq(0.3, 0.5)) {
      val (gRes, pairs) = Tasks.linkPrediction(graph, ratio, seed)
      val (oRes, oPairs) = vectorLinkSplit(graph, ratio, seed)
      val where = s"directed = ${graph.directed}, m = ${graph.m}, seed $seed, ratio $ratio"
      assert(gRes.src.sameElements(oRes.src) && gRes.dst.sameElements(oRes.dst), where)
      assert(gRes.n == oRes.n && gRes.directed == oRes.directed, where)
      assert(pairs.toSeq == oPairs.toSeq, where)
    }
  }

  /** The boxed `Vector` attribute split `Tasks.attributeInference`
    * replaced, with the boxed `HashSet` it sampled negatives against, kept
    * as the oracle of the array form.
    */
  private def vectorAttrSplit(g: AttributedGraph, trainRatio: Double,
                              seed: Long): (AttributedGraph, Array[Tasks.TestPair]) = {
    val entries = new java.util.HashSet[Long]()
    for (i <- 0 until g.numAttrEntries) entries.add(g.attrNode(i).toLong * g.d + g.attrId(i))
    val rnd = new Random(seed)
    val idx = rnd.shuffle((0 until g.numAttrEntries).toVector)
    val nTrain = (g.numAttrEntries * trainRatio).toInt
    val (trainIdx, testIdx) = idx.splitAt(nTrain)
    val gTrain = g.withAttrEntries(
      trainIdx.map(g.attrNode).toArray,
      trainIdx.map(g.attrId).toArray,
      trainIdx.map(g.attrW).toArray)
    val positives = testIdx.map(i => Tasks.TestPair(g.attrNode(i), g.attrId(i), positive = true))
    val negatives = Vector.newBuilder[Tasks.TestPair]
    var need = positives.size
    while (need > 0) {
      val vi = rnd.nextInt(g.n)
      val rj = rnd.nextInt(g.d)
      if (!entries.contains(vi.toLong * g.d + rj)) {
        negatives += Tasks.TestPair(vi, rj, positive = false)
        need -= 1
      }
    }
    (gTrain, (positives ++ negatives.result()).toArray)
  }

  test("the array attribute split equals the boxed Vector split exactly") {
    for (graph <- Seq(g, gu, Fixtures.tiny); seed <- Seq(1L, 99L, 2024L); ratio <- Seq(0.5, 0.8, 0.9)) {
      val (gTrain, pairs) = Tasks.attributeInference(graph, ratio, seed)
      val (oTrain, oPairs) = vectorAttrSplit(graph, ratio, seed)
      val where = s"n = ${graph.n}, entries = ${graph.numAttrEntries}, seed $seed, ratio $ratio"
      assert(gTrain.attrNode.sameElements(oTrain.attrNode), where)
      assert(gTrain.attrId.sameElements(oTrain.attrId), where)
      assert(gTrain.attrW.sameElements(oTrain.attrW), where)
      assert(gTrain.src.sameElements(oTrain.src) && gTrain.dst.sameElements(oTrain.dst), where)
      assert(pairs.toSeq == oPairs.toSeq, where)
    }
  }

  test("splits are deterministic in the seed") {
    val (_, p1) = Tasks.linkPrediction(g, seed = 9L)
    val (_, p2) = Tasks.linkPrediction(g, seed = 9L)
    assert(p1.toSeq == p2.toSeq)
    val (_, p3) = Tasks.linkPrediction(g, seed = 10L)
    assert(p1.toSeq != p3.toSeq)
  }

  test("evaluate wires scorer to metrics (perfect oracle scorer gives AUC 1)") {
    val (_, pairs) = Tasks.linkPrediction(g, seed = 6L)
    val (auc, ap) = Tasks.evaluate(pairs, (i, j) =>
      if (g.edgeSet.contains(i.toLong * g.n + j)) 1.0 else 0.0)
    assert(auc == 1.0 && ap == 1.0)
  }

  test("invalid ratios are rejected") {
    assertThrows[IllegalArgumentException](Tasks.attributeInference(g, trainRatio = 0.0))
    assertThrows[IllegalArgumentException](Tasks.linkPrediction(g, removeRatio = 1.0))
  }
}
