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
