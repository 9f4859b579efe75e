package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.eval.Tasks
import repro.linalg.CooOracle
import repro.linalg.DenseMatrixOps._

class AttributedGraphSpec extends AnyFunSuite {

  private val g = Fixtures.figure1
  private val gDangling = Fixtures.figure1NoAttrs

  test("basic cardinalities") {
    assert(g.n == 6 && g.d == 3)
    assert(g.m == 10)
    assert(g.numAttrEntries == 8)
    assert(g.numLabels == 3)
  }

  test("adjacency merges duplicate edges and is 0/1") {
    val a = AttributedGraph(3, 1,
      src = Array(0, 0, 1), dst = Array(1, 1, 2),
      attrNode = Array(0), attrId = Array(0), attrW = Array(1.0),
      labels = Array.fill(3)(Array(0)), directed = true)
    assert(a.adjacency.nnz == 2)
    assert(a.adjacency.values.forall(_ == 1.0))
    assert(a.outDegree.toSeq == Seq(1, 1, 0))
  }

  test("a repeated edge leaves P row-stochastic and equal to the deduplicated graph's") {
    val dup = g.withEdges(g.src ++ Array(2, 0, 2), g.dst ++ Array(3, 2, 3))
    val p = dup.walkMatrix
    assert((p.toDense - g.walkMatrix.toDense).maxAbs == 0.0)
    p.rowSums.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
  }

  test("P, Rr and Rc equal the groupBy builder's, on the fixtures and two training graphs") {
    val training = Seq(Datasets.citeseer, Datasets.pubmed)
      .map(c => Tasks.attributeInference(Datasets.load(c), trainRatio = 0.8, seed = 99L)._1)
    for (gr <- Seq(g, gDangling, Fixtures.mid, Fixtures.midUndirected) ++ training) {
      assert(CooOracle.same(gr.walkMatrix, CooOracle.walkMatrix(gr)), s"${gr.name} P")
      val r = CooOracle.attrMatrix(gr)
      assert(CooOracle.same(gr.attrRowNorm, r.rowNormalized), s"${gr.name} Rr")
      assert(CooOracle.same(gr.attrColNorm, r.colNormalized), s"${gr.name} Rc")
    }
  }

  test("out-of-range ids and non-finite or negative weights fail loudly") {
    def graph(src: Int = 0, dst: Int = 1, attrNode: Int = 0, attrId: Int = 0, w: Double = 1.0) =
      AttributedGraph(3, 1,
        src = Array(1, src), dst = Array(2, dst),
        attrNode = Array(attrNode), attrId = Array(attrId), attrW = Array(w),
        labels = Array.fill(3)(Array(0)), directed = true)
    def message(g: => AttributedGraph): String = intercept[IllegalArgumentException](g).getMessage
    assert(message(graph(src = 7)).contains("edge 1: src 7 out of range [0,3)"))
    assert(message(graph(dst = -1)).contains("edge 1: dst -1 out of range [0,3)"))
    assert(message(graph(attrNode = 9)).contains("attribute entry 0: node 9 out of range [0,3)"))
    assert(message(graph(attrId = 1)).contains("attribute entry 0: attribute 1 out of range [0,1)"))
    assert(message(graph(w = Double.NaN)).contains("attribute entry 0: weight NaN is not finite"))
    assert(message(graph(w = Double.PositiveInfinity)).contains("weight Infinity is not finite"))
    assert(message(graph(w = -1.0)).contains("attribute entry 0: weight -1.0 is negative"))
    assert(message(g.withEdges(Array(0), Array(6))).contains("dst 6 out of range [0,6)"))
  }

  test("walkMatrix rows are stochastic") {
    val rs = g.walkMatrix.rowSums
    rs.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
  }

  test("walkMatrix gives dangling nodes a self-loop") {
    // node 5 in the dangling fixture has no out-edges
    assert(gDangling.outDegree(5) == 0)
    val p = gDangling.walkMatrix
    val dense = p.toDense
    assert(dense(5, 5) == 1.0)
    assert(math.abs(p.rowSums(5) - 1.0) < 1e-12)
  }

  test("walkMatrix entries are 1/outdeg") {
    val p = g.walkMatrix.toDense
    // node 2 has out-edges to 3 and 4
    assert(math.abs(p(2, 3) - 0.5) < 1e-12)
    assert(math.abs(p(2, 4) - 0.5) < 1e-12)
  }

  test("attrMatrix holds the weights") {
    val r = g.attrMatrix.toDense
    assert(r(2, 1) == 2.0)
    assert(r(0, 0) == 1.0)
    assert(r(0, 2) == 0.0)
  }

  test("attrRowNorm rows sum to 1 for attributed nodes (walk semantics of Eq. 1)") {
    val rr = g.attrRowNorm
    val sums = rr.rowSums
    for (i <- 0 until g.n) assert(math.abs(sums(i) - 1.0) < 1e-12)
    // node 2: weights 1 and 2 → probabilities 1/3, 2/3
    assert(math.abs(rr.toDense(2, 0) - 1.0 / 3) < 1e-12)
    assert(math.abs(rr.toDense(2, 1) - 2.0 / 3) < 1e-12)
  }

  test("attrRowNorm leaves attribute-less nodes at zero") {
    val sums = gDangling.attrRowNorm.rowSums
    assert(sums(0) == 0.0 && sums(1) == 0.0)
  }

  test("attrColNorm columns sum to 1") {
    val cs = g.attrColNorm.colSums
    for (j <- 0 until g.d) assert(math.abs(cs(j) - 1.0) < 1e-12)
  }

  test("withEdges and withAttrEntries replace only what they say") {
    val g2 = g.withEdges(Array(0), Array(1))
    assert(g2.m == 1 && g2.numAttrEntries == g.numAttrEntries)
    val g3 = g.withAttrEntries(Array(0), Array(2), Array(1.0))
    assert(g3.numAttrEntries == 1 && g3.m == g.m)
  }

  test("edgeSet and attrEntrySet membership") {
    assert(g.edgeSet.contains(0L * g.n + 2)) // edge 0→2
    assert(!g.edgeSet.contains(2L * g.n + 0)) // no reverse edge
    assert(g.attrEntrySet.contains(2L * g.d + 1))
    assert(!g.attrEntrySet.contains(0L * g.d + 2))
  }

  test("edgeSet and attrEntrySet answer every probe as a HashSet of the same keys does") {
    val mid = Fixtures.mid
    val dup = mid.withEdges(mid.src ++ Array(mid.src(0), mid.src(5)), mid.dst ++ Array(mid.dst(0), mid.dst(5)))
    for (graph <- Seq(g, mid, dup, Fixtures.tiny)) {
      val edges = new java.util.HashSet[Long]()
      for (i <- 0 until graph.m) edges.add(graph.src(i).toLong * graph.n + graph.dst(i))
      val entries = new java.util.HashSet[Long]()
      for (i <- 0 until graph.numAttrEntries) entries.add(graph.attrNode(i).toLong * graph.d + graph.attrId(i))
      // Every key in range, plus one past each end.
      for (key <- -1L to graph.n.toLong * graph.n)
        assert(graph.edgeSet.contains(key) == edges.contains(key), s"edge key $key, n = ${graph.n}")
      for (key <- -1L to graph.n.toLong * graph.d)
        assert(graph.attrEntrySet.contains(key) == entries.contains(key), s"entry key $key, n = ${graph.n}")
      assert(graph.edgeSet.distinct == edges.size && graph.attrEntrySet.distinct == entries.size)
    }
  }

  test("numLabels handles empty label sets") {
    val a = g.copy(labels = Array.fill(6)(Array.empty[Int]))
    assert(a.numLabels == 0)
  }
}
