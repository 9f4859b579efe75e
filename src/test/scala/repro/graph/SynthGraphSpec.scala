package repro.graph

import org.scalatest.funsuite.AnyFunSuite

class SynthGraphSpec extends AnyFunSuite {

  private val cfg = SynthGraph.Config(
    n = 500, avgOutDeg = 5, d = 50, avgAttrs = 4, communities = 5,
    directed = true, name = "t", seed = 21L)

  test("generation is deterministic in the seed") {
    val a = SynthGraph.generate(cfg)
    val b = SynthGraph.generate(cfg)
    assert(a.src.toSeq == b.src.toSeq)
    assert(a.dst.toSeq == b.dst.toSeq)
    assert(a.attrNode.toSeq == b.attrNode.toSeq)
    assert(a.attrW.toSeq == b.attrW.toSeq)
    val c = SynthGraph.generate(cfg.copy(seed = 22L))
    assert(a.src.toSeq != c.src.toSeq)
  }

  test("sizes are in the requested ballpark") {
    val g = SynthGraph.generate(cfg)
    assert(g.n == 500 && g.d == 50)
    assert(g.m > 500 && g.m < 500 * 30)
    assert(g.numAttrEntries >= 500) // every node has >= 1 attribute
    assert(g.numLabels == 5)
  }

  test("every node has at least one attribute and one out-edge") {
    val g = SynthGraph.generate(cfg)
    val hasAttr = new Array[Boolean](g.n)
    g.attrNode.foreach(hasAttr(_) = true)
    assert(hasAttr.forall(identity))
    // out-degree >= 1 for (almost) all nodes: generator draws deg >= 1,
    // though self-loop skips can zero it — allow a tiny number.
    val zeroOut = g.outDegree.count(_ == 0)
    assert(zeroOut <= g.n / 100)
  }

  test("no self-loops or duplicate directed edges") {
    val g = SynthGraph.generate(cfg)
    assert(!g.src.indices.exists(i => g.src(i) == g.dst(i)))
    val pairs = g.src.indices.map(i => (g.src(i), g.dst(i)))
    assert(pairs.distinct.size == pairs.size)
  }

  test("undirected graphs store both directions") {
    val g = SynthGraph.generate(cfg.copy(directed = false))
    val set = g.src.indices.map(i => (g.src(i), g.dst(i))).toSet
    set.foreach { case (u, v) => assert(set.contains((v, u))) }
  }

  test("edge homophily: most edges stay within the community") {
    val g = SynthGraph.generate(cfg)
    val inComm = g.src.indices.count(i => g.src(i) % 5 == g.dst(i) % 5)
    assert(inComm.toDouble / g.m > 0.5)
  }

  test("attribute homophily: same-community nodes share attributes more") {
    val g = SynthGraph.generate(cfg)
    val byNode = g.attrNode.indices.groupBy(g.attrNode(_)).view
      .mapValues(_.map(g.attrId(_)).toSet).toMap
    def overlap(a: Int, b: Int): Double = {
      val sa = byNode.getOrElse(a, Set.empty)
      val sb = byNode.getOrElse(b, Set.empty)
      if (sa.isEmpty || sb.isEmpty) 0.0
      else sa.intersect(sb).size.toDouble / math.min(sa.size, sb.size)
    }
    val rnd = new scala.util.Random(1)
    var same = 0.0; var diff = 0.0; val trials = 2000
    for (_ <- 1 to trials) {
      val a = rnd.nextInt(g.n)
      val b = rnd.nextInt(g.n)
      if (a % 5 == b % 5) same += overlap(a, b) else diff += overlap(a, b)
    }
    assert(same > diff) // strong signal, not a flaky margin: zipf windows differ per community
  }

  test("multiLabel graphs produce some nodes with two labels") {
    val g = SynthGraph.generate(cfg.copy(multiLabel = true))
    assert(g.labels.exists(_.length == 2))
    assert(g.labels.forall(_.nonEmpty))
  }

  test("LongSet adds each key once, across table growth") {
    val set = new LongSet(1)
    val rnd = new scala.util.Random(3L)
    val keys = Array.fill(5000)(rnd.nextInt(2000).toLong * 1000003L)
    val oracle = new java.util.HashSet[Long]()
    for (k <- keys) assert(set.add(k) == oracle.add(k), s"key $k")
    assert(oracle.size > 1000)
    for (k <- keys) assert(!set.add(k), s"repeat $k")
  }

  test("primitive-set dedupe gives the boxed-set generator's graph on citeseer, pubmed and facebook (undirected)") {
    for (c <- Seq(Datasets.citeseer, Datasets.pubmed, Datasets.facebook)) {
      val (a, b) = (SynthGraph.generate(c), SynthGraphOracle.generate(c))
      val where = c.name
      assert(a.n == b.n && a.d == b.d && a.directed == b.directed && a.name == b.name, where)
      assert(java.util.Arrays.equals(a.src, b.src) && java.util.Arrays.equals(a.dst, b.dst), s"edges $where")
      assert(java.util.Arrays.equals(a.attrNode, b.attrNode) && java.util.Arrays.equals(a.attrId, b.attrId) &&
        java.util.Arrays.equals(a.attrW, b.attrW), s"attributes $where")
      assert(a.labels.length == b.labels.length &&
        a.labels.indices.forall(v => java.util.Arrays.equals(a.labels(v), b.labels(v))), s"labels $where")
    }
  }

  test("Datasets catalog loads and byName resolves") {
    val g = Datasets.load(Datasets.cora)
    assert(g.n == 2708 && g.name == "cora-lite")
    assert(Datasets.byName("cora-lite").n == 2708)
    assertThrows[IllegalArgumentException](Datasets.byName("nope"))
    assert(Datasets.all.size == 8)
    assert(Datasets.small.size == 5 && Datasets.large.size == 3)
  }
}
