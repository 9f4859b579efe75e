package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.eval.Tasks
import repro.graph.SynthGraph

class BaselinesSpec extends AnyFunSuite {

  private lazy val g = Fixtures.mid
  private lazy val gu = Fixtures.midUndirected
  private val k = 16

  // ------------------------------------------------------------ NRP

  test("NRP produces finite forward/backward embeddings of dim k/2") {
    val m = Nrp.embed(g, k)
    assert(m.xf.rows == g.n && m.xf.cols == k / 2)
    assert(m.xb.rows == g.n && m.xb.cols == k / 2)
    assert(m.xf.data.forall(java.lang.Double.isFinite))
  }

  test("NRP link prediction beats random on homophilous data") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 11L)
    val m = Nrp.embed(gRes, k)
    val (auc, _) = Tasks.evaluate(pairs, m.directed)
    // structure-only method on an attribute-homophilous graph: modest but
    // clearly better than random
    assert(auc > 0.55, s"NRP AUC $auc")
  }

  test("NRP undirected score is the symmetrized directed score") {
    val m = Nrp.embed(g, k)
    assert(math.abs(m.undirected(1, 2) - (m.directed(1, 2) + m.directed(2, 1))) < 1e-12)
  }

  test("NRP counts a repeated edge once, as P and the out-degrees do") {
    val edges = g.src.zip(g.dst).distinct
    val dedup = g.withEdges(edges.map(_._1), edges.map(_._2))
    val repeated = dedup.withEdges(dedup.src ++ dedup.src.take(50), dedup.dst ++ dedup.dst.take(50))
    val (a, b) = (Nrp.embed(dedup, k), Nrp.embed(repeated, k))
    assert(java.util.Arrays.equals(a.xf.data, b.xf.data))
    assert(java.util.Arrays.equals(a.xb.data, b.xb.data))
  }

  // ----------------------------------------------------------- TADW

  test("TADW enforces the n×n memory wall") {
    val big = SynthGraph.generate(SynthGraph.Config(
      n = Tadw.maxNodes + 1, avgOutDeg = 1, d = 4, avgAttrs = 1, communities = 2, seed = 1L))
    assertThrows[IllegalArgumentException](Tadw.embed(big, k))
  }

  test("TADW produces a k-dim representation and beats random on link prediction") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 12L)
    val m = Tadw.embed(gRes, k, iters = 5)
    assert(m.x.rows == g.n && m.x.cols == k)
    assert(m.x.data.forall(java.lang.Double.isFinite))
    val (auc, _) = Tasks.evaluate(pairs, m.score)
    assert(auc > 0.55, s"TADW AUC $auc")
  }

  // ----------------------------------------------------------- BANE / LQANR

  test("BANE codes are exactly ±1") {
    val m = Bane.embed(g, k)
    assert(m.x.data.forall(v => v == 1.0 || v == -1.0))
  }

  test("LQANR codes are integers within ±2^b") {
    val bits = 3
    val m = Bane.quantized(g, k, bits)
    val bound = (1 << bits).toDouble
    assert(m.x.data.forall(v => v == math.rint(v) && math.abs(v) <= bound))
  }

  test("BANE link prediction beats random") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 13L)
    val m = Bane.embed(gRes, k)
    val (auc, _) = Tasks.evaluate(pairs, m.score)
    assert(auc > 0.55, s"BANE AUC $auc")
  }

  test("LQANR (more bits) is at least as accurate as BANE (1 bit) here") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 14L)
    val (aucBane, _) = Tasks.evaluate(pairs, Bane.embed(gRes, k).score)
    val (aucLq, _) = Tasks.evaluate(pairs, Bane.quantized(gRes, k, bits = 4).score)
    assert(aucLq >= aucBane - 0.03, s"LQANR $aucLq vs BANE $aucBane")
  }

  test("Bane rejects invalid bit widths") {
    assertThrows[IllegalArgumentException](Bane.quantized(g, k, bits = 0))
  }

  // ----------------------------------------------------------- CAN-lite

  test("CAN-lite co-embeds nodes and attributes with matching dims") {
    val m = CanLite.embed(g, k)
    assert(m.x.rows == g.n && m.x.cols == k / 2)
    assert(m.y.rows == g.d && m.y.cols == k / 2)
  }

  test("CAN-lite attribute inference beats random") {
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 15L)
    val m = CanLite.embed(gTrain, k)
    val (auc, _) = Tasks.evaluate(pairs, m.attrScore)
    assert(auc > 0.6, s"CAN-lite attr AUC $auc")
  }

  // ----------------------------------------------------------- NetMF

  test("NetMF enforces the n×n memory wall") {
    val big = SynthGraph.generate(SynthGraph.Config(
      n = NetMf.maxNodes + 1, avgOutDeg = 1, d = 4, avgAttrs = 1, communities = 2, seed = 2L))
    assertThrows[IllegalArgumentException](NetMf.embed(big, k))
  }

  test("NetMF link prediction beats random") {
    val (gRes, pairs) = Tasks.linkPrediction(gu, seed = 16L)
    val m = NetMf.embed(gRes, k)
    val (auc, _) = Tasks.evaluate(pairs, m.score)
    assert(auc > 0.6, s"NetMF AUC $auc")
  }

  // ----------------------------------------------------------- GCN-prop

  test("GCN-prop produces finite k-dim embeddings and beats random") {
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 17L)
    val m = GcnProp.embed(gRes, k)
    assert(m.x.rows == g.n && m.x.cols == k)
    assert(m.x.data.forall(java.lang.Double.isFinite))
    val (auc, _) = Tasks.evaluate(pairs, m.score)
    assert(auc > 0.55, s"GCN-prop AUC $auc")
  }

  // ----------------------------------------------------------- BLA-lite

  test("BLA-lite scores held-out attributes above random") {
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 18L)
    val m = BlaLite.infer(gTrain)
    val (auc, _) = Tasks.evaluate(pairs, m.attrScore)
    assert(auc > 0.6, s"BLA-lite AUC $auc")
  }

  test("BLA-lite propagation spreads evidence to attribute-less neighbours") {
    val gd = repro.Fixtures.figure1NoAttrs
    val m = BlaLite.infer(gd, iters = 4)
    // node 0 has no attributes but points at attributed node 2
    assert(m.z.row(0).sum > 0)
  }

  // ----------------------------------------------------------- comparison shape

  test("PANE beats the faithful baselines on directed link prediction (paper's headline)") {
    import repro.core.{Pane, PaneConfig}
    val (gRes, pairs) = Tasks.linkPrediction(g, seed = 19L)
    val pane = Pane.embed(gRes, PaneConfig(k = k))
    val sc = new Pane.LinkScorer(pane)
    val (aucPane, _) = Tasks.evaluate(pairs, sc.directed)
    val (aucNrp, _) = Tasks.evaluate(pairs, Nrp.embed(gRes, k).directed)
    val (aucBane, _) = Tasks.evaluate(pairs, Bane.embed(gRes, k).score)
    val (aucTadw, _) = Tasks.evaluate(pairs, Tadw.embed(gRes, k, iters = 5).score)
    assert(aucPane > aucNrp, s"PANE $aucPane should beat NRP $aucNrp")
    assert(aucPane > aucBane, s"PANE $aucPane should beat BANE $aucBane")
    assert(aucPane > aucTadw, s"PANE $aucPane should beat TADW $aucTadw")
    // CAN-lite is a *linear* substitute that is strictly stronger than the
    // published CAN (VLDB'20 Table 5: CAN scored 0.663 on Cora vs PANE's
    // 0.933); on lite data it lands within a few points of PANE rather
    // than far below. Assert the band, not dominance — see DESIGN.md §6.
    val (aucCan, _) = Tasks.evaluate(pairs, CanLite.embed(gRes, k).linkScore)
    assert(aucPane > aucCan - 0.06, s"PANE $aucPane vs CAN-lite $aucCan")
  }

  test("PANE beats CAN-lite and BLA-lite on attribute inference (Table 4 shape)") {
    import repro.core.{Pane, PaneConfig}
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 20L)
    val pane = Pane.embed(gTrain, PaneConfig(k = k))
    val (aucPane, _) = Tasks.evaluate(pairs, Pane.attrScore(pane, _, _))
    val (aucCan, _) = Tasks.evaluate(pairs, CanLite.embed(gTrain, k).attrScore)
    val (aucBla, _) = Tasks.evaluate(pairs, BlaLite.infer(gTrain).attrScore)
    assert(aucPane > aucCan - 0.02, s"PANE $aucPane vs CAN-lite $aucCan")
    assert(aucPane > aucBla - 0.02, s"PANE $aucPane vs BLA-lite $aucBla")
  }
}
