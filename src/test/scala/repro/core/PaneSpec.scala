package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.eval.{Metrics, Tasks}
import repro.linalg.DenseMatrixOps._

class PaneSpec extends AnyFunSuite {

  private lazy val g = Fixtures.mid
  private val cfg = PaneConfig(k = 16, alpha = 0.5, eps = 0.015)

  test("config derives t from eps and alpha (Algorithm 1 Line 1)") {
    assert(PaneConfig(alpha = 0.5, eps = 0.015).t == 6)
    assert(PaneConfig(alpha = 0.5, eps = 0.25).t == 1)
    assert(PaneConfig(alpha = 0.5, eps = 0.015).refineIters == 6)
  }

  test("embed rejects a bad k before any work starts, naming k, n, d and nb") {
    val tiny = Fixtures.tiny // n = 120, d = 24
    for (kBad <- Seq(7, 0, -2, 50)) {
      val msg = intercept[IllegalArgumentException](Pane.embed(tiny, PaneConfig(k = kBad))).getMessage
      for (part <- Seq(s"k = $kBad", "n = 120", "d = 24", "nb = 1")) assert(msg.contains(part), msg)
    }
    PaneConfig(k = 48).requireK(120, 24, 1) // k = 2·min(n, d) fits
  }

  test("embed is Apmi.run, greedyInit with t iterations, then refineIters full sweeps") {
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.t, cfg.seed)
    for (_ <- 0 until cfg.t) {
      SvdCcd.nodeSweep(st, 0, g.n)
      SvdCcd.attrSweep(st, 0, g.d)
    }
    val e = Pane.embed(g, cfg)
    assert((e.xf - st.xf).maxAbs == 0.0)
    assert((e.xb - st.xb).maxAbs == 0.0)
    assert((e.y - st.y).maxAbs == 0.0)
  }

  test("embed returns finite embeddings of the requested budget") {
    val e = Pane.embed(g, cfg)
    assert(e.k == 16)
    assert(e.xf.rows == g.n && e.y.rows == g.d)
    assert(e.xf.data.forall(java.lang.Double.isFinite))
    assert(e.xb.data.forall(java.lang.Double.isFinite))
    assert(e.y.data.forall(java.lang.Double.isFinite))
  }

  test("embeddings approximate the affinity matrices (objective sanity)") {
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val e = Pane.embed(g, cfg)
    val obj = SvdCcd.objective(aff.fPrime, aff.bPrime, e)
    val baseline = aff.fPrime.data.map(x => x * x).sum + aff.bPrime.data.map(x => x * x).sum
    assert(obj < baseline * 0.7, s"embedding should explain >30% of affinity mass: $obj vs $baseline")
  }

  test("attrScore equals the explicit inner products of Equation (21)") {
    val e = Pane.embed(Fixtures.tiny, PaneConfig(k = 8))
    for (vi <- 0 until 5; rj <- 0 until 3) {
      var expected = 0.0
      for (l <- 0 until 4)
        expected += e.xf(vi, l) * e.y(rj, l) + e.xb(vi, l) * e.y(rj, l)
      assert(math.abs(Pane.attrScore(e, vi, rj) - expected) < 1e-12)
    }
  }

  test("LinkScorer matches the explicit sum over attributes of Equation (22)") {
    val e = Pane.embed(Fixtures.tiny, PaneConfig(k = 8))
    val sc = new Pane.LinkScorer(e)
    val gEx = Fixtures.tiny
    for (vi <- 0 until 4; vj <- 5 until 8) {
      var expected = 0.0
      for (rl <- 0 until gEx.d) {
        var f = 0.0; var b = 0.0
        for (l <- 0 until 4) { f += e.xf(vi, l) * e.y(rl, l); b += e.xb(vj, l) * e.y(rl, l) }
        expected += f * b
      }
      assert(math.abs(sc.directed(vi, vj) - expected) < 1e-8)
      assert(math.abs(sc.undirected(vi, vj) - (expected + sc.directed(vj, vi))) < 1e-8)
    }
  }

  test("attribute inference beats random by a wide margin on homophilous data") {
    val (gTrain, pairs) = Tasks.attributeInference(g, trainRatio = 0.8, seed = 1L)
    val e = Pane.embed(gTrain, cfg)
    val (auc, ap) = Tasks.evaluate(pairs, Pane.attrScore(e, _, _))
    assert(auc > 0.75, s"attribute inference AUC too low: $auc")
    assert(ap > 0.7, s"attribute inference AP too low: $ap")
  }

  test("link prediction beats random by a wide margin on homophilous data") {
    val (gRes, pairs) = Tasks.linkPrediction(g, removeRatio = 0.3, seed = 2L)
    val e = Pane.embed(gRes, cfg)
    val sc = new Pane.LinkScorer(e)
    val (auc, _) = Tasks.evaluate(pairs, sc.directed)
    assert(auc > 0.7, s"link prediction AUC too low: $auc")
  }

  test("GreedyInit beats random init at equal iteration budget (§5.7)") {
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val iters = 2
    val greedy = ParallelPane.psvdccd(SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, svdIters = iters), iters, nb = 1)
    val random = ParallelPane.psvdccd(SvdCcd.randomInit(aff.fPrime, aff.bPrime, cfg.k), iters, nb = 1)
    val og = SvdCcd.objective(aff.fPrime, aff.bPrime, greedy)
    val or = SvdCcd.objective(aff.fPrime, aff.bPrime, random)
    assert(og < or, s"GreedyInit ($og) should beat random init ($or) at $iters CCD iterations")
  }

  test("PANE-R: randomInit then 20 sweeps stays finite and lowers the objective") {
    val aff = Apmi.run(Fixtures.tiny, cfg.alpha, cfg.t)
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k = 8, seed = cfg.seed)
    val before = SvdCcd.objective(aff.fPrime, aff.bPrime, Embeddings(st.xf.copy, st.xb.copy, st.y.copy))
    val e = ParallelPane.psvdccd(st, 20, 1)
    assert(e.xf.data.forall(java.lang.Double.isFinite))
    assert(SvdCcd.objective(aff.fPrime, aff.bPrime, e) < before)
  }

  test("deterministic in the seed") {
    val a = Pane.embed(Fixtures.tiny, PaneConfig(k = 8, seed = 5L))
    val b = Pane.embed(Fixtures.tiny, PaneConfig(k = 8, seed = 5L))
    assert((a.xf - b.xf).maxAbs == 0.0)
    assert((a.y - b.y).maxAbs == 0.0)
  }

  test("forward/backward asymmetry: directed edges score higher than their reverses") {
    // On a directed graph, Eq 22 should on average prefer the true
    // direction (the asymmetric-transitivity claim of the paper).
    val (gRes, pairs) = Tasks.linkPrediction(g, removeRatio = 0.3, seed = 3L)
    val e = Pane.embed(gRes, cfg)
    val sc = new Pane.LinkScorer(e)
    val positives = pairs.filter(p => p.positive)
    // count pairs where the true direction wins; exclude reciprocal edges
    val oneWay = positives.filter(p => !gRes.edgeSet.contains(p.j.toLong * gRes.n + p.i))
    val wins = oneWay.count(p => sc.directed(p.i, p.j) > sc.directed(p.j, p.i))
    assert(wins.toDouble / oneWay.length > 0.5)
  }
}
