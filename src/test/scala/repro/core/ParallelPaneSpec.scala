package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.linalg.DenseMatrix

class ParallelPaneSpec extends AnyFunSuite {

  private lazy val g = Fixtures.mid
  private val alpha = 0.5
  private val t = 5
  private val k = 16

  test("ranges partition [0, size) exactly and near-equally") {
    for (size <- Seq(1, 7, 10, 100, 101); nb <- Seq(1, 3, 4, 16)) {
      val rs = ParallelPane.ranges(size, nb)
      assert(rs.head._1 == 0 && rs.last._2 == size)
      rs.sliding(2).foreach {
        case Seq((_, aUntil), (bFrom, _)) => assert(aUntil == bFrom)
        case _ =>
      }
      val sizes = rs.map(r => r._2 - r._1)
      assert(sizes.max - sizes.min <= 1)
      assert(sizes.forall(_ > 0))
    }
    for (nb <- Seq(0, -3)) assertThrows[IllegalArgumentException](ParallelPane.ranges(10, nb))
  }

  test("Lemma 4.1: PAPMI returns exactly the single-thread affinity matrices") {
    val single = Apmi.run(g, alpha, t)
    for (nb <- Seq(1, 2, 4, 7)) {
      val (f, b) = ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, alpha, t, nb)
      assert((f - single.fPrime).maxAbs == 0.0, s"F' mismatch at nb=$nb")
      assert((b - single.bPrime).maxAbs == 0.0, s"B' mismatch at nb=$nb")
    }
  }

  test("SMGreedyInit residuals are exact for its own embeddings") {
    val aff = Apmi.run(g, alpha, t)
    val st = ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4, nb = 4)
    assert((st.sf - (st.xf.mulT(st.y) - aff.fPrime)).maxAbs < 1e-8)
    assert((st.sb - (st.xb.mulT(st.y) - aff.bPrime)).maxAbs < 1e-8)
  }

  test("Lemma 4.2 direction: SMGreedyInit Y is near-unitary and Xb = B'·Y") {
    val aff = Apmi.run(g, alpha, t)
    val st = ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 8, nb = 4)
    assert((st.y.tMul(st.y) - DenseMatrix.eye(k / 2)).maxAbs < 1e-6)
    assert((st.xb - (aff.bPrime * st.y)).maxAbs < 1e-10)
  }

  test("SMGreedyInit approximates F' comparably to GreedyInit (bounded degradation)") {
    val aff = Apmi.run(g, alpha, t)
    val single = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6)
    val parallel = ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6, nb = 4)
    val errSingle = single.sf.frobenius
    val errParallel = parallel.sf.frobenius
    // The paper accepts a small degradation from split-merge SVD.
    assert(errParallel <= errSingle * 1.25 + 1e-9,
      s"split-merge SVD error $errParallel vs single $errSingle")
  }

  test("PSVDCCD reaches an objective within a few percent of single-thread SVDCCD") {
    val aff = Apmi.run(g, alpha, t)
    val single = ParallelPane.psvdccd(SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4), iters = 4, nb = 1)
    val parallel = ParallelPane.psvdccd(
      ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4, nb = 4), iters = 4, nb = 4)
    val os = SvdCcd.objective(aff.fPrime, aff.bPrime, single)
    val op = SvdCcd.objective(aff.fPrime, aff.bPrime, parallel)
    assert(op <= os * 1.1 + 1e-9, s"parallel objective $op vs single $os")
  }

  test("multi-thread PSVDCCD with shared init equals sequential exactly (phase independence)") {
    val aff = Apmi.run(g, alpha, t)
    val init1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val init2 = SvdCcd.State(init1.xf.copy, init1.xb.copy, init1.y.copy, init1.sf.copy, init1.sb.copy)
    val single = ParallelPane.psvdccd(init1, iters = 2, nb = 1)
    val parallel = ParallelPane.psvdccd(init2, iters = 2, nb = 4)
    // X phase updates disjoint rows, Y phase disjoint columns → identical
    // results regardless of the thread count.
    assert((single.xf - parallel.xf).maxAbs == 0.0)
    assert((single.xb - parallel.xb).maxAbs == 0.0)
    assert((single.y - parallel.y).maxAbs == 0.0)
  }

  test("maintained residuals stay exact over 6 sweeps, single and pool: ‖S − (X·Yᵀ − F')‖max ≤ 1e-12·max|F'|") {
    val aff = Apmi.run(g, alpha, t)
    val single = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6)
    ParallelPane.psvdccd(single, iters = 6, nb = 1)
    val pool = ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6, nb = 4)
    ParallelPane.psvdccd(pool, iters = 6, nb = 4)
    for ((name, st) <- Seq("single" -> single, "pool" -> pool)) {
      val driftF = (st.sf - (st.xf.mulT(st.y) - aff.fPrime)).maxAbs
      val driftB = (st.sb - (st.xb.mulT(st.y) - aff.bPrime)).maxAbs
      assert(driftF <= 1e-12 * aff.fPrime.maxAbs, s"$name Sf drift $driftF")
      assert(driftB <= 1e-12 * aff.bPrime.maxAbs, s"$name Sb drift $driftB")
    }
  }

  test("embed at nb = 4 is papmi, smGreedyInit with t iterations, then block sweeps") {
    // ccdIters = Some(2) pins the RandSVD iteration count to t, not to the sweep count.
    val cfg = PaneConfig(k = k, alpha = alpha, eps = 0.015)
    val nb = 4
    for (c <- Seq(cfg, cfg.copy(ccdIters = Some(2)))) {
      val (f, b) = ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, c.alpha, c.t, nb)
      val st = ParallelPane.smGreedyInit(f, b, c.k, c.t, nb, c.seed)
      for (_ <- 0 until c.refineIters) {
        for ((from, until) <- ParallelPane.ranges(g.n, nb)) SvdCcd.nodeSweep(st, from, until)
        for ((from, until) <- ParallelPane.ranges(g.d, nb)) SvdCcd.attrSweep(st, from, until)
      }
      val e = ParallelPane.embed(g, c, nb)
      assert((e.xf - st.xf).maxAbs == 0.0, s"Xf at ${c.ccdIters}")
      assert((e.xb - st.xb).maxAbs == 0.0, s"Xb at ${c.ccdIters}")
      assert((e.y - st.y).maxAbs == 0.0, s"Y at ${c.ccdIters}")
    }
  }

  test("end-to-end parallel embed quality matches single-thread (§5: small utility loss)") {
    val cfg = PaneConfig(k = k, alpha = alpha, eps = 0.015)
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val es = Pane.embed(g, cfg)
    val ep = ParallelPane.embed(g, cfg, nb = 4)
    val os = SvdCcd.objective(aff.fPrime, aff.bPrime, es)
    val op = SvdCcd.objective(aff.fPrime, aff.bPrime, ep)
    assert(op <= os * 1.1, s"parallel end-to-end objective $op vs single $os")
  }

  test("embed rejects a bad k before any pool task starts, naming k, n, d and nb") {
    val tiny = Fixtures.tiny // n = 120, d = 24
    // (8, 40): blocks of 3 rows cannot hold a rank-4 split SVD.
    for ((kBad, nb) <- Seq((7, 4), (0, 4), (50, 4), (8, 40), (8, 0), (8, -3))) {
      val msg = intercept[IllegalArgumentException](ParallelPane.embed(tiny, PaneConfig(k = kBad), nb)).getMessage
      for (part <- Seq(s"k = $kBad", "n = 120", "d = 24", s"nb = $nb")) assert(msg.contains(part), msg)
    }
    PaneConfig(k = 6).requireK(120, 24, 40) // k/2 = 3 rows fits the smallest block
  }

  test("parallel embed is deterministic for a fixed nb") {
    val cfg = PaneConfig(k = 8)
    val a = ParallelPane.embed(Fixtures.tiny, cfg, nb = 3)
    val b = ParallelPane.embed(Fixtures.tiny, cfg, nb = 3)
    assert((a.xf - b.xf).maxAbs == 0.0)
    assert((a.y - b.y).maxAbs == 0.0)
  }
}
