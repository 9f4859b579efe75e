package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.linalg.DenseMatrix
import repro.linalg.DenseMatrixOps._
import repro.linalg.DenseMatrixSpec.flatMulT

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
    assert((st.sf - (flatMulT(st.xf, st.y) - aff.fPrime)).maxAbs < 1e-8)
    assert((st.sb - (flatMulT(st.xb, st.y) - aff.bPrime)).maxAbs < 1e-8)
  }

  test("Lemma 4.2 direction: SMGreedyInit Y is near-unitary and Xb = B'·Y") {
    val aff = Apmi.run(g, alpha, t)
    val st = ParallelPane.smGreedyInit(aff.fPrime, aff.bPrime, k, svdIters = 8, nb = 4)
    assert((st.y.tMul(st.y) - DenseMatrix.eye(k / 2)).maxAbs < 1e-6)
    assert((st.xb - (aff.bPrime * st.y)).maxAbs < 1e-10)
  }

  test("initBlock on one block's own matrices, as Spark calls it, equals the pool's rows bit for bit") {
    val aff = Apmi.run(g, alpha, t)
    val (f, b) = (aff.fPrime, aff.bPrime)
    val (n, d, half, seed) = (f.rows, f.cols, k / 2, 42L)
    for (nb <- Seq(1, 4)) {
      val pool = ParallelPane.smGreedyInit(f, b, k, svdIters = 4, nb = nb, seed = seed)
      val blocks = ParallelPane.ranges(n, nb)
      val split = blocks.zipWithIndex.map { case ((from, until), bi) =>
        ParallelPane.splitSvd(f.rowSlice(from, until), bi, half, 4, seed)
      }
      val (w, y) = ParallelPane.mergeSvd(split.map(_._2), half, 4, seed)
      assert(java.util.Arrays.equals(y.data, pool.y.data), s"Y at nb = $nb")
      for (((from, until), bi) <- blocks.zipWithIndex) {
        val rows = until - from
        // The block's own F' and B', as on Spark.
        val (fb, bb) = (f.rowSlice(from, until), b.rowSlice(from, until))
        val own = SvdCcd.State(DenseMatrix.zeros(rows, half), DenseMatrix.zeros(rows, half), y, fb, bb)
        ParallelPane.initBlock(own, 0, rows, split(bi)._1, w, bi)
        val where = s"block $bi of nb = $nb"
        for ((name, a, full) <- Seq(("Xf", own.xf, pool.xf), ("Xb", own.xb, pool.xb), ("Sf", own.sf, pool.sf), ("Sb", own.sb, pool.sb)))
          assert(java.util.Arrays.equals(a.data, full.rowSlice(from, until).data), s"$name, $where")
        // The pool forms Xb from the rows of B' where they lie: B'[Vi]·Y bit for bit.
        assert(java.util.Arrays.equals(pool.xb.rowSlice(from, until).data, (bb * y).data), s"Xb = B'[Vi]·Y, $where")
      }
    }
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
    val init2 = SvdCcd.State(init1.xf.copy, init1.xb.copy, init1.y.copy, init1.f, init1.b)
    val single = ParallelPane.psvdccd(init1, iters = 2, nb = 1)
    val parallel = ParallelPane.psvdccd(init2, iters = 2, nb = 4)
    // X phase updates disjoint rows, Y phase disjoint columns → identical
    // results regardless of the thread count.
    assert((single.xf - parallel.xf).maxAbs == 0.0)
    assert((single.xb - parallel.xb).maxAbs == 0.0)
    assert((single.y - parallel.y).maxAbs == 0.0)
  }

  test("single and pool sweeps match the residual-maintaining oracle over 6 sweeps on mid") {
    val aff = Apmi.run(g, alpha, t)
    val (f, b) = (aff.fPrime, aff.bPrime)
    val single = SvdCcd.greedyInit(f, b, k, svdIters = 6)
    val pool = ParallelPane.smGreedyInit(f, b, k, svdIters = 6, nb = 4)
    for ((name, st, nb) <- Seq(("single", single, 1), ("pool", pool, 4))) {
      val oracle = new SvdCcdSpec.ResidualSweep(st)
      ParallelPane.psvdccd(st, iters = 6, nb = nb)
      for (_ <- 1 to 6) { oracle.nodePhase(); oracle.attrPhase() }
      for ((m, o, label) <- Seq((st.xf, oracle.xf, "Xf"), (st.xb, oracle.xb, "Xb"), (st.y, oracle.y, "Y"))) {
        val diff = (m - o).maxAbs
        assert(diff <= 1e-12 * o.maxAbs, s"$name $label differs by $diff (max-abs ${o.maxAbs})")
      }
      val obj = SvdCcd.objective(f, b, Embeddings(st.xf, st.xb, st.y))
      val objOracle = SvdCcd.objective(f, b, Embeddings(oracle.xf, oracle.xb, oracle.y))
      assert(math.abs(obj - objOracle) <= 1e-12 * objOracle, s"$name objective $obj vs oracle $objOracle")
    }
  }

  test("embed at nb = 4 is papmi, smGreedyInit with t iterations, then block sweeps") {
    val cfg = PaneConfig(k = k, alpha = alpha, eps = 0.015)
    val nb = 4
    val (f, b) = ParallelPane.papmi(g.walkMatrix, g.attrRowNorm, g.attrColNorm, cfg.alpha, cfg.t, nb)
    val st = ParallelPane.smGreedyInit(f, b, cfg.k, cfg.t, nb, cfg.seed)
    for (_ <- 0 until cfg.t) {
      for ((from, until) <- ParallelPane.ranges(g.n, nb)) SvdCcd.nodeSweep(st, from, until)
      for ((from, until) <- ParallelPane.ranges(g.d, nb)) SvdCcd.attrSweep(st, from, until)
    }
    val e = ParallelPane.embed(g, cfg, nb)
    assert((e.xf - st.xf).maxAbs == 0.0)
    assert((e.xb - st.xb).maxAbs == 0.0)
    assert((e.y - st.y).maxAbs == 0.0)
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
