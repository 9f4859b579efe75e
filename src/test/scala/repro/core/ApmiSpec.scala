package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.graph.WalkSimulator
import repro.linalg.DenseMatrix

/** APMI is validated against the Monte-Carlo random-walk simulator — the
  * definitional ground truth of Section 2.2 — plus the paper's structural
  * guarantees (Lemma 3.1-style truncation bounds, SPMI positivity).
  */
class ApmiSpec extends AnyFunSuite {

  private val g = Fixtures.figure1
  private val alpha = 0.15

  test("iterations formula matches the paper's ε↔t table at α=0.5") {
    assert(Apmi.iterations(0.5, 0.001) == 9)
    assert(Apmi.iterations(0.5, 0.25) == 1)
    assert(Apmi.iterations(0.5, 0.015) == 6)
    // guarantee (1-α)^(t+1) <= ε
    for (eps <- Seq(0.001, 0.005, 0.015, 0.05, 0.25)) {
      val t = Apmi.iterations(0.5, eps)
      assert(math.pow(0.5, t + 1) <= eps + 1e-12)
    }
  }

  test("iterations rejects out-of-range parameters") {
    assertThrows[IllegalArgumentException](Apmi.iterations(0.0, 0.1))
    assertThrows[IllegalArgumentException](Apmi.iterations(0.5, 1.5))
  }

  test("truncated forward distribution rows sum to 1 when every node is attributed") {
    val (pf, _) = Apmi.truncatedDistributions(g, alpha, t = 8)
    pf.rowSums.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
  }

  test("truncated backward distribution columns sum to 1") {
    val (_, pb) = Apmi.truncatedDistributions(g, alpha, t = 8)
    pb.colSums.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
  }

  test("forward distribution matches Monte-Carlo simulation") {
    val t = 60 // effectively untruncated at alpha=0.15: (0.85)^61 ~ 5e-5
    val (pf, _) = Apmi.truncatedDistributions(g, alpha, t)
    val sim = WalkSimulator.forward(g, alpha, samples = 60000, seed = 4L)
    assert((pf - sim).maxAbs < 0.01) // MC noise ~ 1/sqrt(60000)
  }

  test("backward distribution matches Monte-Carlo simulation") {
    val t = 60
    val (_, pb) = Apmi.truncatedDistributions(g, alpha, t)
    val sim = WalkSimulator.backward(g, alpha, samples = 60000, seed = 5L)
    assert((pb - sim).maxAbs < 0.01)
  }

  test("Lemma 3.1-style truncation bound: 0 <= Pf - Pf^(t) <= (1-α)^t entrywise") {
    val tBig = 80
    val t = 4
    val (pfInf, pbInf) = Apmi.truncatedDistributions(g, alpha, tBig)
    val (pfT, pbT) = Apmi.truncatedDistributions(g, alpha, t)
    val bound = math.pow(1 - alpha, t)
    for (i <- 0 until g.n; j <- 0 until g.d) {
      assert(pfInf(i, j) - pfT(i, j) <= bound + 1e-12)
      assert(pfT(i, j) - pfInf(i, j) <= bound + 1e-12)
      assert(pbInf(i, j) - pbT(i, j) <= bound + 1e-12)
      assert(pbT(i, j) - pbInf(i, j) <= bound + 1e-12)
    }
  }

  test("F' and B' are non-negative (SPMI shift) and finite") {
    val res = Apmi.run(g, alpha, t = 6)
    assert(res.fPrime.data.forall(v => v >= 0 && java.lang.Double.isFinite(v)))
    assert(res.bPrime.data.forall(v => v >= 0 && java.lang.Double.isFinite(v)))
  }

  /** P̂f (columns of Pf scaled to sum 1) and P̂b (rows of Pb scaled to sum 1). */
  private def normalized(pf: DenseMatrix, pb: DenseMatrix): (DenseMatrix, DenseMatrix) = {
    val cs = pf.colSums
    val rs = pb.rowSums
    val hatF = DenseMatrix.zeros(pf.rows, pf.cols)
    val hatB = DenseMatrix.zeros(pb.rows, pb.cols)
    for (i <- 0 until pf.rows; j <- 0 until pf.cols) {
      hatF(i, j) = if (cs(j) > 0) pf(i, j) / cs(j) else 0.0
      hatB(i, j) = if (rs(i) > 0) pb(i, j) / rs(i) else 0.0
    }
    (hatF, hatB)
  }

  test("normalized P-hat matrices are column-/row-stochastic") {
    val (hatF, hatB) = (normalized _).tupled(Apmi.truncatedDistributions(g, alpha, t = 6))
    hatF.colSums.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
    hatB.rowSums.foreach(s => assert(math.abs(s - 1.0) < 1e-12))
  }

  test("F' equals log(n * P-hat + 1) exactly") {
    val res = Apmi.run(g, alpha, t = 6)
    val (hatF, hatB) = (normalized _).tupled(Apmi.truncatedDistributions(g, alpha, t = 6))
    for (i <- 0 until g.n; j <- 0 until g.d) {
      assert(math.abs(res.fPrime(i, j) - math.log(g.n * hatF(i, j) + 1)) < 1e-12)
      assert(math.abs(res.bPrime(i, j) - math.log(g.d * hatB(i, j) + 1)) < 1e-12)
    }
  }

  /** The dense recurrence `propagate` replaced, kept as its oracle:
    * X ← (1−α)·step(X) + α·R0, from X = R0, t times.
    */
  private def denseRecurrence(step: DenseMatrix => DenseMatrix, r0: DenseMatrix, t: Int): DenseMatrix = {
    var x = r0.copy
    for (_ <- 1 to t) x = step(x).zipWith(r0, (pv, bv) => (1 - alpha) * pv + alpha * bv)
    x
  }

  /** Columns [from, until) of `m`. */
  private def colBlock(m: DenseMatrix, from: Int, until: Int): DenseMatrix =
    m.transpose.rowSlice(from, until).transpose

  test("propagate equals the dense (P * X).zipWith recurrence bit for bit, full range and column blocks") {
    // figure1NoAttrs has a dangling node (5) and attribute-less nodes (0, 1).
    for ((gr, t) <- Seq(Fixtures.figure1NoAttrs -> 10, Fixtures.mid -> 5)) {
      val p = gr.walkMatrix
      val pT = Apmi.transposeCsr(p)
      val r0 = gr.attrRowNorm.toDense
      val fwd = denseRecurrence(p * _, r0, t)
      val bwd = denseRecurrence(p.tMul(_), gr.attrColNorm.toDense, t)
      for ((from, until) <- Seq((0, gr.d), (1, gr.d - 1), (gr.d / 2, gr.d / 2 + 1))) {
        val f = DenseMatrix.fromRows(Apmi.propagate(p, gr.attrRowNorm, alpha, t, from, until).toSeq)
        val b = DenseMatrix.fromRows(Apmi.propagate(pT, gr.attrColNorm, alpha, t, from, until).toSeq)
        assert((f - colBlock(fwd, from, until)).maxAbs == 0.0, s"${gr.name} forward [$from, $until)")
        assert((b - colBlock(bwd, from, until)).maxAbs == 0.0, s"${gr.name} backward [$from, $until)")
      }
      // α = 0 (GCN-prop, BANE): t plain products P·M from M = R0.
      var hops = r0
      for (_ <- 1 to t) hops = p * hops
      val plain = DenseMatrix.fromRows(Apmi.propagate(p, gr.attrRowNorm, 0.0, t, 0, gr.d).toSeq)
      assert((plain - hops).maxAbs == 0.0, s"${gr.name} alpha = 0")
      // α = 1 − λ (BLA-lite): against the recurrence λ·P·Z + (1−λ)·R0 written out.
      val lambda = 0.7
      var z = r0.copy
      for (_ <- 1 to t) z = (p * z).zipWith(r0, (pv, bv) => lambda * pv + (1 - lambda) * bv)
      val bla = DenseMatrix.fromRows(Apmi.propagate(p, gr.attrRowNorm, 1 - lambda, t, 0, gr.d).toSeq)
      assert((bla - z).maxAbs == 0.0, s"${gr.name} alpha = 1 - $lambda")
    }
  }

  test("transposeCsr equals the dense transpose and lists each row's sources in ascending order") {
    for (gr <- Seq(Fixtures.figure1NoAttrs, Fixtures.mid)) {
      val p = gr.walkMatrix
      val pT = Apmi.transposeCsr(p)
      assert(pT.rows == p.cols && pT.cols == p.rows && pT.nnz == p.nnz)
      assert((pT.toDense - p.toDense.transpose).maxAbs == 0.0, gr.name)
      for (j <- 0 until pT.rows) {
        val srcs = pT.colIdx.slice(pT.rowPtr(j), pT.rowPtr(j + 1)).toSeq
        assert(srcs == srcs.sorted && srcs.distinct == srcs, s"${gr.name} row $j: $srcs")
      }
    }
  }

  test("affinity reflects reachability: connected node-attribute pairs score higher") {
    // Node 3 links to node 0 (attr r0 owner) and node 5 (attr r2/r1 owner);
    // a node's own attribute should have high forward affinity.
    val res = Apmi.run(g, alpha, t = 20)
    // node 5 owns r2; no other node owns r2 → F[5, r2] should be its max.
    val row5 = res.fPrime.row(5)
    assert(row5(2) == row5.max)
  }

  test("attribute-less nodes still get affinity via their neighbours (footnote-1 graph)") {
    val gd = Fixtures.figure1NoAttrs
    val res = Apmi.run(gd, alpha, t = 20)
    // node 0 has no attributes but points at node 2 which owns r0/r1
    assert(res.fPrime.row(0).sum > 0)
  }

  test("larger graph: affinity is homophilous (same-community attrs score higher)") {
    val gm = Fixtures.tiny
    val res = Apmi.run(gm, 0.5, t = 5)
    // For each community, average F' over its preferred attribute window
    // should exceed the global off-window average.
    val window = math.max(4, gm.d / 4)
    var inScore = 0.0; var inCnt = 0
    var outScore = 0.0; var outCnt = 0
    for (i <- 0 until gm.n; j <- 0 until gm.d) {
      val c = i % 4
      val base = (c * window) % math.max(1, gm.d - window + 1)
      val inWin = j >= base && j < base + window
      if (inWin) { inScore += res.fPrime(i, j); inCnt += 1 }
      else { outScore += res.fPrime(i, j); outCnt += 1 }
    }
    assert(inScore / inCnt > outScore / outCnt)
  }
}
