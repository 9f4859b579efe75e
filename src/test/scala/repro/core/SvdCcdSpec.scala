package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.linalg.DenseMatrix

class SvdCcdSpec extends AnyFunSuite {

  private lazy val aff = Apmi.run(Fixtures.tiny, alpha = 0.5, t = 5)
  private val k = 8

  test("greedyInit residuals are exact: Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    val sbExpected = st.xb.mulT(st.y) - aff.bPrime
    assert((st.sf - sfExpected).maxAbs < 1e-9)
    assert((st.sb - sbExpected).maxAbs < 1e-9)
  }

  test("greedyInit Y has orthonormal columns (the unitarity the Xb seed relies on)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 6)
    val ytY = st.y.tMul(st.y)
    assert((ytY - DenseMatrix.eye(k / 2)).maxAbs < 1e-7)
  }

  test("greedyInit seeds Xb with B'·Y (Algorithm 3 Line 2)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4)
    assert((st.xb - (aff.bPrime * st.y)).maxAbs < 1e-12)
  }

  test("greedyInit on an exactly rank-k/2 matrix reconstructs it") {
    val u0 = DenseMatrix.randn(40, 3, 1L)
    val v0 = DenseMatrix.randn(10, 3, 2L)
    val f = u0.mulT(v0)
    val b = DenseMatrix.randn(40, 3, 3L).mulT(v0)
    val st = SvdCcd.greedyInit(f, b, 6, svdIters = 5)
    assert(st.sf.maxAbs < 1e-7) // Xf·Yᵀ = F' exactly in the low-rank case
  }

  test("randomInit produces exact residuals too") {
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    assert((st.sf - sfExpected).maxAbs < 1e-9)
  }

  test("odd or tiny k is rejected") {
    assertThrows[IllegalArgumentException](SvdCcd.greedyInit(aff.fPrime, aff.bPrime, 7, 2))
    assertThrows[IllegalArgumentException](SvdCcd.randomInit(aff.fPrime, aff.bPrime, 0))
  }

  test("residualRows written over F' and B' equals the separate-buffer call bit for bit") {
    // k/2 = 3 and 5 run rowPatch's remainder loop, k/2 = 8 only its
    // four-row passes; ranges start at row 0 and inside the matrix.
    for ((half, d, n, from, until) <- Seq((3, 7, 13, 0, 13), (5, 9, 13, 4, 11), (8, 6, 10, 3, 10), (4, 1, 5, 2, 3))) {
      val xf = DenseMatrix.randn(n, half, 11L + half)
      val xb = DenseMatrix.randn(n, half, 12L + half)
      val y = DenseMatrix.randn(d, half, 13L + half)
      val f = DenseMatrix.randn(n, d, 14L + half)
      val b = DenseMatrix.randn(n, d, 15L + half)
      f.data(0) = 0.0
      b.data(b.data.length - 1) = 0.0
      // Separate buffers, pre-filled with F' and B' so rows outside the
      // range compare too.
      val sep = SvdCcd.State(xf, xb, y, f.copy, b.copy)
      SvdCcd.residualRows(sep, f, b, from, until)
      val fa = f.copy
      val ba = b.copy
      val alias = SvdCcd.State(xf, xb, y, fa, ba)
      assert((alias.sf eq fa) && (alias.sb eq ba))
      SvdCcd.residualRows(alias, fa, ba, from, until)
      val where = s"k/2 = $half, d = $d, rows [$from, $until) of $n"
      assert(java.util.Arrays.equals(fa.data, sep.sf.data), where)
      assert(java.util.Arrays.equals(ba.data, sep.sb.data), where)
      assert(!java.util.Arrays.equals(fa.data, f.data), where)
    }
  }

  test("CCD sweeps keep residuals consistent with embeddings") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
    SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
    val sfExpected = st.xf.mulT(st.y) - aff.fPrime
    val sbExpected = st.xb.mulT(st.y) - aff.bPrime
    assert((st.sf - sfExpected).maxAbs < 1e-8)
    assert((st.sb - sbExpected).maxAbs < 1e-8)
  }

  test("each CCD sweep decreases (never increases) the objective") {
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k, seed = 3L)
    var prev = objectiveOf(st)
    for (_ <- 1 to 5) {
      SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
      val afterNode = objectiveOf(st)
      assert(afterNode <= prev + 1e-8, "node sweep must not increase the objective")
      SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
      val afterAttr = objectiveOf(st)
      assert(afterAttr <= afterNode + 1e-8, "attr sweep must not increase the objective")
      prev = afterAttr
    }
  }

  test("a single coordinate step is the exact 1-D minimizer (spot check)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 2)
    // Perturb one entry, run the sweep for just that node, and verify the
    // objective cannot be improved by any further move of that coordinate.
    st.xf(0, 0) += 0.5
    // fix residual row for the perturbation
    for (j <- 0 until aff.fPrime.cols) st.sf(0, j) += 0.5 * st.y(j, 0)
    val before = objectiveOf(st)
    SvdCcd.nodeSweep(st, 0, 1)
    val after = objectiveOf(st)
    assert(after <= before + 1e-10)
    // directional check: tiny moves in xf(0,0) cannot improve
    val base = after
    for (delta <- Seq(1e-3, -1e-3)) {
      val st2 = SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.sf.copy, st.sb.copy)
      st2.xf(0, 0) += delta
      for (j <- 0 until aff.fPrime.cols) st2.sf(0, j) += delta * st2.y(j, 0)
      assert(objectiveOf(st2) >= base - 1e-10)
    }
  }

  test("RowKernels.nodeRow on standalone rows is bit-identical to nodeSweep") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.sf.copy, st1.sb.copy)
    SvdCcd.nodeSweep(st1, 0, aff.fPrime.rows)
    val kern = new SvdCcd.RowKernels(st2.y) // once per partition, as on Spark
    for (i <- 0 until aff.fPrime.rows) {
      val xf = st2.xf.row(i); val xb = st2.xb.row(i)
      val sf = st2.sf.row(i); val sb = st2.sb.row(i)
      kern.nodeRow(xf, xb, 0, sf, sb, 0)
      System.arraycopy(xf, 0, st2.xf.data, i * xf.length, xf.length)
      System.arraycopy(xb, 0, st2.xb.data, i * xb.length, xb.length)
      System.arraycopy(sf, 0, st2.sf.data, i * sf.length, sf.length)
      System.arraycopy(sb, 0, st2.sb.data, i * sb.length, sb.length)
    }
    assert((st1.xf - st2.xf).maxAbs == 0.0)
    assert((st1.xb - st2.xb).maxAbs == 0.0)
    assert((st1.sf - st2.sf).maxAbs == 0.0)
    assert((st1.sb - st2.sb).maxAbs == 0.0)
  }

  test("Gramian-replay nodeSweep matches the column-strided X-phase over 6 sweeps on mid") {
    val affMid = Apmi.run(Fixtures.mid, alpha = 0.5, t = 5)
    val (n, d) = (affMid.fPrime.rows, affMid.fPrime.cols)
    val st1 = SvdCcd.greedyInit(affMid.fPrime, affMid.bPrime, 16, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.sf.copy, st1.sb.copy)
    for (_ <- 1 to 6) {
      SvdCcd.nodeSweep(st1, 0, n)
      SvdCcd.attrSweep(st1, 0, d)
      columnStridedNodeSweep(st2)
      SvdCcd.attrSweep(st2, 0, d)
    }
    def rel(a: DenseMatrix, oracle: DenseMatrix): Double = (a - oracle).maxAbs / oracle.maxAbs
    assert(rel(st1.xf, st2.xf) <= 1e-13, s"Xf rel diff ${rel(st1.xf, st2.xf)}")
    assert(rel(st1.xb, st2.xb) <= 1e-13, s"Xb rel diff ${rel(st1.xb, st2.xb)}")
    assert(rel(st1.y, st2.y) <= 1e-13, s"Y rel diff ${rel(st1.y, st2.y)}")
    assert(rel(st1.sf, st2.sf) <= 1e-13, s"Sf rel diff ${rel(st1.sf, st2.sf)}")
    assert(rel(st1.sb, st2.sb) <= 1e-13, s"Sb rel diff ${rel(st1.sb, st2.sb)}")
  }

  test("rowPatch and attrGramRows equal the naive double loops (exact on integer data)") {
    val rnd = new scala.util.Random(5L)
    def ints(len: Int): Array[Double] = Array.fill(len)((rnd.nextInt(17) - 8).toDouble)
    for (half <- 1 to 9; w <- Seq(1, 4, 7)) {
      val (cOff, sOff) = (3, 2)
      val coef = ints(cOff + half)
      val m = ints(half * w)
      val s = ints(sOff + w + 1)
      val naive = s.clone
      for (c <- 0 until w; l <- 0 until half) naive(sOff + c) -= coef(cOff + l) * m(l * w + c)
      SvdCcd.rowPatch(coef, cOff, half, m, w, s, sOff)
      assert(java.util.Arrays.equals(s, naive), s"rowPatch half=$half w=$w")
    }
    for (rows <- 1 to 9; half <- Seq(1, 3, 4); w <- Seq(1, 5)) {
      val (sOff, stride) = (1, w + 2)
      val (xf, xb) = (ints(rows * half), ints(rows * half))
      val (sf, sb) = (ints(sOff + rows * stride), ints(sOff + rows * stride))
      val acc = new Array[Double](SvdCcd.attrGramSize(half, w))
      SvdCcd.attrGramRows(xf, xb, sf, sb, sOff, stride, rows, half, w, acc)
      val naive = new Array[Double](acc.length)
      val (gSize, hSize) = (half * w, half * half)
      for (r <- 0 until rows; l <- 0 until half) {
        for (c <- 0 until w) {
          naive(l * w + c) += xf(r * half + l) * sf(sOff + r * stride + c)
          naive(gSize + l * w + c) += xb(r * half + l) * sb(sOff + r * stride + c)
        }
        for (l2 <- 0 until half) {
          naive(2 * gSize + l * half + l2) += xf(r * half + l) * xf(r * half + l2)
          naive(2 * gSize + hSize + l * half + l2) += xb(r * half + l) * xb(r * half + l2)
        }
      }
      assert(java.util.Arrays.equals(acc, naive), s"attrGramRows rows=$rows half=$half w=$w")
    }
  }

  test("attrSweep on disjoint column blocks equals one full sweep (PSVDCCD exactness)") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.sf.copy, st1.sb.copy)
    SvdCcd.attrSweep(st1, 0, aff.fPrime.cols)
    val mid = aff.fPrime.cols / 2
    // run blocks in the opposite order — must not matter
    SvdCcd.attrSweep(st2, mid, aff.fPrime.cols)
    SvdCcd.attrSweep(st2, 0, mid)
    assert((st1.y - st2.y).maxAbs == 0.0)
    assert((st1.sf - st2.sf).maxAbs == 0.0)
    assert((st1.sb - st2.sb).maxAbs == 0.0)
  }

  test("Gramian-replay attrSweep matches the column-strided Y-phase over 6 sweeps on mid") {
    val affMid = Apmi.run(Fixtures.mid, alpha = 0.5, t = 5)
    val (n, d) = (affMid.fPrime.rows, affMid.fPrime.cols)
    val st1 = SvdCcd.greedyInit(affMid.fPrime, affMid.bPrime, 16, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.sf.copy, st1.sb.copy)
    for (_ <- 1 to 6) {
      SvdCcd.nodeSweep(st1, 0, n)
      SvdCcd.attrSweep(st1, 0, d)
      SvdCcd.nodeSweep(st2, 0, n)
      columnStridedAttrSweep(st2)
    }
    def rel(a: DenseMatrix, oracle: DenseMatrix): Double = (a - oracle).maxAbs / oracle.maxAbs
    assert(rel(st1.y, st2.y) <= 1e-13, s"Y rel diff ${rel(st1.y, st2.y)}")
    assert(rel(st1.sf, st2.sf) <= 1e-13, s"Sf rel diff ${rel(st1.sf, st2.sf)}")
    assert(rel(st1.sb, st2.sb) <= 1e-13, s"Sb rel diff ${rel(st1.sb, st2.sb)}")
  }

  test("attrReplay reproduces the former SparkPane driver loop bit for bit") {
    val (half, d) = (6, 11)
    val x = DenseMatrix.randn(30, half, 21L)
    val xb = DenseMatrix.randn(30, half, 22L)
    val hf = x.tMul(x)
    val hb = xb.tMul(xb)
    val gf = DenseMatrix.randn(half, d, 23L).data
    val gb = DenseMatrix.randn(half, d, 24L).data
    val y = DenseMatrix.randn(d, half, 25L)
    val acc = gf ++ gb ++ hf.data ++ hb.data
    assert(acc.length == SvdCcd.attrGramSize(half, d))
    val y1 = y.copy
    val delta1 = SvdCcd.attrReplay(y1, acc, 0, d)
    val (gf2, gb2) = (gf.clone, gb.clone)
    val (y2, delta2) = formerSparkReplay(y, gf2, gb2, hf, hb)
    assert(java.util.Arrays.equals(y1.data, y2.data))
    assert(java.util.Arrays.equals(delta1, delta2.transpose.data)) // ΔYᵀ, l-major
    assert(java.util.Arrays.equals(acc.take(half * d), gf2))
    assert(java.util.Arrays.equals(acc.slice(half * d, 2 * half * d), gb2))
  }

  test("psvdccd returns embeddings with the right shapes") {
    val e = ParallelPane.psvdccd(SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 2), iters = 2, nb = 1)
    assert(e.xf.rows == aff.fPrime.rows && e.xf.cols == k / 2)
    assert(e.xb.rows == aff.fPrime.rows && e.xb.cols == k / 2)
    assert(e.y.rows == aff.fPrime.cols && e.y.cols == k / 2)
    assert(e.k == k)
  }

  test("objective matches manual Frobenius computation") {
    val e = ParallelPane.psvdccd(SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 1), iters = 1, nb = 1)
    val o = SvdCcd.objective(aff.fPrime, aff.bPrime, e)
    val rf = e.xf.mulT(e.y) - aff.fPrime
    val rb = e.xb.mulT(e.y) - aff.bPrime
    val manual = rf.data.map(x => x * x).sum + rb.data.map(x => x * x).sum
    assert(math.abs(o - manual) < 1e-6 * math.max(1.0, manual))
  }

  /** The X-phase as first written: per node and coordinate, a dot product
    * and an update over column l of row-major Y (stride k/2).
    */
  private def columnStridedNodeSweep(st: SvdCcd.State): Unit = {
    val half = st.y.cols
    val d = st.y.rows
    val yColNorm = Array.tabulate(half)(l => (0 until d).map(j => st.y(j, l) * st.y(j, l)).sum)
    for (i <- 0 until st.xf.rows; l <- 0 until half if yColNorm(l) > 1e-300) {
      var dotF = 0.0
      var dotB = 0.0
      for (j <- 0 until d) { dotF += st.sf(i, j) * st.y(j, l); dotB += st.sb(i, j) * st.y(j, l) }
      val muF = dotF / yColNorm(l)
      val muB = dotB / yColNorm(l)
      st.xf(i, l) = st.xf(i, l) - muF
      st.xb(i, l) = st.xb(i, l) - muB
      for (j <- 0 until d) {
        st.sf(i, j) = st.sf(i, j) - muF * st.y(j, l)
        st.sb(i, j) = st.sb(i, j) - muB * st.y(j, l)
      }
    }
  }

  /** The Y-phase as first written: column-strided over row-major Sf/Sb. */
  private def columnStridedAttrSweep(st: SvdCcd.State): Unit = {
    val half = st.y.cols
    val n = st.xf.rows
    val d = st.y.rows
    val xColNorm = Array.tabulate(half) { l =>
      var s = 0.0
      for (i <- 0 until n) { val a = st.xf(i, l); val b = st.xb(i, l); s += a * a + b * b }
      s
    }
    for (j <- 0 until d; l <- 0 until half if xColNorm(l) > 1e-300) {
      var num = 0.0
      for (i <- 0 until n) num += st.xf(i, l) * st.sf.data(i * d + j) + st.xb(i, l) * st.sb.data(i * d + j)
      val mu = num / xColNorm(l)
      st.y(j, l) = st.y(j, l) - mu
      for (i <- 0 until n) {
        st.sf.data(i * d + j) -= mu * st.xf(i, l)
        st.sb.data(i * d + j) -= mu * st.xb(i, l)
      }
    }
  }

  /** The driver loop SparkPane ran before it called SvdCcd.attrReplay;
    * mutates gf and gb in place.
    */
  private def formerSparkReplay(y: DenseMatrix, gf: Array[Double], gb: Array[Double],
                                hf: DenseMatrix, hb: DenseMatrix): (DenseMatrix, DenseMatrix) = {
    val half = y.cols
    val d = y.rows
    val newY = y.copy
    val delta = DenseMatrix.zeros(d, half)
    var rj = 0
    while (rj < d) {
      var l = 0
      while (l < half) {
        val denom = hf(l, l) + hb(l, l)
        if (denom > 1e-300) {
          val mu = (gf(l * d + rj) + gb(l * d + rj)) / denom
          newY(rj, l) = newY(rj, l) - mu
          delta(rj, l) = mu
          var l2 = 0
          while (l2 < half) {
            gf(l2 * d + rj) -= mu * hf(l2, l)
            gb(l2 * d + rj) -= mu * hb(l2, l)
            l2 += 1
          }
        }
        l += 1
      }
      rj += 1
    }
    (newY, delta)
  }

  private def objectiveOf(st: SvdCcd.State): Double =
    SvdCcd.objective(aff.fPrime, aff.bPrime, Embeddings(st.xf, st.xb, st.y))
}
