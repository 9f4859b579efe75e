package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.graph.Datasets
import repro.linalg.DenseMatrix
import repro.linalg.DenseMatrixOps._
import repro.linalg.DenseMatrixSpec.flatMulT
import SvdCcdSpec._

class SvdCcdSpec extends AnyFunSuite {

  private lazy val aff = Apmi.run(Fixtures.tiny, alpha = 0.5, t = 5)
  private val k = 8

  test("greedyInit residuals are exact: Sf = Xf·Yᵀ − F', Sb = Xb·Yᵀ − B'") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 4)
    val sfExpected = flatMulT(st.xf, st.y) - aff.fPrime
    val sbExpected = flatMulT(st.xb, st.y) - aff.bPrime
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
    val f = u0 * v0.transpose
    val b = DenseMatrix.randn(40, 3, 3L) * v0.transpose
    val st = SvdCcd.greedyInit(f, b, 6, svdIters = 5)
    assert(st.sf.maxAbs < 1e-7) // Xf·Yᵀ = F' exactly in the low-rank case
  }

  test("randomInit produces exact residuals too") {
    val st = SvdCcd.randomInit(aff.fPrime, aff.bPrime, k)
    val sfExpected = flatMulT(st.xf, st.y) - aff.fPrime
    assert((st.sf - sfExpected).maxAbs < 1e-9)
  }

  test("odd or tiny k is rejected") {
    assertThrows[IllegalArgumentException](SvdCcd.greedyInit(aff.fPrime, aff.bPrime, 7, 2))
    assertThrows[IllegalArgumentException](SvdCcd.randomInit(aff.fPrime, aff.bPrime, 0))
  }

  test("CCD sweeps keep residuals consistent with embeddings") {
    // The state holds F' and B' themselves; the sweeps only read them, and
    // st.sf, st.sb are X·Yᵀ − F', X·Yᵀ − B' of the current X and Y.
    val (f0, b0) = (aff.fPrime.copy, aff.bPrime.copy)
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    assert((st.f eq aff.fPrime) && (st.b eq aff.bPrime))
    for (_ <- 1 to 2) {
      SvdCcd.nodeSweep(st, 0, aff.fPrime.rows)
      SvdCcd.attrSweep(st, 0, aff.fPrime.cols)
    }
    assert(java.util.Arrays.equals(st.f.data, f0.data) && java.util.Arrays.equals(st.b.data, b0.data))
    assert(java.util.Arrays.equals(st.sf.data, (flatMulT(st.xf, st.y) - f0).data))
    assert(java.util.Arrays.equals(st.sb.data, (flatMulT(st.xb, st.y) - b0).data))
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

  test("the objective never rises from one sweep to the next on mid, single and pool") {
    val affMid = Apmi.run(Fixtures.mid, alpha = 0.5, t = 5)
    val (f, b) = (affMid.fPrime, affMid.bPrime)
    for ((name, st, nb) <- Seq(("single", SvdCcd.greedyInit(f, b, 16, svdIters = 5), 1),
                               ("pool", ParallelPane.smGreedyInit(f, b, 16, svdIters = 5, nb = 4), 4))) {
      var prev = SvdCcd.objective(f, b, Embeddings(st.xf, st.xb, st.y))
      for (it <- 0 until 6) {
        ParallelPane.psvdccd(st, iters = 1, nb = nb)
        val o = SvdCcd.objective(f, b, Embeddings(st.xf, st.xb, st.y))
        assert(o <= prev * (1 + 1e-12), s"$name: objective rose at sweep $it: $prev -> $o")
        prev = o
      }
    }
  }

  test("a single coordinate step is the exact 1-D minimizer (spot check)") {
    val st = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 2)
    // Perturb one entry, run the sweep for just that node, and verify the
    // objective cannot be improved by any further move of that coordinate.
    st.xf(0, 0) += 0.5
    val before = objectiveOf(st)
    SvdCcd.nodeSweep(st, 0, 1)
    val after = objectiveOf(st)
    assert(after <= before + 1e-10)
    // directional check: tiny moves in xf(0,0) cannot improve
    val base = after
    for (delta <- Seq(1e-3, -1e-3)) {
      val st2 = SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.f, st.b)
      st2.xf(0, 0) += delta
      assert(objectiveOf(st2) >= base - 1e-10)
    }
  }

  test("RowKernels.nodeRow on standalone rows is bit-identical to nodeSweep") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.f, st1.b)
    SvdCcd.nodeSweep(st1, 0, aff.fPrime.rows)
    val kern = new SvdCcd.RowKernels(st2.y) // once per partition, as on Spark
    for (i <- 0 until aff.fPrime.rows) {
      val xf = st2.xf.row(i); val xb = st2.xb.row(i)
      kern.nodeRow(xf, xb, 0, st2.f.row(i), st2.b.row(i), 0)
      System.arraycopy(xf, 0, st2.xf.data, i * xf.length, xf.length)
      System.arraycopy(xb, 0, st2.xb.data, i * xb.length, xb.length)
    }
    assert((st1.xf - st2.xf).maxAbs == 0.0)
    assert((st1.xb - st2.xb).maxAbs == 0.0)
  }

  test("Gramian-replay nodeSweep matches the column-strided X-phase over 6 sweeps on mid") {
    val affMid = Apmi.run(Fixtures.mid, alpha = 0.5, t = 5)
    val (n, d) = (affMid.fPrime.rows, affMid.fPrime.cols)
    val st1 = SvdCcd.greedyInit(affMid.fPrime, affMid.bPrime, 16, svdIters = 3)
    val oracle = new ResidualSweep(st1)
    for (_ <- 1 to 6) {
      SvdCcd.nodeSweep(st1, 0, n)
      SvdCcd.attrSweep(st1, 0, d)
      columnStridedNodeSweep(oracle)
      oracle.attrPhase()
    }
    def rel(a: DenseMatrix, o: DenseMatrix): Double = (a - o).maxAbs / o.maxAbs
    assert(rel(st1.xf, oracle.xf) <= 1e-13, s"Xf rel diff ${rel(st1.xf, oracle.xf)}")
    assert(rel(st1.xb, oracle.xb) <= 1e-13, s"Xb rel diff ${rel(st1.xb, oracle.xb)}")
    assert(rel(st1.y, oracle.y) <= 1e-13, s"Y rel diff ${rel(st1.y, oracle.y)}")
    assert(rel(st1.sf, oracle.sf) <= 1e-13, s"Sf rel diff ${rel(st1.sf, oracle.sf)}")
    assert(rel(st1.sb, oracle.sb) <= 1e-13, s"Sb rel diff ${rel(st1.sb, oracle.sb)}")
  }

  test("rowPatch and attrGramRows equal the naive double loops (exact on integer data)") {
    val rnd = new scala.util.Random(5L)
    def ints(len: Int): Array[Double] = Array.fill(len)((rnd.nextInt(17) - 8).toDouble)
    // The residual oracle's patch.
    for (half <- 1 to 9; w <- Seq(1, 4, 7)) {
      val (cOff, sOff) = (3, 2)
      val coef = ints(cOff + half)
      val m = ints(half * w)
      val s = ints(sOff + w + 1)
      val naive = s.clone
      for (c <- 0 until w; l <- 0 until half) naive(sOff + c) -= coef(cOff + l) * m(l * w + c)
      flatRowPatch(coef, cOff, half, m, w, s, sOff)
      assert(java.util.Arrays.equals(s, naive), s"rowPatch half=$half w=$w")
    }
    // Every rows % 4 remainder; k/2 and w below, at and past one four-row
    // pass and one vector width; F' rows at fOff > 0 with a stride > w.
    for (rows <- 1 to 9; half <- Seq(1, 3, 4, 32); w <- Seq(1, 5, 8, 37)) {
      val (fOff, stride) = (1, w + 2)
      val (xf, xb) = (ints(rows * half), ints(rows * half))
      val (f, b) = (ints(fOff + rows * stride), ints(fOff + rows * stride))
      val (gSize, hSize) = (half * w, half * half)
      val (g, h) = (new Array[Double](2 * gSize), new Array[Double](2 * hSize))
      SvdCcd.attrGramRows(xf, xb, f, b, fOff, stride, rows, half, w, g)
      SvdCcd.attrGramRows(xf, xb, xf, xb, 0, half, rows, half, half, h)
      val (naiveG, naiveH) = (new Array[Double](g.length), new Array[Double](h.length))
      for (r <- 0 until rows; l <- 0 until half) {
        for (c <- 0 until w) {
          naiveG(l * w + c) += xf(r * half + l) * f(fOff + r * stride + c)
          naiveG(gSize + l * w + c) += xb(r * half + l) * b(fOff + r * stride + c)
        }
        for (l2 <- 0 until half) {
          naiveH(l * half + l2) += xf(r * half + l) * xf(r * half + l2)
          naiveH(hSize + l * half + l2) += xb(r * half + l) * xb(r * half + l2)
        }
      }
      assert(java.util.Arrays.equals(g, naiveG), s"attrGramRows G rows=$rows half=$half w=$w")
      assert(java.util.Arrays.equals(h, naiveH), s"attrGramRows H rows=$rows half=$half")
    }
  }

  test("attrSweep on disjoint column blocks equals one full sweep (PSVDCCD exactness)") {
    val st1 = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, k, svdIters = 3)
    val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.f, st1.b)
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
    val oracle = new ResidualSweep(st1)
    for (_ <- 1 to 6) {
      SvdCcd.nodeSweep(st1, 0, n)
      SvdCcd.attrSweep(st1, 0, d)
      oracle.nodePhase()
      columnStridedAttrSweep(oracle)
    }
    def rel(a: DenseMatrix, o: DenseMatrix): Double = (a - o).maxAbs / o.maxAbs
    assert(rel(st1.y, oracle.y) <= 1e-13, s"Y rel diff ${rel(st1.y, oracle.y)}")
    assert(rel(st1.sf, oracle.sf) <= 1e-13, s"Sf rel diff ${rel(st1.sf, oracle.sf)}")
    assert(rel(st1.sb, oracle.sb) <= 1e-13, s"Sb rel diff ${rel(st1.sb, oracle.sb)}")
  }

  test("residual-free sweeps match the residual-maintaining oracle over 6 sweeps on citeseer-lite") {
    val cfg = PaneConfig(k = 64)
    val g = Datasets.load(Datasets.citeseer)
    val a = Apmi.run(g, cfg.alpha, cfg.t)
    val st = SvdCcd.greedyInit(a.fPrime, a.bPrime, cfg.k, cfg.t, cfg.seed)
    val oracle = new ResidualSweep(st)
    ParallelPane.psvdccd(st, iters = 6, nb = 1)
    for (_ <- 1 to 6) { oracle.nodePhase(); oracle.attrPhase() }
    for ((name, m, o) <- Seq(("Xf", st.xf, oracle.xf), ("Xb", st.xb, oracle.xb), ("Y", st.y, oracle.y))) {
      val diff = (m - o).maxAbs
      assert(diff <= 1e-12 * o.maxAbs, s"$name differs by $diff (max-abs ${o.maxAbs})")
    }
    val obj = SvdCcd.objective(a.fPrime, a.bPrime, Embeddings(st.xf, st.xb, st.y))
    val objOracle = SvdCcd.objective(a.fPrime, a.bPrime, Embeddings(oracle.xf, oracle.xb, oracle.y))
    assert(math.abs(obj - objOracle) <= 1e-12 * objOracle, s"objective $obj vs oracle $objOracle")
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
    val g = gf ++ gb
    val y1 = y.copy
    SvdCcd.attrReplay(y1, g, hf.data ++ hb.data, 0, d)
    val (gf2, gb2) = (gf.clone, gb.clone)
    val (y2, _) = formerSparkReplay(y, gf2, gb2, hf, hb)
    assert(java.util.Arrays.equals(y1.data, y2.data))
    assert(java.util.Arrays.equals(g.take(half * d), gf2))
    assert(java.util.Arrays.equals(g.slice(half * d, 2 * half * d), gb2))
  }

  test("staged nodeRow equals the flat kernel bit for bit for every k/2 % 4") {
    // k/2 = 1..3 run only the remainder loops, 4 and 8 only the four-row
    // passes, 5..7 both; rows have lengths that are not multiples of 4 and
    // start at offsets > 0. At density 0.75 a quarter of the F' and B'
    // entries are exact zeros; at 0.1 most are, as in a sparse F', and
    // row 1 of F' and B' is all zeros. The flat kernel sums every term, the
    // staged one only the non-zero ones.
    for (half <- 1 to 8; (w, density) <- Seq((1, 0.75), (7, 0.75), (13, 0.75), (9, 0.1), (37, 0.1))) {
      val rnd = new scala.util.Random(300L + 17 * half + w)
      val where = s"k/2 = $half, d = $w, density $density"
      val y = new DenseMatrix(w, half, mixed(w * half, rnd))
      if (half == 5) for (j <- 0 until w) y(j, 1) = 0.0 // H[1,1] = 0: the skipped coordinate
      val (kern, flat) = (new SvdCcd.RowKernels(y), new FlatRowKernels(y))
      val rows = 3
      val (xOff, rOff) = (1, 2)
      val xf1 = mixed(xOff + rows * half, rnd); val xb1 = mixed(xOff + rows * half, rnd)
      val f = sparse(rOff + rows * w + 1, density, rnd); val b = sparse(rOff + rows * w + 1, density, rnd)
      if (density < 0.5) for (m <- Seq(f, b)) java.util.Arrays.fill(m, rOff + w, rOff + 2 * w, 0.0)
      val (xf2, xb2, f0, b0) = (xf1.clone, xb1.clone, f.clone, b.clone)
      for (i <- 0 until rows) {
        kern.nodeRow(xf1, xb1, xOff + i * half, f, b, rOff + i * w)
        flat.nodeRow(xf2, xb2, xOff + i * half, f, b, rOff + i * w)
      }
      assert(java.util.Arrays.equals(xf1, xf2) && java.util.Arrays.equals(xb1, xb2), s"nodeRow X $where")
      assert(java.util.Arrays.equals(f, f0) && java.util.Arrays.equals(b, b0), s"nodeRow wrote F' or B', $where")
    }
  }

  test("staged attrGramRows equals the flat kernel bit for bit") {
    // rows mod 4 = 1, 2, 3 and 0; k/2 mod 4 = 0..3; fOff > 0 and
    // fStride > w; G starts non-zero, as a second call on it would find it.
    for (rows <- Seq(1, 4, 6, 7, 9); half <- Seq(3, 4, 5, 6, 8); w <- Seq(5, 7, 13)) {
      val rnd = new scala.util.Random(500L + 100 * rows + 10 * half + w)
      val (fOff, stride) = (3, w + 4)
      val (xf, xb) = (mixed(rows * half, rnd), mixed(rows * half, rnd))
      val (f, b) = (mixed(fOff + rows * stride, rnd), mixed(fOff + rows * stride, rnd))
      val g1 = mixed(2 * half * w, rnd)
      val g2 = g1.clone
      SvdCcd.attrGramRows(xf, xb, f, b, fOff, stride, rows, half, w, g1)
      flatAttrGramRows(xf, xb, f, b, fOff, stride, rows, half, w, g2)
      assert(java.util.Arrays.equals(g1, g2), s"attrGramRows rows = $rows, k/2 = $half, w = $w")
    }
  }

  test("H from attrGramRows on X equals the flat gramRows bit for bit") {
    // rows mod 4 = 0..3 and k/2 mod 4 = 0..3: from zero (gramian) and onto
    // an H that starts non-zero, as a second call on it would find it.
    for (rows <- 1 to 9; half <- 1 to 8) {
      val rnd = new scala.util.Random(900L + 10 * rows + half)
      val where = s"rows = $rows, k/2 = $half"
      val (xf, xb) = (new DenseMatrix(rows, half, mixed(rows * half, rnd)), new DenseMatrix(rows, half, mixed(rows * half, rnd)))
      val st = SvdCcd.State(xf, xb, DenseMatrix.zeros(1, half), DenseMatrix.zeros(rows, 1), DenseMatrix.zeros(rows, 1))
      val flat = new Array[Double](2 * half * half)
      flatGramRows(xf.data, xb.data, rows, half, flat)
      assert(java.util.Arrays.equals(SvdCcd.gramian(st), flat), s"gramian $where")
      val h1 = mixed(2 * half * half, rnd)
      val h2 = h1.clone
      SvdCcd.attrGramRows(xf.data, xb.data, xf.data, xb.data, 0, half, rows, half, half, h1)
      flatGramRows(xf.data, xb.data, rows, half, h2)
      assert(java.util.Arrays.equals(h1, h2), s"pre-filled H $where")
    }
  }

  test("nodeSweep and attrSweep equal the flat-kernel sweeps bit for bit on sub-ranges") {
    val (n, d) = (13, 11)
    for (half <- Seq(3, 4, 5, 6, 8)) {
      val rnd = new scala.util.Random(700L + half)
      def mat(r: Int, c: Int) = new DenseMatrix(r, c, mixed(r * c, rnd))
      val st1 = SvdCcd.State(mat(n, half), mat(n, half), mat(d, half), mat(n, d), mat(n, d))
      val st2 = SvdCcd.State(st1.xf.copy, st1.xb.copy, st1.y.copy, st1.f, st1.b)
      def same(step: String): Unit = {
        val where = s"k/2 = $half, $step"
        assert(java.util.Arrays.equals(st1.xf.data, st2.xf.data), s"Xf $where")
        assert(java.util.Arrays.equals(st1.xb.data, st2.xb.data), s"Xb $where")
        assert(java.util.Arrays.equals(st1.y.data, st2.y.data), s"Y $where")
      }
      SvdCcd.nodeSweep(st1, 3, 10); flatNodeSweep(st2, 3, 10); same("nodeSweep [3, 10)")
      SvdCcd.attrSweep(st1, 2, 9); flatAttrSweep(st2, 2, 9); same("attrSweep [2, 9)")
      for (it <- 0 until 2) {
        SvdCcd.nodeSweep(st1, 0, n); flatNodeSweep(st2, 0, n); same(s"full nodeSweep $it")
        // The pool's form: H once, shared by two column blocks.
        val h = SvdCcd.gramian(st1)
        SvdCcd.attrSweep(st1, 4, d, h); SvdCcd.attrSweep(st1, 0, 4, h)
        flatAttrSweep(st2, 0, d); same(s"full attrSweep $it")
      }
    }
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
    val rf = flatMulT(e.xf, e.y) - aff.fPrime
    val rb = flatMulT(e.xb, e.y) - aff.bPrime
    val manual = rf.data.map(x => x * x).sum + rb.data.map(x => x * x).sum
    assert(math.abs(o - manual) < 1e-6 * math.max(1.0, manual))
  }

  /** The X-phase as first written: per node and coordinate, a dot product
    * and an update over column l of row-major Y (stride k/2), on the
    * oracle's maintained residuals.
    */
  private def columnStridedNodeSweep(st: ResidualSweep): Unit = {
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
  private def columnStridedAttrSweep(st: ResidualSweep): Unit = {
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

  private def objectiveOf(st: SvdCcd.State): Double =
    SvdCcd.objective(aff.fPrime, aff.bPrime, Embeddings(st.xf, st.xb, st.y))
}

/** The CCD kernels in their flat form, reading the n×d arrays at per-row
  * offsets: the bit-for-bit oracles of the staged kernels (here and in the
  * kernel bench), and the residual-maintaining sweep of Algorithm 4 that
  * [[SvdCcd]] ran before its sweeps formed the gradients from F'.
  */
object SvdCcdSpec {

  /** Random entries, about a quarter of them exact zeros. */
  def mixed(len: Int, rnd: scala.util.Random): Array[Double] =
    Array.fill(len)(if (rnd.nextInt(4) == 0) 0.0 else rnd.nextGaussian())

  /** Random entries, each non-zero with probability `density`. */
  def sparse(len: Int, density: Double, rnd: scala.util.Random): Array[Double] =
    Array.fill(len)(if (rnd.nextDouble() < density) rnd.nextGaussian() else 0.0)

  /** One residual patch on flat arrays: s[sOff + c] −= Σ_l coef[cOff + l]·m[l·w + c]
    * for c < w and l < half, where m is k/2 × w in l-major order, four
    * coordinates per pass.
    */
  def flatRowPatch(coef: Array[Double], cOff: Int, half: Int,
                   m: Array[Double], w: Int,
                   s: Array[Double], sOff: Int): Unit = {
    var l = 0
    while (l + 4 <= half) {
      val c0 = coef(cOff + l)
      val c1 = coef(cOff + l + 1)
      val c2 = coef(cOff + l + 2)
      val c3 = coef(cOff + l + 3)
      val o0 = l * w
      val o1 = o0 + w
      val o2 = o1 + w
      val o3 = o2 + w
      var c = 0
      while (c < w) {
        s(sOff + c) -= c0 * m(o0 + c) + c1 * m(o1 + c) + c2 * m(o2 + c) + c3 * m(o3 + c)
        c += 1
      }
      l += 4
    }
    while (l < half) {
      val c0 = coef(cOff + l)
      val o0 = l * w
      var c = 0
      while (c < w) { s(sOff + c) -= c0 * m(o0 + c); c += 1 }
      l += 1
    }
  }

  final class FlatRowKernels(y: DenseMatrix) {
    private val half = y.cols
    private val d = y.rows
    private val yt = y.transpose.data
    private val h = y.tMul(y).data
    private val gf = new Array[Double](half)
    private val gb = new Array[Double](half)
    private val dxf = new Array[Double](half)
    private val dxb = new Array[Double](half)

    /** gf, gb = m[i]·Y for the rows of mf, mb at `off`: eight sums per four
      * coordinates, then one pair per remaining coordinate.
      */
    private def rowTimesY(mf: Array[Double], mb: Array[Double], off: Int): Unit = {
      var l = 0
      while (l + 4 <= half) {
        val o0 = l * d
        val o1 = o0 + d
        val o2 = o1 + d
        val o3 = o2 + d
        var f0, f1, f2, f3, b0, b1, b2, b3 = 0.0
        var j = 0
        while (j < d) {
          val fj = mf(off + j)
          val bj = mb(off + j)
          val y0 = yt(o0 + j)
          val y1 = yt(o1 + j)
          val y2 = yt(o2 + j)
          val y3 = yt(o3 + j)
          f0 += fj * y0; f1 += fj * y1; f2 += fj * y2; f3 += fj * y3
          b0 += bj * y0; b1 += bj * y1; b2 += bj * y2; b3 += bj * y3
          j += 1
        }
        gf(l) = f0; gf(l + 1) = f1; gf(l + 2) = f2; gf(l + 3) = f3
        gb(l) = b0; gb(l + 1) = b1; gb(l + 2) = b2; gb(l + 3) = b3
        l += 4
      }
      while (l < half) {
        val o0 = l * d
        var f0, b0 = 0.0
        var j = 0
        while (j < d) { f0 += mf(off + j) * yt(o0 + j); b0 += mb(off + j) * yt(o0 + j); j += 1 }
        gf(l) = f0
        gb(l) = b0
        l += 1
      }
    }

    /** The coordinate loop from g = S[i]·Y: X[i] updated, ΔX[i] in dxf, dxb. */
    private def coordinates(xf: Array[Double], xb: Array[Double], xOff: Int): Unit = {
      var l = 0
      while (l < half) {
        val hOff = l * half
        val hll = h(hOff + l)
        if (hll > 1e-300) {
          val muF = gf(l) / hll
          val muB = gb(l) / hll
          xf(xOff + l) -= muF
          xb(xOff + l) -= muB
          dxf(l) = muF
          dxb(l) = muB
          var l2 = l + 1
          while (l2 < half) {
            val hv = h(hOff + l2)
            gf(l2) -= muF * hv
            gb(l2) -= muB * hv
            l2 += 1
          }
        } else {
          dxf(l) = 0.0
          dxb(l) = 0.0
        }
        l += 1
      }
    }

    /** The residual-free X-row update: g = X[i]·H − F'[i]·Y, with X[i]·H
      * summed over the rows of H in order, then the coordinate loop.
      */
    def nodeRow(xf: Array[Double], xb: Array[Double], xOff: Int,
                f: Array[Double], b: Array[Double], fOff: Int): Unit = {
      rowTimesY(f, b, fOff)
      for (l <- 0 until half) {
        var sf, sb = 0.0
        for (l2 <- 0 until half) {
          sf += xf(xOff + l2) * h(l2 * half + l)
          sb += xb(xOff + l2) * h(l2 * half + l)
        }
        gf(l) = sf - gf(l)
        gb(l) = sb - gb(l)
      }
      coordinates(xf, xb, xOff)
    }

    /** The residual-maintaining X-row update: g = S[i]·Y, the coordinate
      * loop, then S[i] −= ΔX[i]·Yᵀ.
      */
    def residualNodeRow(xf: Array[Double], xb: Array[Double], xOff: Int,
                        sf: Array[Double], sb: Array[Double], sOff: Int): Unit = {
      rowTimesY(sf, sb, sOff)
      coordinates(xf, xb, xOff)
      flatRowPatch(dxf, 0, half, yt, d, sf, sOff)
      flatRowPatch(dxb, 0, half, yt, d, sb, sOff)
    }

    /** Initial residual row S = X[i]·Yᵀ − F'[i]. */
    def residualRow(x: Array[Double], xOff: Int, f: Array[Double], fOff: Int,
                    s: Array[Double], sOff: Int): Unit = {
      var j = 0
      while (j < d) { s(sOff + j) = -f(fOff + j); j += 1 }
      var l = 0
      while (l < half) { dxf(l) = -x(xOff + l); l += 1 }
      flatRowPatch(dxf, 0, half, yt, d, s, sOff)
    }
  }

  /** XfᵀMf then XbᵀMb on w columns of M (M being F' and B', or Sf and Sb),
    * added to `g` in the [[SvdCcd.attrGramRows]] layout: four node rows per
    * pass, then the remainder rows.
    */
  def flatAttrGramRows(xf: Array[Double], xb: Array[Double],
                       mf: Array[Double], mb: Array[Double], mOff: Int, mStride: Int,
                       rows: Int, half: Int, w: Int, g: Array[Double]): Unit = {
    val gSize = half * w
    var r = 0
    while (r + 4 <= rows) {
      val x0 = r * half
      val x1 = x0 + half
      val x2 = x1 + half
      val x3 = x2 + half
      val s0 = mOff + r * mStride
      val s1 = s0 + mStride
      val s2 = s1 + mStride
      val s3 = s2 + mStride
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l); val f1 = xf(x1 + l); val f2 = xf(x2 + l); val f3 = xf(x3 + l)
        val b0 = xb(x0 + l); val b1 = xb(x1 + l); val b2 = xb(x2 + l); val b3 = xb(x3 + l)
        val gfOff = l * w
        val gbOff = gSize + l * w
        var c = 0
        while (c < w) {
          g(gfOff + c) += f0 * mf(s0 + c) + f1 * mf(s1 + c) + f2 * mf(s2 + c) + f3 * mf(s3 + c)
          g(gbOff + c) += b0 * mb(s0 + c) + b1 * mb(s1 + c) + b2 * mb(s2 + c) + b3 * mb(s3 + c)
          c += 1
        }
        l += 1
      }
      r += 4
    }
    while (r < rows) {
      val x0 = r * half
      val s0 = mOff + r * mStride
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l)
        val b0 = xb(x0 + l)
        val gfOff = l * w
        val gbOff = gSize + l * w
        var c = 0
        while (c < w) {
          g(gfOff + c) += f0 * mf(s0 + c)
          g(gbOff + c) += b0 * mb(s0 + c)
          c += 1
        }
        l += 1
      }
      r += 1
    }
  }

  /** Hf = XfᵀXf then Hb = XbᵀXb (k/2 × k/2 each, row-major) over `rows`
    * node rows, added to `h`: the dedicated Gramian kernel the Y-phase ran
    * before it formed H with [[SvdCcd.attrGramRows]] on X. Four node rows
    * per pass, then the remainder rows one by one.
    */
  def flatGramRows(xf: Array[Double], xb: Array[Double], rows: Int, half: Int, h: Array[Double]): Unit = {
    val hbOff = half * half
    var r = 0
    while (r + 4 <= rows) {
      val x0 = r * half
      val x1 = x0 + half
      val x2 = x1 + half
      val x3 = x2 + half
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l); val f1 = xf(x1 + l); val f2 = xf(x2 + l); val f3 = xf(x3 + l)
        val hfl = l * half
        var l2 = 0
        while (l2 < half) {
          h(hfl + l2) += f0 * xf(x0 + l2) + f1 * xf(x1 + l2) + f2 * xf(x2 + l2) + f3 * xf(x3 + l2)
          l2 += 1
        }
        val b0 = xb(x0 + l); val b1 = xb(x1 + l); val b2 = xb(x2 + l); val b3 = xb(x3 + l)
        val hbl = hbOff + l * half
        l2 = 0
        while (l2 < half) {
          h(hbl + l2) += b0 * xb(x0 + l2) + b1 * xb(x1 + l2) + b2 * xb(x2 + l2) + b3 * xb(x3 + l2)
          l2 += 1
        }
        l += 1
      }
      r += 4
    }
    while (r < rows) {
      val x0 = r * half
      var l = 0
      while (l < half) {
        val f0 = xf(x0 + l)
        val hfl = l * half
        var l2 = 0
        while (l2 < half) { h(hfl + l2) += f0 * xf(x0 + l2); l2 += 1 }
        val b0 = xb(x0 + l)
        val hbl = hbOff + l * half
        l2 = 0
        while (l2 < half) { h(hbl + l2) += b0 * xb(x0 + l2); l2 += 1 }
        l += 1
      }
      r += 1
    }
  }

  /** [[SvdCcd.nodeSweep]] on the flat kernel. */
  def flatNodeSweep(st: SvdCcd.State, rowFrom: Int, rowUntil: Int): Unit = {
    val half = st.xf.cols
    val d = st.y.rows
    val kern = new FlatRowKernels(st.y)
    for (i <- rowFrom until rowUntil) kern.nodeRow(st.xf.data, st.xb.data, i * half, st.f.data, st.b.data, i * d)
  }

  /** [[SvdCcd.attrSweep]] on the flat kernels ([[SvdCcd.attrUpdate]] is
    * shared).
    */
  def flatAttrSweep(st: SvdCcd.State, attrFrom: Int, attrUntil: Int): Unit = {
    val half = st.y.cols
    val d = st.y.rows
    val w = attrUntil - attrFrom
    val g = new Array[Double](2 * half * w)
    flatAttrGramRows(st.xf.data, st.xb.data, st.f.data, st.b.data, attrFrom, d, st.xf.rows, half, w, g)
    val h = new Array[Double](2 * half * half)
    flatGramRows(st.xf.data, st.xb.data, st.xf.rows, half, h)
    SvdCcd.attrUpdate(st.y, g, h, attrFrom, w)
  }

  /** The driver loop SparkPane ran before it called SvdCcd.attrReplay;
    * mutates gf and gb in place and returns the new Y and ΔY.
    */
  def formerSparkReplay(y: DenseMatrix, gf: Array[Double], gb: Array[Double],
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

  /** Algorithm 4's sweep as [[SvdCcd]] ran it until its sweeps formed the
    * gradients from F': Sf = Xf·Yᵀ − F' and Sb = Xb·Yᵀ − B' kept up to date
    * by a patch after every X row and after the Y-phase, on the flat
    * kernels (which the staged ones equalled bit for bit). Starts from
    * copies of `init`'s X and Y.
    */
  final class ResidualSweep(init: SvdCcd.State) {
    val xf: DenseMatrix = init.xf.copy
    val xb: DenseMatrix = init.xb.copy
    val y: DenseMatrix = init.y.copy
    private val n = xf.rows
    private val half = y.cols
    private val d = y.rows
    val sf: DenseMatrix = DenseMatrix.zeros(n, d)
    val sb: DenseMatrix = DenseMatrix.zeros(n, d)

    locally {
      val kern = new FlatRowKernels(y)
      for (i <- 0 until n) {
        kern.residualRow(xf.data, i * half, init.f.data, i * d, sf.data, i * d)
        kern.residualRow(xb.data, i * half, init.b.data, i * d, sb.data, i * d)
      }
    }

    /** The X-phase: one residual-maintaining row update per node. */
    def nodePhase(): Unit = {
      val kern = new FlatRowKernels(y)
      for (i <- 0 until n) kern.residualNodeRow(xf.data, xb.data, i * half, sf.data, sb.data, i * d)
    }

    /** The Y-phase: XᵀS and H, the replay, then S −= X·ΔYᵀ. */
    def attrPhase(): Unit = {
      val gSize = half * d
      val g = new Array[Double](2 * gSize)
      flatAttrGramRows(xf.data, xb.data, sf.data, sb.data, 0, d, n, half, d, g)
      val h = new Array[Double](2 * half * half)
      flatGramRows(xf.data, xb.data, n, half, h)
      val hf = new DenseMatrix(half, half, h.take(half * half))
      val hb = new DenseMatrix(half, half, h.drop(half * half))
      val (newY, delta) = formerSparkReplay(y, g.take(gSize), g.drop(gSize), hf, hb)
      System.arraycopy(newY.data, 0, y.data, 0, y.data.length)
      val deltaT = delta.transpose.data
      for (i <- 0 until n) {
        flatRowPatch(xf.data, i * half, half, deltaT, d, sf.data, i * d)
        flatRowPatch(xb.data, i * half, half, deltaT, d, sb.data, i * d)
      }
    }
  }
}
