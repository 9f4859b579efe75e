package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.PropSupport
import repro.Fixtures
import repro.linalg.DenseMatrixOps._
import SparseMatrixSpec.{rawCsr, scatterTMul}

class DecompositionSpec extends AnyFunSuite with PropSupport {

  // ---------------------------------------------------------------- QR

  test("thinQ produces orthonormal columns (property)") {
    forSeeds(25) { seed =>
      val c = new Random(seed).nextInt(6) + 1
      val r = c + 4
      val q = Qr.thinQ(DenseMatrix.randn(r, c, seed))
      val qtq = q.tMul(q)
      assert((qtq - DenseMatrix.eye(c)).maxAbs < 1e-9)
    }
  }

  test("thinQ spans the input column space") {
    val a = DenseMatrix.randn(10, 3, 1L)
    val q = Qr.thinQ(a)
    // Projection of A onto span(Q) recovers A: Q Qᵀ A = A.
    val proj = q * q.tMul(a)
    assert((proj - a).maxAbs < 1e-9)
  }

  test("thinQ handles rank-deficient input without NaNs") {
    val a = DenseMatrix.zeros(5, 3)
    for (i <- 0 until 5) { a(i, 0) = i + 1.0; a(i, 1) = 2.0 * (i + 1.0) } // col1 = 2*col0, col2 = 0
    val q = Qr.thinQ(a)
    assert(!q.data.exists(_.isNaN))
  }

  test("thinQ rejects wide matrices") {
    assertThrows[IllegalArgumentException](Qr.thinQ(DenseMatrix.randn(2, 5, 1L)))
  }

  test("CholeskyQR2 gives orthonormal columns with the span of Householder QR") {
    forSeeds(10) { seed =>
      val c = new Random(seed).nextInt(40) + 1
      val a = DenseMatrix.randn(c + 10 + new Random(seed + 1).nextInt(300), c, seed)
      val q = Qr.cholQr2(a).getOrElse(fail(s"seed $seed: well-conditioned input fell back"))
      assert((q.tMul(q) - DenseMatrix.eye(c)).maxAbs <= 1e-13)
      val h = Qr.thinQ(a)
      assert((q * q.transpose - h * h.transpose).maxAbs <= 1e-12, "projectors onto the two spans differ")
      assert(Qr.orthonormal(a).data.sameElements(q.data))
    }
  }

  test("orthonormal falls back to Householder on rank-deficient or tiny-pivot input") {
    val exact = DenseMatrix.randn(30, 3, 4L) * DenseMatrix.randn(6, 3, 5L).transpose // 30 × 6, rank 3
    // Column 2 = column 0 + 1e-7·noise: its pivot is positive but ~1e-14 of its squared norm.
    val near = DenseMatrix.randn(30, 3, 6L)
    val noise = DenseMatrix.randn(30, 1, 7L)
    for (i <- 0 until 30) near(i, 2) = near(i, 0) + 1e-7 * noise(i, 0)
    for (a <- Seq(exact, near)) {
      assert(Qr.cholQr2(a).isEmpty)
      val q = Qr.orthonormal(a)
      assert(q.data.sameElements(Qr.thinQ(a).data))
      assert((q.tMul(q) - DenseMatrix.eye(a.cols)).maxAbs <= 1e-13)
    }
  }

  // --------------------------------------------------------------- Eig

  test("symmetric eig reconstructs the matrix (property)") {
    forSeeds(25) { seed =>
      val n = new Random(seed).nextInt(7) + 1
      val g = DenseMatrix.randn(n, n, seed)
      val a = g.tMul(g) // symmetric PSD
      val (w, v) = Eig.symmetric(a)
      // reconstruct V diag(w) Vᵀ
      val wd = DenseMatrix.zeros(n, n)
      for (i <- 0 until n) wd(i, i) = w(i)
      val rec = v * wd * v.transpose
      assert((rec - a).maxAbs < 1e-8)
    }
  }

  test("symmetric eig returns descending eigenvalues and orthonormal V") {
    val g = DenseMatrix.randn(6, 6, 3L)
    val a = g.tMul(g)
    val (w, v) = Eig.symmetric(a)
    assert(w.sliding(2).forall(p => p(0) >= p(1) - 1e-12))
    assert((v.tMul(v) - DenseMatrix.eye(6)).maxAbs < 1e-9)
  }

  test("symmetric eig on a diagonal matrix returns its entries sorted") {
    val a = DenseMatrix.zeros(3, 3)
    a(0, 0) = 2.0; a(1, 1) = 5.0; a(2, 2) = 1.0
    val (w, _) = Eig.symmetric(a)
    assert(w.toSeq == Seq(5.0, 2.0, 1.0))
  }

  // ------------------------------------------------------------ RandSvd

  test("RandSvd recovers an exactly low-rank matrix") {
    val u0 = DenseMatrix.randn(30, 3, 1L)
    val v0 = DenseMatrix.randn(8, 3, 2L)
    val a = u0 * v0.transpose
    val (u, s, v) = RandSvd(a, 3, iters = 4)
    val rec = reconstruct(u, s, v)
    assert((rec - a).maxAbs < 1e-7)
  }

  test("RandSvd factors have orthonormal columns") {
    val a = DenseMatrix.randn(20, 10, 5L)
    val (u, s, v) = RandSvd(a, 4, iters = 6)
    assert((u.tMul(u) - DenseMatrix.eye(4)).maxAbs < 1e-8)
    assert((v.tMul(v) - DenseMatrix.eye(4)).maxAbs < 1e-8)
    assert(s.sliding(2).forall(p => p(0) >= p(1) - 1e-12))
    assert(s.forall(_ >= 0))
  }

  test("RandSvd approximates the best rank-k error within a small factor") {
    // Known spectrum: diag(10, 5, 2, 1, 0.5, ...) embedded via rotations.
    val n = 25; val d = 12
    val sv = Array.tabulate(d)(i => math.pow(0.6, i) * 10)
    val qu = Qr.thinQ(DenseMatrix.randn(n, d, 7L))
    val qv = Qr.thinQ(DenseMatrix.randn(d, d, 8L))
    val a = {
      val m = DenseMatrix.zeros(n, d)
      for (i <- 0 until n; j <- 0 until d) {
        var s = 0.0
        for (k <- 0 until d) s += qu(i, k) * sv(k) * qv(j, k)
        m(i, j) = s
      }
      m
    }
    val k = 4
    val (u, s, v) = RandSvd(a, k, iters = 8)
    val err = (reconstruct(u, s, v) - a).frobenius
    val bestErr = math.sqrt(sv.drop(k).map(x => x * x).sum)
    assert(err <= bestErr * 1.2 + 1e-9)
  }

  test("RandSvd is deterministic in the seed") {
    val a = DenseMatrix.randn(15, 6, 9L)
    val (u1, s1, _) = RandSvd(a, 3, 3, seed = 5L)
    val (u2, s2, _) = RandSvd(a, 3, 3, seed = 5L)
    assert((u1 - u2).maxAbs == 0.0)
    assert(s1.toSeq == s2.toSeq)
  }

  test("RandSvd works through the implicit PPR operator") {
    val p = CooOracle.fromTriples(5, 5, Seq(
      (0, 1, 1.0), (1, 2, 0.5), (1, 0, 0.5), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0)))
    val alpha = 0.2; val t = 8
    val op = new PprOp(p, alpha, t)
    // Explicit dense equivalent built by repeated multiplication.
    val explicit = op.applyTo(DenseMatrix.eye(5))
    val (u, s, v) = RandSvd(op, 3, iters = 6)
    val (u2, s2, v2) = RandSvd(explicit, 3, iters = 6)
    // Same singular values (vectors may differ by sign/rotation).
    s.zip(s2).foreach { case (a, b) => assert(math.abs(a - b) < 1e-8) }
    assert((reconstruct(u, s, v) - reconstruct(u2, s2, v2)).maxAbs < 1e-7)
  }

  test("PprOp matches the explicit truncated series") {
    val p = CooOracle.fromTriples(4, 4, Seq(
      (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)))
    val alpha = 0.3; val t = 5
    val op = new PprOp(p, alpha, t)
    val x = DenseMatrix.randn(4, 2, 3L)
    // α Σ_{ℓ=0..t} (1-α)^ℓ P^ℓ X
    var expected = DenseMatrix.zeros(4, 2)
    var term = x.copy
    for (l <- 0 to t) {
      expected = expected.zipWith(term, (e, v) => e + alpha * math.pow(1 - alpha, l) * v)
      term = p * term
    }
    assert((op.applyTo(x) - expected).maxAbs < 1e-10)
    // transpose path
    var expectedT = DenseMatrix.zeros(4, 2)
    var termT = x.copy
    for (l <- 0 to t) {
      expectedT = expectedT.zipWith(termT, (e, v) => e + alpha * math.pow(1 - alpha, l) * v)
      termT = scatterTMul(p, termT)
    }
    assert((op.applyTransposeTo(x) - expectedT).maxAbs < 1e-10)
  }

  test("PprOp equals the Horner loop over P and the Pᵀ scatter bit for bit") {
    val alpha = 0.15
    val ps = Seq(Fixtures.mid.walkMatrix, Fixtures.figure1NoAttrs.walkMatrix) ++
      (0L until 20L).map { s => val r = new Random(s); val n = r.nextInt(9); rawCsr(n, n, r) }
    for ((p, s) <- ps.zipWithIndex; t <- Seq(0, 1, 4)) {
      val x = DenseMatrix.randn(p.rows, 3, s.toLong)
      def horner(step: DenseMatrix => DenseMatrix): DenseMatrix = {
        var acc = x.copy
        for (_ <- 1 to t) acc = x.zipWith(step(acc), (a, b) => a + (1 - alpha) * b)
        acc.scale(alpha)
      }
      val op = new PprOp(p, alpha, t)
      assert(java.util.Arrays.equals(op.applyTo(x).data, horner(p * _).data), s"P·X, matrix $s, t = $t")
      assert(java.util.Arrays.equals(op.applyTransposeTo(x).data, horner(scatterTMul(p, _)).data),
        s"Pᵀ·X, matrix $s, t = $t")
    }
  }

  // -------------------------------------------------------------- Solve

  test("ridge solves (A + λI) X = B") {
    val g = DenseMatrix.randn(5, 5, 11L)
    val a = g.tMul(g)
    val b = DenseMatrix.randn(5, 3, 12L)
    val lambda = 0.7
    val x = Solve.ridge(a, lambda, b)
    val lhs = (a * x).zipWith(x, (av, xv) => av + lambda * xv)
    assert((lhs - b).maxAbs < 1e-8)
  }

  test("sylvesterRidge solves A·H·B + λH = C") {
    val ga = DenseMatrix.randn(4, 4, 13L)
    val gb = DenseMatrix.randn(3, 3, 14L)
    val a = ga.tMul(ga)
    val b = gb.tMul(gb)
    val c = DenseMatrix.randn(4, 3, 15L)
    val lambda = 0.5
    val h = Solve.sylvesterRidge(a, b, lambda, c)
    val lhs = ((a * h) * b).zipWith(h, (v, hv) => v + lambda * hv)
    assert((lhs - c).maxAbs < 1e-8)
  }

  private def reconstruct(u: DenseMatrix, s: Array[Double], v: DenseMatrix): DenseMatrix = {
    val us = u.copy
    for (i <- 0 until u.rows; j <- 0 until u.cols) us(i, j) = u(i, j) * s(j)
    us * v.transpose
  }
}
