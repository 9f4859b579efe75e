package repro.linalg

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll

/** Pure-ScalaCheck property suite (sbt runs the ScalaCheck framework
  * natively, no scalatestplus bridge needed). Complements the ScalaTest
  * suites with generator-driven algebraic laws.
  */
object LinalgProps extends Properties("linalg") {

  private val dimGen = Gen.choose(1, 7)
  private val seedGen = Gen.choose(0L, 10000L)

  private def mat(r: Int, c: Int, seed: Long) = DenseMatrix.randn(r, c, seed)

  property("matmul is associative: (AB)C = A(BC)") =
    forAll(dimGen, dimGen, dimGen, dimGen, seedGen) { (a, b, c, d, s) =>
      val m1 = mat(a, b, s); val m2 = mat(b, c, s + 1); val m3 = mat(c, d, s + 2)
      (((m1 * m2) * m3) - (m1 * (m2 * m3))).maxAbs < 1e-9
    }

  property("matmul distributes over addition: A(B+C) = AB+AC") =
    forAll(dimGen, dimGen, dimGen, seedGen) { (a, b, c, s) =>
      val m1 = mat(a, b, s); val m2 = mat(b, c, s + 1); val m3 = mat(b, c, s + 2)
      ((m1 * (m2 + m3)) - ((m1 * m2) + (m1 * m3))).maxAbs < 1e-9
    }

  property("transpose anti-commutes with multiplication: (AB)ᵀ = BᵀAᵀ") =
    forAll(dimGen, dimGen, dimGen, seedGen) { (a, b, c, s) =>
      val m1 = mat(a, b, s); val m2 = mat(b, c, s + 1)
      ((m1 * m2).transpose - (m2.transpose * m1.transpose)).maxAbs < 1e-9
    }

  property("frobenius is invariant under transpose") =
    forAll(dimGen, dimGen, seedGen) { (a, b, s) =>
      val m = mat(a, b, s)
      math.abs(m.frobenius - m.transpose.frobenius) < 1e-9
    }

  property("scale is linear in the scalar") =
    forAll(dimGen, dimGen, seedGen, Gen.choose(-3.0, 3.0)) { (a, b, s, x) =>
      val m = mat(a, b, s)
      (m.scale(2 * x) - (m.scale(x) + m.scale(x))).maxAbs < 1e-9
    }

  property("rowSums sum equals colSums sum equals total") =
    forAll(dimGen, dimGen, seedGen) { (a, b, s) =>
      val m = mat(a, b, s)
      math.abs(m.rowSums.sum - m.colSums.sum) < 1e-9
    }

  property("vstack preserves frobenius²") =
    forAll(dimGen, dimGen, dimGen, seedGen) { (a, b, c, s) =>
      val m1 = mat(a, c, s); val m2 = mat(b, c, s + 1)
      val v = DenseMatrix.vstack(Seq(m1, m2))
      val f1 = m1.frobenius; val f2 = m2.frobenius; val fv = v.frobenius
      math.abs(fv * fv - (f1 * f1 + f2 * f2)) < 1e-8
    }

  property("sparse row-normalization is idempotent") =
    forAll(dimGen, dimGen, seedGen, Gen.choose(0, 20)) { (r, c, s, n) =>
      val rnd = new scala.util.Random(s)
      val entries = List.fill(n)((rnd.nextInt(r), rnd.nextInt(c), rnd.nextDouble() + 0.1))
      val m = CooOracle.fromTriples(r, c, entries).rowNormalized
      (m.rowNormalized.toDense - m.toDense).maxAbs < 1e-12
    }

  property("sparse (Pᵀ)X via tMul equals dense transpose product") =
    forAll(dimGen, dimGen, seedGen, Gen.choose(0, 20)) { (r, c, s, n) =>
      val rnd = new scala.util.Random(s)
      val entries = List.fill(n)((rnd.nextInt(r), rnd.nextInt(c), rnd.nextDouble() * 4 - 2))
      val m = CooOracle.fromTriples(r, c, entries)
      val x = mat(r, 3, s + 7)
      (m.tMul(x) - (m.toDense.transpose * x)).maxAbs < 1e-9
    }

  property("Qr.thinQ: QᵀQ = I for random tall matrices") =
    forAll(dimGen, seedGen) { (c, s) =>
      val q = Qr.thinQ(mat(c + 5, c, s))
      (q.tMul(q) - DenseMatrix.eye(c)).maxAbs < 1e-8
    }

  property("Qr.orthonormal (CholeskyQR2): QᵀQ = I for random tall matrices") =
    forAll(dimGen, seedGen) { (c, s) =>
      val q = Qr.orthonormal(mat(4 * c + 5, c, s))
      (q.tMul(q) - DenseMatrix.eye(c)).maxAbs <= 1e-13
    }

  property("Eig.symmetric eigenvalues of AᵀA are non-negative") =
    forAll(dimGen, seedGen) { (n, s) =>
      val g = mat(n, n, s)
      val (w, _) = Eig.symmetric(g.tMul(g))
      w.forall(_ >= -1e-8)
    }

  property("Eig.symmetric trace is preserved") =
    forAll(dimGen, seedGen) { (n, s) =>
      val g = mat(n, n, s)
      val a = g.tMul(g)
      val (w, _) = Eig.symmetric(a)
      val trace = (0 until n).map(i => a(i, i)).sum
      math.abs(w.sum - trace) < 1e-8
    }

  property("Solve.ridge residual is zero within tolerance") =
    forAll(dimGen, seedGen, Gen.choose(0.1, 2.0)) { (n, s, lambda) =>
      val g = mat(n, n, s)
      val a = g.tMul(g)
      val b = mat(n, 2, s + 3)
      val x = Solve.ridge(a, lambda, b)
      val lhs = (a * x).zipWith(x, (av, xv) => av + lambda * xv)
      (lhs - b).maxAbs < 1e-7
    }
}
