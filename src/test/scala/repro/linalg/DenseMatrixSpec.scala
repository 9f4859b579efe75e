package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.PropSupport

class DenseMatrixSpec extends AnyFunSuite with PropSupport {

  private def naiveMul(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    val c = DenseMatrix.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; j <- 0 until b.cols) {
      var s = 0.0
      for (k <- 0 until a.cols) s += a(i, k) * b(k, j)
      c(i, j) = s
    }
    c
  }

  private def dims(seed: Long): (Int, Int, Int) = {
    val r = new Random(seed)
    (r.nextInt(8) + 1, r.nextInt(8) + 1, r.nextInt(8) + 1)
  }

  test("zeros has all-zero entries and right shape") {
    val m = DenseMatrix.zeros(3, 5)
    assert(m.rows == 3 && m.cols == 5)
    assert(m.data.forall(_ == 0.0))
  }

  test("zeros and randn reject sizes a JVM array cannot hold, before allocating") {
    val e = intercept[IllegalArgumentException](DenseMatrix.zeros(70000, 70000))
    assert(e.getMessage.contains("70000 x 70000") && e.getMessage.contains("37384 MiB"), e.getMessage)
    intercept[IllegalArgumentException](DenseMatrix.randn(70000, 70000, 1L))
    intercept[IllegalArgumentException](DenseMatrix.zeros(-1, 3))
  }

  test("eye is the multiplicative identity") {
    val a = DenseMatrix.randn(4, 4, 1L)
    assert(((a * DenseMatrix.eye(4)) - a).maxAbs < 1e-12)
    assert(((DenseMatrix.eye(4) * a) - a).maxAbs < 1e-12)
  }

  test("update/apply round trip") {
    val m = DenseMatrix.zeros(2, 3)
    m(1, 2) = 4.5
    assert(m(1, 2) == 4.5)
    assert(m(0, 0) == 0.0)
  }

  test("GEMM matches the naive triple loop (property)") {
    forSeeds(25) { seed =>
      val (r, k, c) = dims(seed)
      val a = DenseMatrix.randn(r, k, seed)
      val b = DenseMatrix.randn(k, c, seed + 1)
      assert(((a * b) - naiveMul(a, b)).maxAbs < 1e-10)
    }
  }

  test("tMul equals transpose-then-multiply (property)") {
    forSeeds(25) { seed =>
      val (r, k, c) = dims(seed)
      val a = DenseMatrix.randn(r, k, seed)
      val b = DenseMatrix.randn(r, c, seed + 1)
      assert((a.tMul(b) - (a.transpose * b)).maxAbs < 1e-10)
    }
  }

  test("mulT equals multiply-by-transpose (property)") {
    forSeeds(25) { seed =>
      val (r, k, c) = dims(seed)
      val a = DenseMatrix.randn(r, k, seed)
      val b = DenseMatrix.randn(c, k, seed + 1)
      assert((a.mulT(b) - (a * b.transpose)).maxAbs < 1e-10)
    }
  }

  /** The flat i-k-j loops the staged `*` and `tMul` replaced, kept as oracles. */
  private def flatMul(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    val c = DenseMatrix.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols) {
      val aik = a.data(i * a.cols + k)
      if (aik != 0.0) for (j <- 0 until b.cols) c.data(i * b.cols + j) += aik * b.data(k * b.cols + j)
    }
    c
  }

  private def flatTMul(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    val c = DenseMatrix.zeros(a.cols, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols) {
      val aik = a.data(i * a.cols + k)
      if (aik != 0.0) for (j <- 0 until b.cols) c.data(k * b.cols + j) += aik * b.data(i * b.cols + j)
    }
    c
  }

  test("staged * and tMul equal the flat loops bit for bit, with exact zeros and vector shapes") {
    val shapes = Seq((1, 7, 5), (7, 1, 5), (7, 5, 1), (1, 1, 1), (13, 9, 11), (40, 33, 17))
    for (((r, m, c), s) <- shapes.zipWithIndex) {
      // Every third entry of A is an exact zero, so the zero skip is exercised.
      val a = DenseMatrix.randn(r, m, 10L + s).map(x => if (math.abs(x) < 0.43) 0.0 else x)
      val b = DenseMatrix.randn(m, c, 20L + s)
      val bt = DenseMatrix.randn(r, c, 30L + s)
      assert(java.util.Arrays.equals((a * b).data, flatMul(a, b).data), s"* at $r x $m x $c")
      assert(java.util.Arrays.equals(a.tMul(bt).data, flatTMul(a, bt).data), s"tMul at $r x $m x $c")
    }
  }

  test("transpose is an involution") {
    val a = DenseMatrix.randn(5, 3, 2L)
    assert((a.transpose.transpose - a).maxAbs == 0.0)
  }

  test("row and col extract the right vectors") {
    val a = new DenseMatrix(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    assert(a.row(1).toSeq == Seq(4.0, 5.0, 6.0))
    assert(a.transpose.row(2).toSeq == Seq(3.0, 6.0))
  }

  test("rowSums and colSums") {
    val a = new DenseMatrix(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    assert(a.rowSums.toSeq == Seq(6.0, 15.0))
    assert(a.colSums.toSeq == Seq(5.0, 7.0, 9.0))
  }

  test("rowSlice and colSlice") {
    val a = new DenseMatrix(3, 3, (1 to 9).map(_.toDouble).toArray)
    val rs = a.rowSlice(1, 3)
    assert(rs.rows == 2 && rs.row(0).toSeq == Seq(4.0, 5.0, 6.0))
    // A column block is a row block of the transpose.
    val cs = a.transpose.rowSlice(1, 2)
    assert(cs.rows == 1 && cs.data.toSeq == Seq(2.0, 5.0, 8.0))
  }

  test("vstack stacks blocks in order") {
    val a = new DenseMatrix(1, 2, Array(1.0, 2.0))
    val b = new DenseMatrix(2, 2, Array(3.0, 4.0, 5.0, 6.0))
    val v = DenseMatrix.vstack(Seq(a, b))
    assert(v.rows == 3 && v.row(2).toSeq == Seq(5.0, 6.0))
  }

  test("frobenius matches manual computation") {
    val a = new DenseMatrix(1, 2, Array(3.0, 4.0))
    assert(math.abs(a.frobenius - 5.0) < 1e-12)
  }

  test("zipWith and map operate elementwise") {
    val a = new DenseMatrix(1, 3, Array(1.0, 2.0, 3.0))
    val b = new DenseMatrix(1, 3, Array(10.0, 20.0, 30.0))
    assert(a.zipWith(b, _ + _).data.toSeq == Seq(11.0, 22.0, 33.0))
    assert(a.map(_ * 2).data.toSeq == Seq(2.0, 4.0, 6.0))
    assert(a.scale(3.0).data.toSeq == Seq(3.0, 6.0, 9.0))
  }

  test("copy is deep") {
    val a = DenseMatrix.randn(2, 2, 5L)
    val c = a.copy
    c(0, 0) = 99.0
    assert(a(0, 0) != 99.0)
  }

  test("fromRows builds the expected matrix and rejects ragged input") {
    val m = DenseMatrix.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(m(1, 0) == 3.0)
    assertThrows[IllegalArgumentException](
      DenseMatrix.fromRows(Seq(Array(1.0), Array(1.0, 2.0))))
  }

  test("randn is deterministic in the seed") {
    val a = DenseMatrix.randn(3, 3, 42L)
    val b = DenseMatrix.randn(3, 3, 42L)
    assert((a - b).maxAbs == 0.0)
    val c = DenseMatrix.randn(3, 3, 43L)
    assert((a - c).maxAbs > 0.0)
  }

  test("dimension mismatches are rejected") {
    val a = DenseMatrix.zeros(2, 3)
    val b = DenseMatrix.zeros(2, 3)
    assertThrows[IllegalArgumentException](a * b)
    assertThrows[IllegalArgumentException](a.zipWith(DenseMatrix.zeros(3, 2), _ + _))
  }

  test("LinOp interface delegates to multiplication") {
    val a = DenseMatrix.randn(4, 3, 8L)
    val x = DenseMatrix.randn(3, 2, 9L)
    assert((a.applyTo(x) - (a * x)).maxAbs == 0.0)
    val y = DenseMatrix.randn(4, 2, 10L)
    assert((a.applyTransposeTo(y) - a.tMul(y)).maxAbs == 0.0)
  }
}
