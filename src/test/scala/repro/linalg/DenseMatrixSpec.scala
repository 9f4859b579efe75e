package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.PropSupport
import repro.linalg.DenseMatrixOps._
import DenseMatrixSpec._

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

  test("a * b.transpose equals the mulT loop bit for bit (property)") {
    // Inner dimension 0 and vector shapes; a third of the entries ±0.0, an
    // all-zero row in A and in B, and an inner column zero in both.
    val shapes = (0 until 25).map(dims(_)) ++ Seq((3, 0, 4), (1, 1, 1), (1, 9, 6), (6, 9, 1), (13, 37, 11))
    for (((r, k, c), s) <- shapes.zipWithIndex) {
      val rnd = new Random(40L + s)
      def entry() = rnd.nextInt(3) match { case 0 => if (rnd.nextBoolean()) -0.0 else 0.0; case _ => rnd.nextGaussian() }
      val a = new DenseMatrix(r, k, Array.fill(r * k)(entry()))
      val b = new DenseMatrix(c, k, Array.fill(c * k)(entry()))
      for (j <- 0 until k) { a(r - 1, j) = -0.0; b(0, j) = 0.0 }
      if (k > 1) { for (i <- 0 until r) a(i, 1) = 0.0; for (i <- 0 until c) b(i, 1) = -0.0 }
      assert(java.util.Arrays.equals((a * b.transpose).data, flatMulT(a, b).data), s"$r x $k x $c")
    }
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

  test("* equals the flat loop bit for bit at densities 0 to 1, on zero rows, −0.0 and non-finite B rows behind zeros") {
    // Inner dimensions 0–9 and 37 give every count of non-zeros mod 4.
    for (m <- (0 to 9) :+ 37; density <- Seq(0.0, 0.1, 0.5, 1.0)) {
      val rnd = new Random(31L * m + (10 * density).toInt)
      val where = s"inner $m, density $density"
      val (r, c) = (6, 5)
      val a = new DenseMatrix(r, m, Array.fill(r * m) {
        if (rnd.nextDouble() < density) rnd.nextGaussian() else if (rnd.nextBoolean()) -0.0 else 0.0
      })
      if (m > 0) for (k <- 0 until m) a(2, k) = 0.0 // an all-zero row
      val b = new DenseMatrix(m, c, Array.fill(m * c)(rnd.nextGaussian()))
      // A column of A that is zero in every row may hide NaN and Inf in B.
      if (m > 3) {
        for (i <- 0 until r) a(i, 3) = if (i % 2 == 0) -0.0 else 0.0
        for (j <- 0 until c) b(3, j) = if (j % 2 == 0) Double.NaN else Double.NegativeInfinity
      }
      val prod = a * b
      assert(java.util.Arrays.equals(prod.data, flatMul(a, b).data), s"* $where")
      assert(prod.data.forall(x => !x.isNaN && !x.isInfinite), s"non-finite leaked, $where")
      val out = Array.fill(2 + 3 * c)(-1.0)
      a.mulRowsInto(b, 2, 5, out, 2)
      assert(java.util.Arrays.equals(out, Array(-1.0, -1.0) ++ prod.data.slice(2 * c, 5 * c)), s"mulRowsInto $where")
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
    // Rows past the end were zero-padded before the range checks.
    for (i <- Seq(-1, 2)) assertThrows[IllegalArgumentException](a.row(i))
    for ((from, until) <- Seq((0, 3), (1, 0), (-1, 1), (2, 4)))
      assertThrows[IllegalArgumentException](a.rowSlice(from, until))
    assert(a.rowSlice(2, 2).rows == 0)
  }

  test("LinOp interface delegates to multiplication") {
    val a = DenseMatrix.randn(4, 3, 8L)
    val x = DenseMatrix.randn(3, 2, 9L)
    assert((a.applyTo(x) - (a * x)).maxAbs == 0.0)
    val y = DenseMatrix.randn(4, 2, 10L)
    assert((a.applyTransposeTo(y) - a.tMul(y)).maxAbs == 0.0)
  }
}

object DenseMatrixSpec {

  /** The flat i-k-j loops the staged `*` and `tMul` replaced, kept as
    * oracles (here and in the kernel bench), and the dot-product loop of
    * the former `mulT`, C = A·Bᵀ, the oracle of `a * b.transpose`.
    */
  def flatMul(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    val c = DenseMatrix.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols) {
      val aik = a.data(i * a.cols + k)
      if (aik != 0.0) for (j <- 0 until b.cols) c.data(i * b.cols + j) += aik * b.data(k * b.cols + j)
    }
    c
  }

  def flatMulT(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    require(a.cols == b.cols, s"dim mismatch: (${a.rows} x ${a.cols}) * (${b.rows} x ${b.cols})ᵀ")
    val c = DenseMatrix.zeros(a.rows, b.rows)
    for (i <- 0 until a.rows; j <- 0 until b.rows) {
      var s = 0.0
      for (k <- 0 until a.cols) s += a.data(i * a.cols + k) * b.data(j * b.cols + k)
      c.data(i * b.rows + j) = s
    }
    c
  }

  def flatTMul(a: DenseMatrix, b: DenseMatrix): DenseMatrix = {
    val c = DenseMatrix.zeros(a.cols, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols) {
      val aik = a.data(i * a.cols + k)
      if (aik != 0.0) for (j <- 0 until b.cols) c.data(k * b.cols + j) += aik * b.data(i * b.cols + j)
    }
    c
  }
}
