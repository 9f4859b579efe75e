package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RowAxpySpec extends AnyFunSuite {

  /** The flat loop [[RowAxpy]] must equal: out += a[k]·R[k] one row at a
    * time, in ascending k, skipping the exact zeros of a.
    */
  private def flatAddNonZeros(a: Array[Double], off: Int, n: Int,
                              r: Array[Array[Double]], out: Array[Double], w: Int): Unit =
    for (k <- 0 until n) {
      val ak = a(off + k)
      if (ak != 0.0) for (j <- 0 until w) out(j) += ak * r(k)(j)
    }

  /** Entries that are non-zero with probability `density`; a third of the
    * zeros are −0.0.
    */
  private def sparseRow(len: Int, density: Double, rnd: Random): Array[Double] =
    Array.fill(len) {
      if (rnd.nextDouble() < density) rnd.nextGaussian()
      else if (rnd.nextInt(3) == 0) -0.0 else 0.0
    }

  private def same(a: Array[Double], b: Array[Double]): Boolean = java.util.Arrays.equals(a, b)

  test("addNonZeros equals the flat zero-skipping loop bit for bit at every length mod 4 and density") {
    for (n <- (0 to 9) :+ 37; density <- Seq(0.0, 0.1, 0.5, 1.0); w <- Seq(1, 5, 8)) {
      val rnd = new Random(1000L * n + (100 * density).toInt + w)
      val where = s"n = $n, density = $density, w = $w"
      val off = 3
      val a = Array.fill(off)(rnd.nextGaussian()) ++ sparseRow(n, density, rnd) ++ Array(rnd.nextGaussian())
      val r = Array.fill(n)(Array.fill(w)(rnd.nextGaussian()))
      val kern = new RowAxpy(n + 2)
      // From a zero row, and onto a row that already holds a sum.
      for (start <- Seq(new Array[Double](w), Array.fill(w)(rnd.nextGaussian()))) {
        val (o1, o2) = (start.clone, start.clone)
        kern.addNonZeros(a, off, n, r, o1, w)
        flatAddNonZeros(a, off, n, r, o2, w)
        assert(same(o1, o2), where)
      }
      val nnz = (0 until n).count(k => a(off + k) != 0.0)
      assert(kern.nonZeros(a, off, n) == nnz, s"nonZeros, $where")
    }
  }

  test("an all-zero row, ±0.0 entries and non-finite R rows behind zeros leave out untouched") {
    val w = 6
    val rnd = new Random(7L)
    val r = Array.tabulate(11)(k => Array.fill(w)(if (k % 2 == 0) Double.NaN else Double.PositiveInfinity))
    val kern = new RowAxpy(11)
    val start = Array.fill(w)(rnd.nextGaussian())
    val out = start.clone
    kern.addNonZeros(Array.tabulate(11)(k => if (k % 3 == 0) -0.0 else 0.0), 0, 11, r, out, w)
    assert(same(out, start))
    // −0.0 in a next to non-zero entries: R rows behind zeros are NaN or Inf,
    // the others finite, so a single unskipped zero would turn out into NaN.
    val a = Array(0.0, 1.5, -0.0, -2.0, 0.0, 0.25, -0.0, 3.0, 0.0)
    val r2 = Array.tabulate(a.length)(k =>
      if (a(k) == 0.0) Array.fill(w)(if (k % 2 == 0) Double.NaN else Double.NegativeInfinity)
      else Array.fill(w)(rnd.nextGaussian()))
    val (o1, o2) = (start.clone, start.clone)
    kern.addNonZeros(a, 0, a.length, r2, o1, w)
    flatAddNonZeros(a, 0, a.length, r2, o2, w)
    assert(same(o1, o2) && o1.forall(x => !x.isNaN && !x.isInfinite))
  }

  test("add on (value, index) runs equals the flat gather loop bit for bit, zeros included") {
    // The sparse form skips nothing: a zero value times an infinite row is
    // NaN in the flat loop and must be NaN here too.
    for (nnz <- (0 to 9) :+ 37; w <- Seq(1, 4, 7)) {
      val rnd = new Random(50L * nnz + w)
      val rows = Array.fill(12)(Array.fill(w)(rnd.nextGaussian()))
      val (lo, hi) = (2, 2 + nnz)
      val v = Array.fill(hi + 1)(if (rnd.nextInt(5) == 0) 0.0 else rnd.nextGaussian())
      val ix = Array.fill(hi + 1)(rnd.nextInt(rows.length))
      val start = Array.fill(w)(rnd.nextGaussian())
      val (o1, o2) = (start.clone, start.clone)
      RowAxpy.add(v, ix, lo, hi, rows, o1, w)
      for (m <- lo until hi; j <- 0 until w) o2(j) += v(m) * rows(ix(m))(j)
      assert(same(o1, o2), s"nnz = $nnz, w = $w")
    }
    val inf = Array(Array.fill(3)(Double.PositiveInfinity))
    val out = new Array[Double](3)
    RowAxpy.add(Array(0.0), Array(0), 0, 1, inf, out, 3)
    assert(out.forall(_.isNaN))
  }

  test("a row longer than the scratch fails loudly") {
    assertThrows[IllegalArgumentException](new RowAxpy(3).nonZeros(new Array[Double](4), 0, 4))
  }
}
