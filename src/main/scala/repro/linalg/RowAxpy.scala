package repro.linalg

/** The one row-accumulation kernel: out += Σ_m v[m]·R[ix[m]] over a run of
  * (value, row index) pairs, in ascending m. Four rows are added per pass,
  * `out(j) = out(j) + v0·r0(j) + v1·r1(j) + v2·r2(j) + v3·r3(j)`, then the
  * remainder one row at a time. Java evaluates that expression left to
  * right, so each out(j) receives the same terms in the same order as the
  * flat loop `for (m) out(j) += v[m]·R[ix[m]](j)`, and the result is
  * bit-identical to it. Every array in the inner loops is read at one
  * index, the form C2 vectorises (DESIGN.md §2, kernel shape).
  *
  * A sparse row (P's values and column indices in `Apmi.propagate`) runs
  * through [[RowAxpy.add]] as it is. A dense row runs through an instance,
  * which first compacts the row's non-zero entries ([[nonZeros]]), so
  * exact zeros cost one compare instead of a pass over an R row.
  *
  * An instance holds scratch for rows of up to `len` entries and is not
  * thread-safe: each thread builds its own.
  */
final class RowAxpy(len: Int) {
  private val vals = new Array[Double](len)
  private val idx = new Array[Int](len)

  /** Compacts the non-zero entries of a[off, off + n) into this instance's
    * scratch, in ascending order, without a branch: each entry is written
    * and the count advances only when it is not zero. −0.0 counts as zero
    * (`-0.0 != 0.0` is false) and NaN as non-zero. Returns the count.
    */
  private[linalg] def nonZeros(a: Array[Double], off: Int, n: Int): Int = {
    require(n <= len, s"row of $n entries exceeds the scratch of $len")
    var m = 0
    var k = 0
    while (k < n) {
      val x = a(off + k)
      vals(m) = x
      idx(m) = k
      m += (if (x != 0.0) 1 else 0)
      k += 1
    }
    m
  }

  /** out[0, w) += Σ_k a[off + k]·r(k)[0, w) for k < n, skipping the exact
    * zeros of a: the flat loop with its `a(k) != 0.0` skip, bit for bit.
    * Rows of R whose entry of a is zero are not read, so a NaN or Inf there
    * does not reach `out`.
    */
  def addNonZeros(a: Array[Double], off: Int, n: Int,
                  r: Array[Array[Double]], out: Array[Double], w: Int): Unit =
    RowAxpy.add(vals, idx, 0, nonZeros(a, off, n), r, out, w)
}

object RowAxpy {

  /** out[0, w) += Σ_m v(m)·r(ix(m))[0, w) for m in [lo, hi), in ascending
    * m, four rows per pass.
    */
  def add(v: Array[Double], ix: Array[Int], lo: Int, hi: Int,
          r: Array[Array[Double]], out: Array[Double], w: Int): Unit = {
    var m = lo
    while (m + 4 <= hi) {
      val v0 = v(m); val v1 = v(m + 1); val v2 = v(m + 2); val v3 = v(m + 3)
      val r0 = r(ix(m)); val r1 = r(ix(m + 1)); val r2 = r(ix(m + 2)); val r3 = r(ix(m + 3))
      var j = 0
      while (j < w) {
        out(j) = out(j) + v0 * r0(j) + v1 * r1(j) + v2 * r2(j) + v3 * r3(j)
        j += 1
      }
      m += 4
    }
    while (m < hi) {
      val v0 = v(m)
      val r0 = r(ix(m))
      var j = 0
      while (j < w) { out(j) += v0 * r0(j); j += 1 }
      m += 1
    }
  }
}
