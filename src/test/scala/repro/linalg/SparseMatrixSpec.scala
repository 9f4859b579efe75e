package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.PropSupport
import CooOracle.fromTriples
import repro.Fixtures
import repro.linalg.DenseMatrixOps._
import SparseMatrixSpec._

class SparseMatrixSpec extends AnyFunSuite with PropSupport {

  private def randomCoo(seed: Long): (Int, Int, List[(Int, Int, Double)]) = {
    val r = new Random(seed)
    val rows = r.nextInt(10) + 1
    val cols = r.nextInt(10) + 1
    val n = r.nextInt(31)
    val entries = List.fill(n)((r.nextInt(rows), r.nextInt(cols), r.nextDouble() * 10 - 5))
    (rows, cols, entries)
  }

  test("fromCoo sums duplicate entries") {
    val m = fromTriples(2, 2, Seq((0, 1, 2.0), (0, 1, 3.0), (1, 0, 1.0)))
    assert(m.nnz == 2)
    assert(m.toDense(0, 1) == 5.0)
    assert(m.toDense(1, 0) == 1.0)
  }

  private def message(m: => SparseMatrix): String = intercept[IllegalArgumentException](m).getMessage

  test("fromCoo rejects out-of-range columns") {
    assert(message(fromTriples(2, 2, Seq((0, 5, 1.0)))).contains("entry 0: column 5 out of range [0,2)"))
    assert(message(fromTriples(2, 2, Seq((1, 1, 1.0), (0, -1, 1.0)))).contains("entry 1: column -1 out of range [0,2)"))
  }

  test("fromCoo rejects out-of-range rows") {
    assert(message(fromTriples(2, 2, Seq((5, 0, 1.0)))).contains("entry 0: row 5 out of range [0,2)"))
    assert(message(fromTriples(2, 2, Seq((0, 0, 1.0), (1, 1, 1.0), (-1, 0, 1.0))))
      .contains("entry 2: row -1 out of range [0,2)"))
  }

  test("fromCoo rejects arrays of mismatched lengths") {
    assert(message(SparseMatrix.fromCoo(2, 2, Array(0, 1), Array(0), Array(1.0, 1.0)))
      .contains("COO arrays differ in length: row 2, col 1, value 2"))
    assert(message(SparseMatrix.fromCoo(2, 2, Array(0), Array(0), Array.empty[Double]))
      .contains("COO arrays differ in length: row 1, col 1, value 0"))
  }

  test("fromCoo equals the groupBy builder exactly, with shuffled duplicates and empty rows (property)") {
    forSeeds(60) { seed =>
      val r = new Random(seed)
      val rows = r.nextInt(12) + 1
      val cols = r.nextInt(12) + 1
      // Few distinct cells, each repeated with distinct values, then shuffled:
      // duplicates land in any order and most rows stay empty.
      val cells = List.fill(r.nextInt(8))((r.nextInt(rows), r.nextInt(cols)))
      val entries = r.shuffle(cells.flatMap { case (i, j) =>
        List.fill(r.nextInt(4) + 1)((i, j, r.nextDouble() * 10 - 5))
      })
      val m = fromTriples(rows, cols, entries)
      assert(CooOracle.same(m, CooOracle.groupByBuild(rows, cols, entries)), s"$rows x $cols: $entries")
      for (i <- 0 until rows) {
        val js = m.colIdx.slice(m.rowPtr(i), m.rowPtr(i + 1)).toSeq
        assert(js == js.distinct.sorted, s"row $i: $js")
      }
    }
    for ((rows, cols) <- Seq((0, 0), (0, 3), (3, 0), (4, 5)))
      assert(CooOracle.same(fromTriples(rows, cols, Nil), CooOracle.groupByBuild(rows, cols, Nil)))
  }

  test("toDense round trips through fromCoo (property)") {
    forSeeds(25) { seed =>
      val (r, c, entries) = randomCoo(seed)
      val m = fromTriples(r, c, entries)
      val expected = DenseMatrix.zeros(r, c)
      entries.foreach { case (i, j, v) => expected(i, j) = expected(i, j) + v }
      assert((m.toDense - expected).maxAbs < 1e-12)
    }
  }

  test("sparse * dense matches dense * dense (property)") {
    forSeeds(25) { seed =>
      val (r, c, entries) = randomCoo(seed)
      val m = fromTriples(r, c, entries)
      val x = DenseMatrix.randn(c, 3, 7L)
      assert(((m * x) - (m.toDense * x)).maxAbs == 0.0)
    }
  }

  test("sparse transpose * matches dense transpose multiply (property)") {
    forSeeds(25) { seed =>
      val (r, c, entries) = randomCoo(seed)
      val m = fromTriples(r, c, entries)
      val x = DenseMatrix.randn(r, 3, 8L)
      assert(((m.transpose * x) - (m.toDense.transpose * x)).maxAbs == 0.0)
    }
  }

  test("transpose * equals the scatter loop bit for bit (property)") {
    forSeeds(60) { seed =>
      val r = new Random(seed)
      val m = rawCsr(r.nextInt(9), r.nextInt(9), r)
      val x = new DenseMatrix(m.rows, 3, Array.fill(m.rows * 3)(
        if (r.nextInt(4) == 0) -0.0 else r.nextGaussian()))
      assert(java.util.Arrays.equals((m.transpose * x).data, scatterTMul(m, x).data), s"seed $seed")
      assert(java.util.Arrays.equals(m.applyTransposeTo(x).data, scatterTMul(m, x).data), s"seed $seed")
    }
  }

  test("transpose twice returns the same CSR arrays") {
    // Holds whenever each row lists its columns in ascending order.
    val ms = (0L until 40L).map { s => val r = new Random(s); rawCsr(r.nextInt(9), r.nextInt(9), r) } ++
      Seq(Fixtures.figure1NoAttrs.walkMatrix, Fixtures.mid.walkMatrix, Fixtures.mid.attrColNorm)
    for (m <- ms) {
      val tt = m.transpose.transpose
      assert(tt.rows == m.rows && tt.cols == m.cols)
      assert(java.util.Arrays.equals(tt.rowPtr, m.rowPtr) && java.util.Arrays.equals(tt.colIdx, m.colIdx) &&
        java.util.Arrays.equals(tt.values, m.values), s"${m.rows} x ${m.cols}")
    }
  }

  test("transpose equals the dense transpose, sources ascending") {
    for (gr <- Seq(Fixtures.figure1NoAttrs, Fixtures.mid)) {
      val p = gr.walkMatrix
      val pT = p.transpose
      assert(pT.rows == p.cols && pT.cols == p.rows && pT.nnz == p.nnz)
      assert((pT.toDense - p.toDense.transpose).maxAbs == 0.0, gr.name)
      for (j <- 0 until pT.rows) {
        val srcs = pT.colIdx.slice(pT.rowPtr(j), pT.rowPtr(j + 1)).toSeq
        assert(srcs == srcs.sorted && srcs.distinct == srcs, s"${gr.name} row $j: $srcs")
      }
    }
  }

  test("rowSums and colSums match the dense versions (property)") {
    forSeeds(25) { seed =>
      val (r, c, entries) = randomCoo(seed)
      val m = fromTriples(r, c, entries)
      assert(m.rowSums.zip(m.toDense.rowSums).forall { case (a, b) => math.abs(a - b) < 1e-12 })
      assert(m.colSums.zip(m.toDense.colSums).forall { case (a, b) => math.abs(a - b) < 1e-12 })
    }
  }

  test("rowNormalized rows sum to 1 (or stay zero)") {
    val m = fromTriples(3, 3, Seq((0, 0, 2.0), (0, 1, 2.0), (2, 2, 5.0)))
    val n = m.rowNormalized
    assert(math.abs(n.rowSums(0) - 1.0) < 1e-12)
    assert(n.rowSums(1) == 0.0)
    assert(math.abs(n.rowSums(2) - 1.0) < 1e-12)
  }

  test("colNormalized columns sum to 1 (or stay zero)") {
    val m = fromTriples(3, 3, Seq((0, 0, 2.0), (1, 0, 6.0), (2, 2, 5.0)))
    val n = m.colNormalized
    assert(math.abs(n.colSums(0) - 1.0) < 1e-12)
    assert(n.colSums(1) == 0.0)
    assert(math.abs(n.colSums(2) - 1.0) < 1e-12)
    assert(math.abs(n.toDense(1, 0) - 0.75) < 1e-12)
  }

  test("normalization does not mutate the original") {
    val m = fromTriples(2, 2, Seq((0, 0, 2.0), (0, 1, 2.0)))
    m.rowNormalized
    m.colNormalized
    assert(m.toDense(0, 0) == 2.0)
  }

  test("empty matrix behaves") {
    val m = fromTriples(3, 4, Seq.empty)
    assert(m.nnz == 0)
    assert((m * DenseMatrix.randn(4, 2, 1L)).maxAbs == 0.0)
  }
}

object SparseMatrixSpec {

  /** A CSR matrix built directly, not through `fromCoo`: each row lists
    * its columns in ascending order, some repeated, with stored 0.0 and
    * −0.0 values; about a third of the rows are empty, and so are many
    * columns.
    */
  def rawCsr(rows: Int, cols: Int, r: Random): SparseMatrix = {
    val rowPtr = new Array[Int](rows + 1)
    val entries = (0 until rows).map { i =>
      val k = if (cols == 0 || r.nextInt(3) == 0) 0 else r.nextInt(6) + 1
      val row = List.fill(k)(r.nextInt(cols)).sorted.map { j =>
        (j, r.nextInt(5) match { case 0 => 0.0; case 1 => -0.0; case _ => r.nextGaussian() })
      }
      rowPtr(i + 1) = rowPtr(i) + k
      row
    }.flatten
    new SparseMatrix(rows, cols, rowPtr, entries.map(_._1).toArray, entries.map(_._2).toArray)
  }

  /** The scatter loop of the former `tMul`, C = Mᵀ·B, kept as the oracle of
    * `transpose *`: C[colIdx(p)] += values(p)·B[i] over the rows i and
    * their entries p in order.
    */
  def scatterTMul(m: SparseMatrix, b: DenseMatrix): DenseMatrix = {
    require(m.rows == b.rows, s"dim mismatch: (${m.rows} x ${m.cols})ᵀ * (${b.rows} x ${b.cols})")
    val c = DenseMatrix.zeros(m.cols, b.cols)
    for (i <- 0 until m.rows; p <- m.rowPtr(i) until m.rowPtr(i + 1); j <- 0 until b.cols)
      c.data(m.colIdx(p) * b.cols + j) += m.values(p) * b.data(i * b.cols + j)
    c
  }
}
