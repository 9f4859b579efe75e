package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.PropSupport
import CooOracle.fromTriples
import repro.linalg.DenseMatrixOps._

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
      assert(((m * x) - (m.toDense * x)).maxAbs < 1e-10)
    }
  }

  test("sparse tMul matches dense transpose multiply (property)") {
    forSeeds(25) { seed =>
      val (r, c, entries) = randomCoo(seed)
      val m = fromTriples(r, c, entries)
      val x = DenseMatrix.randn(r, 3, 8L)
      assert((m.tMul(x) - (m.toDense.transpose * x)).maxAbs < 1e-10)
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
