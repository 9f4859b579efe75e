package repro.linalg

import repro.graph.AttributedGraph

/** The boxed COO builder that `SparseMatrix.fromCoo` replaced, kept as
  * its oracle, plus the graph operators built through it.
  */
object CooOracle {

  /** COO triples through the array builder. */
  def fromTriples(rows: Int, cols: Int, entries: Seq[(Int, Int, Double)]): SparseMatrix =
    SparseMatrix.fromCoo(rows, cols, entries.map(_._1).toArray, entries.map(_._2).toArray,
      entries.map(_._3).toArray)

  /** Two `groupBy`s: rows, then columns within a row, summed in input order. */
  def groupByBuild(rows: Int, cols: Int, entries: Seq[(Int, Int, Double)]): SparseMatrix = {
    val byRow = entries.groupBy(_._1)
    byRow.keys.foreach(i => require(i >= 0 && i < rows, s"row $i out of range [0,$rows)"))
    val rowPtr = new Array[Int](rows + 1)
    for (i <- 0 until rows)
      rowPtr(i + 1) = rowPtr(i) + byRow.get(i).map(_.map(_._2).distinct.size).getOrElse(0)
    val colIdx = new Array[Int](rowPtr(rows))
    val values = new Array[Double](rowPtr(rows))
    for (i <- 0 until rows; es <- byRow.get(i)) {
      val merged = es.map(x => (x._2, x._3)).groupBy(_._1).map { case (j, vs) => (j, vs.map(_._2).sum) }
        .toArray.sortBy(_._1)
      var p = rowPtr(i)
      merged.foreach { case (j, v) =>
        require(j >= 0 && j < cols, s"column $j out of range [0,$cols)")
        colIdx(p) = j; values(p) = v; p += 1
      }
    }
    new SparseMatrix(rows, cols, rowPtr, colIdx, values)
  }

  /** P = D⁻¹A through the oracle: 1/deg per distinct neighbour, a
    * self-loop for a dangling node.
    */
  def walkMatrix(g: AttributedGraph): SparseMatrix = {
    val a = groupByBuild(g.n, g.n, g.src.indices.map(e => (g.src(e), g.dst(e), 1.0)))
    val entries = (0 until g.n).flatMap { i =>
      val deg = a.rowPtr(i + 1) - a.rowPtr(i)
      if (deg == 0) Seq((i, i, 1.0))
      else (a.rowPtr(i) until a.rowPtr(i + 1)).map(p => (i, a.colIdx(p), 1.0 / deg))
    }
    groupByBuild(g.n, g.n, entries)
  }

  /** R through the oracle. */
  def attrMatrix(g: AttributedGraph): SparseMatrix =
    groupByBuild(g.n, g.d, g.attrNode.indices.map(e => (g.attrNode(e), g.attrId(e), g.attrW(e))))

  /** Whether two CSR matrices have equal shapes, row pointers, column
    * indices and values (`==` on every entry).
    */
  def same(a: SparseMatrix, b: SparseMatrix): Boolean =
    a.rows == b.rows && a.cols == b.cols && java.util.Arrays.equals(a.rowPtr, b.rowPtr) &&
      java.util.Arrays.equals(a.colIdx, b.colIdx) && a.nnz == b.nnz &&
      a.values.indices.forall(p => a.values(p) == b.values(p))
}
