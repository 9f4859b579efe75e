package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.linalg.SparseMatrix

/** An attributed directed graph G = (V, E_V, R, E_R) in compact form.
  *
  * Nodes are 0..n-1, attributes 0..d-1. Edges are stored as parallel
  * src/dst arrays (COO); attribute associations as (node, attr, weight)
  * triples. Multi-labels are per-node label sets (node classification).
  */
final case class AttributedGraph(
    n: Int,
    d: Int,
    src: Array[Int],
    dst: Array[Int],
    attrNode: Array[Int],
    attrId: Array[Int],
    attrW: Array[Double],
    labels: Array[Array[Int]],
    directed: Boolean,
    name: String = "graph",
) {
  require(src.length == dst.length, "src/dst length mismatch")
  require(attrNode.length == attrId.length && attrId.length == attrW.length,
    "attribute triple arrays length mismatch")
  require(n >= 0 && d >= 0, s"negative graph size: n = $n, d = $d")
  checkEntries()

  /** One pass over the edge and attribute arrays: ids in range, weights
    * finite. Explicit checks, not `require`, whose by-name message would
    * allocate a closure per entry.
    */
  private def checkEntries(): Unit = {
    def bad(msg: String): Nothing = throw new IllegalArgumentException(msg)
    var i = 0
    while (i < src.length) {
      val s = src(i)
      val t = dst(i)
      if (s < 0 || s >= n) bad(s"edge $i: src $s out of range [0,$n)")
      if (t < 0 || t >= n) bad(s"edge $i: dst $t out of range [0,$n)")
      i += 1
    }
    i = 0
    while (i < attrNode.length) {
      val v = attrNode(i)
      val r = attrId(i)
      val w = attrW(i)
      if (v < 0 || v >= n) bad(s"attribute entry $i: node $v out of range [0,$n)")
      if (r < 0 || r >= d) bad(s"attribute entry $i: attribute $r out of range [0,$d)")
      if (!java.lang.Double.isFinite(w)) bad(s"attribute entry $i: weight $w is not finite")
      i += 1
    }
  }

  /** Number of directed edges m (an undirected input stores both directions). */
  def m: Int = src.length

  /** Number of node-attribute associations |E_R|. */
  def numAttrEntries: Int = attrNode.length

  /** Number of distinct labels |L|. */
  def numLabels: Int =
    if (labels.isEmpty) 0 else (labels.iterator.flatten ++ Iterator(-1)).max + 1

  /** Adjacency as CSR (unweighted: 1.0 per edge, duplicates merged). */
  lazy val adjacency: SparseMatrix =
    SparseMatrix.fromCoo(n, n, src.indices.map(i => (src(i), dst(i), 1.0)))

  /** Out-degrees (from the merged adjacency, so parallel edges count once). */
  lazy val outDegree: Array[Int] = {
    val deg = new Array[Int](n)
    var i = 0
    while (i < n) { deg(i) = adjacency.rowPtr(i + 1) - adjacency.rowPtr(i); i += 1 }
    deg
  }

  /** Random-walk matrix P = D⁻¹A. Dangling nodes (out-degree 0) get a
    * self-loop so P stays row-stochastic — see DESIGN.md §2.
    */
  lazy val walkMatrix: SparseMatrix = {
    val entries = Seq.newBuilder[(Int, Int, Double)]
    var i = 0
    while (i < n) {
      val deg = outDegree(i)
      if (deg == 0) entries += ((i, i, 1.0))
      else {
        var p = adjacency.rowPtr(i)
        while (p < adjacency.rowPtr(i + 1)) {
          entries += ((i, adjacency.colIdx(p), adjacency.values(p) / deg))
          p += 1
        }
      }
      i += 1
    }
    SparseMatrix.fromCoo(n, n, entries.result())
  }

  /** Attribute matrix R ∈ R^{n×d}. */
  lazy val attrMatrix: SparseMatrix =
    SparseMatrix.fromCoo(n, d, attrNode.indices.map(i => (attrNode(i), attrId(i), attrW(i))))

  /** Row-normalized attribute matrix Rr: node → attribute pick probability
    * (walk semantics of Equation (1); see DESIGN.md on the printed typo).
    */
  lazy val attrRowNorm: SparseMatrix = attrMatrix.rowNormalized

  /** Column-normalized attribute matrix Rc: attribute → node pick probability. */
  lazy val attrColNorm: SparseMatrix = attrMatrix.colNormalized

  /** The same graph with a subset of edges — used by link-prediction splits. */
  def withEdges(newSrc: Array[Int], newDst: Array[Int]): AttributedGraph =
    copy(src = newSrc, dst = newDst)

  /** The same graph with a subset of attribute entries — attribute-inference splits. */
  def withAttrEntries(node: Array[Int], attr: Array[Int], w: Array[Double]): AttributedGraph =
    copy(attrNode = node, attrId = attr, attrW = w)

  /** Edge set as a DataFrame (src, dst) — the Spark-side representation. */
  def edgeDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    src.indices.map(i => (src(i), dst(i))).toDF("src", "dst")
  }

  /** Attribute associations as a DataFrame (node, attr, weight). */
  def attrDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    attrNode.indices.map(i => (attrNode(i), attrId(i), attrW(i))).toDF("node", "attr", "weight")
  }

  /** Existing directed edges as a fast-membership set (negative sampling). */
  lazy val edgeSet: java.util.HashSet[Long] = {
    val s = new java.util.HashSet[Long](m * 2)
    var i = 0
    while (i < m) { s.add(src(i).toLong * n + dst(i)); i += 1 }
    s
  }

  /** Existing node-attribute pairs as a fast-membership set. */
  lazy val attrEntrySet: java.util.HashSet[Long] = {
    val s = new java.util.HashSet[Long](numAttrEntries * 2)
    var i = 0
    while (i < numAttrEntries) { s.add(attrNode(i).toLong * d + attrId(i)); i += 1 }
    s
  }
}
