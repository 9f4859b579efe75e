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
    * finite and non-negative (Equation 1 reads them as pick probabilities).
    * Explicit checks, not `require`, whose by-name message would allocate
    * a closure per entry.
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
      if (w < 0) bad(s"attribute entry $i: weight $w is negative")
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

  /** Adjacency A as CSR, 0/1: parallel edges count once. */
  lazy val adjacency: SparseMatrix = {
    val merged = SparseMatrix.fromCoo(n, n, src, dst, new Array[Double](m))
    new SparseMatrix(n, n, merged.rowPtr, merged.colIdx, Array.fill(merged.nnz)(1.0))
  }

  /** Out-degrees (from the merged adjacency, so parallel edges count once). */
  lazy val outDegree: Array[Int] = {
    val deg = new Array[Int](n)
    var i = 0
    while (i < n) { deg(i) = adjacency.rowPtr(i + 1) - adjacency.rowPtr(i); i += 1 }
    deg
  }

  /** Random-walk matrix P = D⁻¹A, read off `adjacency`'s rows: 1/deg for
    * each distinct neighbour. Dangling nodes (out-degree 0) get a
    * self-loop so P stays row-stochastic — see DESIGN.md §2.
    */
  lazy val walkMatrix: SparseMatrix = {
    val rowPtr = new Array[Int](n + 1)
    var i = 0
    while (i < n) { rowPtr(i + 1) = rowPtr(i) + math.max(outDegree(i), 1); i += 1 }
    val colIdx = new Array[Int](rowPtr(n))
    val values = new Array[Double](rowPtr(n))
    i = 0
    while (i < n) {
      val deg = outDegree(i)
      if (deg == 0) { colIdx(rowPtr(i)) = i; values(rowPtr(i)) = 1.0 }
      else {
        System.arraycopy(adjacency.colIdx, adjacency.rowPtr(i), colIdx, rowPtr(i), deg)
        java.util.Arrays.fill(values, rowPtr(i), rowPtr(i + 1), 1.0 / deg)
      }
      i += 1
    }
    new SparseMatrix(n, n, rowPtr, colIdx, values)
  }

  /** Attribute matrix R ∈ R^{n×d}. */
  lazy val attrMatrix: SparseMatrix = SparseMatrix.fromCoo(n, d, attrNode, attrId, attrW)

  /** Row-normalized attribute matrix Rr: node → attribute pick probability
    * (walk semantics of Equation (1); see DESIGN.md on the printed typo).
    */
  lazy val attrRowNorm: SparseMatrix = attrMatrix.rowNormalized

  /** Column-normalized attribute matrix Rc: attribute → node pick probability. */
  lazy val attrColNorm: SparseMatrix = attrMatrix.colNormalized

  /** The same graph with a subset of edges — used by link-prediction splits. */
  def withEdges(newSrc: Array[Int], newDst: Array[Int]): AttributedGraph =
    copy(src = newSrc, dst = newDst)

  /** The undirected graph: every edge in both directions. */
  def symmetrized: AttributedGraph = withEdges(src ++ dst, dst ++ src)

  /** The same graph with a self-loop added at every node. */
  def withSelfLoops: AttributedGraph = withEdges(src ++ Array.range(0, n), dst ++ Array.range(0, n))

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

  /** Existing directed edges, keyed src·n + dst (negative sampling). */
  lazy val edgeSet: SortedKeys = {
    val keys = new Array[Long](m)
    var i = 0
    while (i < m) { keys(i) = src(i).toLong * n + dst(i); i += 1 }
    SortedKeys(keys)
  }

  /** Existing node-attribute pairs, keyed node·d + attr. */
  lazy val attrEntrySet: SortedKeys = {
    val keys = new Array[Long](numAttrEntries)
    var i = 0
    while (i < numAttrEntries) { keys(i) = attrNode(i).toLong * d + attrId(i); i += 1 }
    SortedKeys(keys)
  }
}

/** A membership set of Long keys: the keys sorted (repeats allowed), looked
  * up by binary search, so neither building nor probing boxes a key.
  * `distinct` is the number of different keys.
  */
final class SortedKeys private (keys: Array[Long], val distinct: Int) extends Serializable {
  def contains(key: Long): Boolean = java.util.Arrays.binarySearch(keys, key) >= 0
}

object SortedKeys {
  /** Sorts `keys` in place and takes them over. */
  def apply(keys: Array[Long]): SortedKeys = {
    java.util.Arrays.sort(keys)
    var distinct = 0
    var i = 0
    while (i < keys.length) {
      if (i == 0 || keys(i) != keys(i - 1)) distinct += 1
      i += 1
    }
    new SortedKeys(keys, distinct)
  }
}
