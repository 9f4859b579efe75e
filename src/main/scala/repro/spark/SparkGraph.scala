package repro.spark

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.graph.AttributedGraph

/** DataFrame-side graph representation and the Table-3 statistics queries.
  *
  * Every aggregation here is query-shaped on purpose so it can be (and is,
  * in tests) cross-checked against DuckDB via [[repro.Oracle]].
  */
object SparkGraph {

  /** One row of the Table 3 statistics. */
  final case class Stats(name: String, n: Long, m: Long, d: Long, er: Long, labels: Long)

  /** Dataset statistics (|V|, |E_V|, |R|, |E_R|, |L|) computed on the
    * DataFrame representation.
    *
    * `n`/`d` are the declared universe sizes (a node may be isolated and an
    * attribute unused — they still count, as in the paper's Table 3).
    */
  def stats(g: AttributedGraph, spark: SparkSession): Stats = {
    val edges = g.edgeDF(spark)
    val attrs = g.attrDF(spark)
    val m = edges.agg(count(lit(1)) as "m").head().getLong(0)
    val er = attrs.agg(count(lit(1)) as "er").head().getLong(0)
    Stats(g.name, g.n.toLong, m, g.d.toLong, er, g.numLabels.toLong)
  }
}
