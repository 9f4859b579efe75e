package repro.spark

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.graph.Datasets

class SparkGraphSpec extends SparkSpec {

  private lazy val g = Fixtures.tiny

  test("stats match the local graph cardinalities") {
    val s = SparkGraph.stats(g, spark)
    assert(s.n == g.n && s.m == g.m && s.d == g.d)
    assert(s.er == g.numAttrEntries && s.labels == g.numLabels)
  }

  test("edge count aggregation matches DuckDB oracle") {
    val edges = g.edgeDF(spark)
    val counted = edges.agg(count(lit(1)) as "m")
    Oracle.assertEquivalent(counted, "SELECT count(*) AS m FROM edges", "edges" -> edges)
  }

  test("per-node out-degree matches DuckDB oracle") {
    val edges = g.edgeDF(spark)
    val deg = edges.groupBy("src").agg(count(lit(1)) as "outdeg")
    Oracle.assertEquivalent(deg,
      "SELECT src, count(*) AS outdeg FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("attribute-entry count and distinct attributes match DuckDB oracle") {
    val attrs = g.attrDF(spark)
    val agg = attrs.agg(count(lit(1)) as "er", countDistinct(col("attr")) as "used")
    Oracle.assertEquivalent(agg,
      "SELECT count(*) AS er, count(DISTINCT attr) AS used FROM attrs",
      "attrs" -> attrs)
  }

  test("oracle catches wrong results (self-test)") {
    val edges = g.edgeDF(spark)
    val wrong = edges.agg((count(lit(1)) + 1) as "m") // off by one
    val msg = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS m FROM edges", "edges" -> edges)
    }.getMessage
    assert(msg.contains("result mismatch"), msg)
  }

  test("oracle catches column-name mismatches (self-test)") {
    val edges = g.edgeDF(spark)
    val q = edges.agg(count(lit(1)) as "wrong_name")
    val msg = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(q, "SELECT count(*) AS m FROM edges", "edges" -> edges)
    }.getMessage
    assert(msg.contains("column mismatch"), msg)
  }

  test("Table 3 stats run for a catalog dataset") {
    val s = SparkGraph.stats(Datasets.load(Datasets.cora), spark)
    assert(s.name == "cora-lite" && s.n == 2708 && s.d == 400 && s.labels == 7)
    assert(s.m > 2708)
  }
}
