package repro.spark

import org.apache.spark.sql.SparkSession
import repro.{Fixtures, SparkSpec}
import repro.core.{Apmi, Pane, PaneConfig, ParallelPane, SvdCcd}
import repro.eval.Tasks
import repro.linalg.DenseMatrix

class SparkPaneSpec extends SparkSpec {

  private implicit lazy val ss: SparkSession = spark
  private lazy val g = Fixtures.mid
  private val alpha = 0.5
  private val t = 5
  private val k = 16

  test("distributed PAPMI equals single-thread APMI (Lemma 4.1 on partitions)") {
    val single = Apmi.run(g, alpha, t)
    val aff = SparkPane.papmi(g, alpha, t, nb = 4, spark)
    val (f, b) = SparkPane.collectAffinity(aff, g.n, g.d)
    assert((f - single.fPrime).maxAbs < 1e-10)
    assert((b - single.bPrime).maxAbs < 1e-10)
  }

  test("distributed PAPMI covers all n nodes including attribute-poor ones") {
    val gd = Fixtures.figure1NoAttrs
    val aff = SparkPane.papmi(gd, 0.15, 10, nb = 2, spark)
    assert(aff.count() == gd.n)
  }

  test("propagateStep (join-aggregate dataflow) equals the local sparse product") {
    import spark.implicits._
    val p = g.walkMatrix
    val x = DenseMatrix.randn(g.n, 4, 3L)
    val xDF = (0 until g.n).map(i => (i, x.row(i))).toDF("id", "vec")
    val walk = SparkGraph.walkEdges(g, spark)
    val result = SparkPane.propagateStep(walk, xDF, spark).collect()
    val expected = p * x
    // Only nodes with at least one out-entry appear; check values.
    result.foreach { r =>
      val id = r.getInt(0)
      val vec = r.getSeq[Double](1)
      for (j <- 0 until 4) assert(math.abs(vec(j) - expected(id, j)) < 1e-9)
    }
    assert(result.length == g.n) // every node has an out-entry (self-loop for dangling)
  }

  test("distributed embed matches the thread-pool ParallelPane closely") {
    val cfg = PaneConfig(k = k, alpha = alpha, eps = 0.015)
    val nb = 4
    val local = ParallelPane.embed(g, cfg, nb)
    val dist = SparkPane.embed(g, cfg, Some(nb))
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val ol = SvdCcd.objective(aff.fPrime, aff.bPrime, local)
    val od = SvdCcd.objective(aff.fPrime, aff.bPrime, dist)
    // Same block structure and seeds; only fp summation order differs in
    // the Y-phase aggregates, so objectives should be nearly identical.
    assert(math.abs(ol - od) / ol < 0.02, s"objectives differ: local $ol vs dist $od")
  }

  test("distributed embed quality: attribute inference on par with single-thread") {
    val cfg = PaneConfig(k = k)
    val (gTrain, pairs) = Tasks.attributeInference(g, seed = 30L)
    val single = Pane.embed(gTrain, cfg)
    val dist = SparkPane.embed(gTrain, cfg, Some(4))
    val (aucS, _) = Tasks.evaluate(pairs, Pane.attrScore(single, _, _))
    val (aucD, _) = Tasks.evaluate(pairs, Pane.attrScore(dist, _, _))
    assert(aucD > aucS - 0.03, s"distributed AUC $aucD vs single $aucS")
  }

  test("distributed embed returns well-shaped finite embeddings") {
    val e = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    assert(e.xf.rows == Fixtures.tiny.n && e.xf.cols == 4)
    assert(e.y.rows == Fixtures.tiny.d && e.y.cols == 4)
    assert(e.xf.data.forall(java.lang.Double.isFinite))
    assert(e.xb.data.forall(java.lang.Double.isFinite))
    assert(e.y.data.forall(java.lang.Double.isFinite))
  }

  test("each stage runs under its job description, cleared when embed returns") {
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new org.apache.spark.scheduler.SparkListener {
      override def onJobStart(e: org.apache.spark.scheduler.SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).foreach(seen.add)
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
      assert(sc.getLocalProperty("spark.job.description") == null)
      // The bus delivers events in order: once the marker job is seen, so is every earlier job.
      sc.setJobDescription("marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30e9.toLong
      while (!seen.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
    } finally sc.removeSparkListener(listener)
    val descs = seen.toArray.toSeq.map(_.toString).distinct.filter(_ != "marker")
    val sweeps = (0 until PaneConfig(k = 8).refineIters).map(i => s"ccd sweep $i")
    assert(descs == Seq("papmi", "sm-greedy-init") ++ sweeps, descs)
  }

  test("distributed embed is deterministic for fixed nb") {
    val a = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    val b = SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
    assert((a.y - b.y).maxAbs < 1e-12)
    assert((a.xf - b.xf).maxAbs < 1e-12)
  }
}
