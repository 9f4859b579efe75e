package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import repro.{Fixtures, SparkSpec}
import repro.core.{Apmi, Pane, PaneConfig, ParallelPane}
import repro.eval.Tasks

class SparkPaneSpec extends SparkSpec {

  private implicit lazy val ss: SparkSession = spark
  private lazy val g = Fixtures.mid
  private val alpha = 0.5
  private val t = 5
  private val k = 16

  /** Descriptions of the jobs `body` starts ("" for a job without one). */
  private def jobDescriptions(body: => Unit): Seq[String] = {
    val seen = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        seen.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      body
      // The bus delivers events in order: once the marker job is seen, so is every earlier job.
      sc.setJobDescription("marker")
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30e9.toLong
      while (!seen.contains("marker") && System.nanoTime() < deadline) Thread.sleep(10)
    } finally sc.removeSparkListener(listener)
    seen.toArray.toSeq.map(_.toString).filter(_ != "marker")
  }

  /** (partition index, block ids it holds), in partition order. */
  private def placement[A](rdd: RDD[(Int, A)]): Seq[(Int, List[Int])] =
    rdd.mapPartitionsWithIndex((p, it) => Iterator((p, it.map(_._1).toList))).collect().toSeq.sortBy(_._1)

  test("distributed PAPMI equals single-thread APMI (Lemma 4.1 on partitions)") {
    val single = Apmi.run(g, alpha, t)
    val aff = SparkPane.papmi(g, alpha, t, nb = 4, spark)
    val (f, b) = SparkPane.collectAffinity(aff, g.n, g.d)
    // Same propagate and SPMI kernels on the same column ranges: bit-equal.
    assert((f - single.fPrime).maxAbs == 0.0)
    assert((b - single.bPrime).maxAbs == 0.0)
  }

  test("distributed PAPMI covers all n nodes including attribute-poor ones") {
    val gd = Fixtures.figure1NoAttrs
    val aff = SparkPane.papmi(gd, 0.15, 10, nb = 2, spark)
    val tiles = aff.values.map(a => (a.from, a.from + a.f.rows, a.b.rows)).collect().toSeq.sortBy(_._1)
    assert(tiles == ParallelPane.ranges(gd.n, 2).map { case (from, until) => (from, until, until - from) })
  }

  test("partition i holds exactly node block i after PAPMI and after a sweep") {
    for (nb <- Seq(2, 3, 4, 8)) {
      val expected = (0 until nb).map(i => (i, List(i)))
      val aff = SparkPane.papmi(g, alpha, t, nb, spark).cache()
      assert(placement(aff) == expected, s"PAPMI blocks at nb=$nb")
      val rows = aff.mapValues(a => (a.from, a.from + a.f.rows)).collect().toSeq.sortBy(_._1).map(_._2)
      assert(rows == ParallelPane.ranges(g.n, nb), s"block rows at nb=$nb")
      val (state, y) = SparkPane.smGreedyInit(aff, k, 2, 42L)
      aff.unpersist()
      assert(placement(state) == expected, s"SMGreedyInit blocks at nb=$nb")
      val (next, _, _) = SparkPane.sweep(state, y, Array.emptyDoubleArray)
      assert(placement(next) == expected, s"sweep blocks at nb=$nb")
      next.unpersist()
    }
  }

  /** The messages of `body`'s failure and of its causes, joined. */
  private def failureMessages(body: => Any): String = {
    val e = intercept[Exception](body)
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" | ")
  }

  /** Xf of every block, by block id. */
  private def xfBlocks(state: RDD[(Int, SparkPane.CcdBlock)]): Map[Int, Seq[Double]] =
    state.mapValues(_.xf.data.toSeq).collect().toMap

  test("a second sweep on the same cached blocks fails naming the block and the sweep, and changes nothing") {
    val nb = 2
    val aff = SparkPane.papmi(g, alpha, t, nb, spark)
    val (state, y) = SparkPane.smGreedyInit(aff, k, 2, 42L)
    val (next, y1, d1) = SparkPane.sweep(state, y, Array.emptyDoubleArray)
    val msg = failureMessages(SparkPane.sweep(state, y, Array.emptyDoubleArray))
    assert("CCD block [01]: sweep 0 found the block after 1 sweeps".r.findFirstIn(msg).nonEmpty, msg)
    val (after, _, _) = SparkPane.sweep(next, y1, d1)
    val msg2 = failureMessages(SparkPane.sweep(next, y1, d1))
    assert("CCD block [01]: sweep 1 found the block after 2 sweeps".r.findFirstIn(msg2).nonEmpty, msg2)
    val guarded = xfBlocks(after)
    after.unpersist()

    // The same two sweeps without the refused ones: the failures touched nothing.
    val (clean0, cy) = SparkPane.smGreedyInit(SparkPane.papmi(g, alpha, t, nb, spark), k, 2, 42L)
    val (clean1, cy1, cd1) = SparkPane.sweep(clean0, cy, Array.emptyDoubleArray)
    val (clean2, _, _) = SparkPane.sweep(clean1, cy1, cd1)
    assert(xfBlocks(clean2) == guarded)
    clean2.unpersist()
  }

  test("a second smGreedyInit on the same PAPMI blocks fails naming the block") {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val aff = SparkPane.papmi(g, alpha, t, 2, spark).cache()
    val (state, _) = SparkPane.smGreedyInit(aff, k, 2, 42L)
    val msg = failureMessages(SparkPane.smGreedyInit(aff, k, 2, 42L))
    assert("PAPMI block [01] was consumed by an earlier SMGreedyInit".r.findFirstIn(msg).nonEmpty, msg)
    val msg2 = failureMessages(SparkPane.collectAffinity(aff, g.n, g.d))
    assert("PAPMI block [01] was consumed".r.findFirstIn(msg2).nonEmpty, msg2)
    state.unpersist()
    aff.unpersist()
    // The refused init left nothing persisted behind.
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
  }

  test("embed leaves the persistent RDDs exactly as it found them") {
    val sc = spark.sparkContext
    val kept = sc.parallelize(1 to 10, 2).cache()
    kept.count()
    val before = sc.getPersistentRDDs.toMap
    SparkPane.embed(g, PaneConfig(k = k), Some(3))
    val after = sc.getPersistentRDDs.toMap
    assert(after.keySet == before.keySet && after.forall { case (id, r) => before(id) eq r })
    assert(kept.getStorageLevel.useMemory)
    kept.unpersist()
  }

  /** Same blocks, seeds and kernels; only the summation order of the
    * Y-phase accumulators differs (per block on Spark, per attribute block
    * in the pool).
    */
  private def assertMatchesPool(cfg: PaneConfig): Unit = {
    val nb = 4
    val local = ParallelPane.embed(g, cfg, nb)
    val dist = SparkPane.embed(g, cfg, Some(nb))
    for ((name, l, d) <- Seq(("Xf", local.xf, dist.xf), ("Xb", local.xb, dist.xb), ("Y", local.y, dist.y))) {
      val diff = (l - d).maxAbs
      assert(diff <= 1e-12 * l.maxAbs, s"$name differs by $diff (max-abs ${l.maxAbs})")
    }
  }

  test("distributed embed matches the thread-pool ParallelPane closely") {
    assertMatchesPool(PaneConfig(k = k, alpha = alpha, eps = 0.015))
  }

  test("with fewer sweeps than t, the pool and Spark still seed RandSVD with t iterations") {
    assertMatchesPool(PaneConfig(k = k, alpha = alpha, eps = 0.015, ccdIters = Some(2)))
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
    val descs = jobDescriptions {
      SparkPane.embed(Fixtures.tiny, PaneConfig(k = 8), Some(2))
      assert(spark.sparkContext.getLocalProperty("spark.job.description") == null)
    }.distinct
    val sweeps = (0 until PaneConfig(k = 8).refineIters).map(i => s"ccd sweep $i")
    assert(descs == Seq("papmi", "sm-greedy-init") ++ sweeps, descs)
  }

  test("distributed embed is deterministic for fixed nb") {
    val cfg = PaneConfig(k = k)
    val a = SparkPane.embed(g, cfg, Some(4))
    val b = SparkPane.embed(g, cfg, Some(4))
    assert((a.xf - b.xf).maxAbs == 0.0)
    assert((a.xb - b.xb).maxAbs == 0.0)
    assert((a.y - b.y).maxAbs == 0.0)
  }

  test("embed rejects a bad k before any Spark job starts") {
    val tiny = Fixtures.tiny // n = 120, d = 24
    for ((kBad, nb) <- Seq((7, 2), (0, 2), (50, 2), (8, 40), (8, 0), (8, -3))) {
      var msg = ""
      val descs = jobDescriptions {
        msg = intercept[IllegalArgumentException](SparkPane.embed(tiny, PaneConfig(k = kBad), Some(nb))).getMessage
      }
      assert(descs.isEmpty, s"k = $kBad, nb = $nb started jobs $descs")
      for (part <- Seq(s"k = $kBad", "n = 120", "d = 24", s"nb = $nb")) assert(msg.contains(part), msg)
    }
  }
}
