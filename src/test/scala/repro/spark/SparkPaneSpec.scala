package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.serializer.JavaSerializer
import org.apache.spark.sql.SparkSession
import repro.{Fixtures, SparkSpec}
import repro.core.{Apmi, Pane, PaneConfig, ParallelPane}
import repro.eval.Tasks
import repro.linalg.DenseMatrix
import repro.linalg.DenseMatrixOps._

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

  /** The distributed affinity blocks as dense F' and B', for comparison
    * with the single-thread APMI.
    */
  private def collectAffinity(aff: RDD[(Int, SparkPane.AffBlock)], n: Int, d: Int): (DenseMatrix, DenseMatrix) = {
    val f = DenseMatrix.zeros(n, d)
    val b = DenseMatrix.zeros(n, d)
    val nodeBlocks = ParallelPane.ranges(n, aff.getNumPartitions)
    aff.collect().foreach { case (bi, a) =>
      System.arraycopy(a.f.data, 0, f.data, nodeBlocks(bi)._1 * d, a.f.data.length)
      System.arraycopy(a.b.data, 0, b.data, nodeBlocks(bi)._1 * d, a.b.data.length)
    }
    (f, b)
  }

  /** (block id, rows of F', rows of B') of every block, by block id. */
  private def blockRows(aff: RDD[(Int, SparkPane.AffBlock)]): Seq[(Int, Int, Int)] =
    aff.map { case (bi, a) => (bi, a.f.rows, a.b.rows) }.collect().toSeq.sortBy(_._1)

  /** (partition index, block ids it holds), in partition order. */
  private def placement[A](rdd: RDD[(Int, A)]): Seq[(Int, List[Int])] =
    rdd.mapPartitionsWithIndex((p, it) => Iterator((p, it.map(_._1).toList))).collect().toSeq.sortBy(_._1)

  test("distributed PAPMI equals single-thread APMI (Lemma 4.1 on partitions)") {
    val single = Apmi.run(g, alpha, t)
    val aff = SparkPane.papmi(g, alpha, t, nb = 4, spark)
    val (f, b) = collectAffinity(aff, g.n, g.d)
    // Same propagate and SPMI kernels on the same column ranges: bit-equal.
    assert((f - single.fPrime).maxAbs == 0.0)
    assert((b - single.bPrime).maxAbs == 0.0)
  }

  test("a RowBlock shuffle record carries exactly its rows, serialized or not") {
    val m = DenseMatrix.randn(7, 3, 11L)
    val java = new JavaSerializer(spark.sparkContext.getConf).newInstance()
    for ((from, until) <- Seq((0, 7), (2, 5), (4, 4))) {
      val block = new SparkPane.RowBlock(m, from, until)
      // Unserialized, as a serializer that skips writeObject delivers it: the whole block and the range.
      for ((how, rows) <- Seq("java" -> java.deserialize[SparkPane.RowBlock](java.serialize(block)).rows,
                              "as built" -> block.rows)) {
        assert(rows.rows == until - from && rows.cols == 3, s"$how [$from, $until)")
        assert(rows.data.sameElements(m.rowSlice(from, until).data), s"$how [$from, $until)")
      }
    }
    assertThrows[IllegalArgumentException](new SparkPane.RowBlock(m, 5, 8))
  }

  test("distributed PAPMI covers all n nodes including attribute-poor ones") {
    val gd = Fixtures.figure1NoAttrs
    val aff = SparkPane.papmi(gd, 0.15, 10, nb = 2, spark)
    val rows = ParallelPane.ranges(gd.n, 2).map { case (from, until) => until - from }
    assert(blockRows(aff) == rows.zipWithIndex.map { case (r, bi) => (bi, r, r) })
  }

  test("partition i holds exactly node block i after PAPMI and after a sweep") {
    for (nb <- Seq(2, 3, 4, 8)) {
      val expected = (0 until nb).map(i => (i, List(i)))
      val aff = SparkPane.papmi(g, alpha, t, nb, spark).cache()
      assert(placement(aff) == expected, s"PAPMI blocks at nb=$nb")
      val rows = ParallelPane.ranges(g.n, nb).map { case (from, until) => until - from }
      assert(blockRows(aff) == rows.zipWithIndex.map { case (r, bi) => (bi, r, r) }, s"block rows at nb=$nb")
      val (blocks, y) = SparkPane.smGreedyInit(aff, k, 2, 42L)
      aff.unpersist()
      assert(placement(blocks) == expected, s"SMGreedyInit blocks at nb=$nb")
      SparkPane.sweep(blocks, 0, y)
      assert(placement(blocks) == expected, s"sweep blocks at nb=$nb")
      blocks.unpersist()
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
    val (blocks, y) = SparkPane.smGreedyInit(aff, k, 2, 42L)
    val y1 = SparkPane.sweep(blocks, 0, y)
    val msg = failureMessages(SparkPane.sweep(blocks, 0, y))
    assert("CCD block [01]: sweep 0 found the block after 1 sweeps".r.findFirstIn(msg).nonEmpty, msg)
    SparkPane.sweep(blocks, 1, y1)
    val msg2 = failureMessages(SparkPane.sweep(blocks, 1, y1))
    assert("CCD block [01]: sweep 1 found the block after 2 sweeps".r.findFirstIn(msg2).nonEmpty, msg2)
    val guarded = xfBlocks(blocks)
    blocks.unpersist()

    // The same two sweeps without the refused ones: the failures touched nothing.
    val (clean, cy) = SparkPane.smGreedyInit(SparkPane.papmi(g, alpha, t, nb, spark), k, 2, 42L)
    SparkPane.sweep(clean, 1, SparkPane.sweep(clean, 0, cy))
    assert(xfBlocks(clean) == guarded)
    clean.unpersist()
  }

  test("SMGreedyInit and a sweep leave the PAPMI blocks' F' and B' as they were") {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val aff = SparkPane.papmi(g, alpha, t, 2, spark).cache()
    val (f0, b0) = collectAffinity(aff, g.n, g.d)
    val (blocks, y) = SparkPane.smGreedyInit(aff, k, 2, 42L)
    SparkPane.sweep(blocks, 0, y)
    val (f1, b1) = collectAffinity(aff, g.n, g.d)
    assert(java.util.Arrays.equals(f0.data, f1.data) && java.util.Arrays.equals(b0.data, b1.data))
    // A second init on the same blocks reads the same F' and B'.
    val (again, y2) = SparkPane.smGreedyInit(aff, k, 2, 42L)
    assert(java.util.Arrays.equals(y.data, y2.data))
    val (fresh, _) = SparkPane.smGreedyInit(SparkPane.papmi(g, alpha, t, 2, spark), k, 2, 42L)
    assert(xfBlocks(again) == xfBlocks(fresh))
    for (r <- Seq(blocks, again, fresh)) r.unpersist()
    aff.unpersist()
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
