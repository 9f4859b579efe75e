package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pane, PaneConfig, ParallelPane}
import repro.eval.{MetricsOracle, TableRunner, Tasks}
import repro.graph.Datasets

/** Wall time of scoring one test-pair set: `Tasks.evaluate` (the scores
  * ordered once, on primitive arrays, for both AUC and AP) against
  * `MetricsOracle.evaluate` (boxed (score, label) tuples, sorted once per
  * metric). The pairs are mag-lite's link-prediction pairs and pubmed-lite's
  * attribute-inference pairs, scored as `TableRunner` scores them with PANE
  * embeddings from `ParallelPane.embed` at nb = 4 and the tables' k.
  * Both sides call the same scorer, so they differ only in the metrics; the
  * scorer alone over all pairs is timed too.
  * Asserts that both sides give the same (AUC, AP) bits, then prints the
  * median of 5 calls after 2 warm-up calls per side, the sides alternating.
  */
class ScoreBench extends AnyFunSuite {

  private val warmups = 2
  private val runs = 5

  private def seconds(body: => Any): Double = {
    val start = System.nanoTime()
    body
    (System.nanoTime() - start) / 1e9
  }

  /** Per side, the median of `runs` calls after `warmups` calls, the sides
    * taking turns within each round.
    */
  private def medians(sides: Seq[() => Any]): Seq[Double] = {
    val ts = Array.fill(warmups + runs)(sides.map(side => seconds(side())))
    sides.indices.map(s => ts.drop(warmups).map(_(s)).sorted.apply(runs / 2))
  }

  private def bits(x: (Double, Double)) =
    (java.lang.Double.doubleToRawLongBits(x._1), java.lang.Double.doubleToRawLongBits(x._2))

  for ((ds, link) <- Seq((Datasets.mag, true), (Datasets.pubmed, false))) {
    val task = if (link) "link" else "attribute"
    test(s"scoring ${ds.name}'s $task pairs: Tasks.evaluate against the boxed oracle") {
      val g = Datasets.load(ds)
      val cfg = PaneConfig(k = TableRunner.budget(ds))
      val (gTrain, pairs) =
        if (link) Tasks.linkPrediction(g, removeRatio = 0.3) else Tasks.attributeInference(g, trainRatio = 0.8)
      val e = ParallelPane.embed(gTrain, cfg, nb = 4)
      val scorer: (Int, Int) => Double =
        if (!link) Pane.attrScore(e, _, _)
        else {
          val sc = new Pane.LinkScorer(e)
          if (g.directed) sc.directed else sc.undirected
        }
      def scoresOnly(): Array[Double] = {
        val scores = new Array[Double](pairs.length)
        for (r <- pairs.indices) scores(r) = scorer(pairs(r).i, pairs(r).j)
        scores
      }
      val now = Tasks.evaluate(pairs, scorer)
      val oracle = MetricsOracle.evaluate(pairs, scorer)
      assert(bits(now) == bits(oracle), s"(AUC, AP) $now vs the oracle's $oracle")
      val Seq(tScores, tNow, tOracle) = medians(Seq(
        () => scoresOnly(),
        () => Tasks.evaluate(pairs, scorer),
        () => MetricsOracle.evaluate(pairs, scorer)))
      println(f"=== scoring ${ds.name} $task pairs (${pairs.length} pairs, k ${cfg.k}; median of $runs after $warmups warm-up calls) ===")
      println(f"AUC ${now._1}%.6f, AP ${now._2}%.6f (same bits on both sides)")
      println(f"scores only         $tScores%8.4f s")
      println(f"Tasks.evaluate      $tNow%8.4f s")
      println(f"oracle (boxed)      $tOracle%8.4f s")
    }
  }
}
