package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.{Fixtures, PropSupport}
import repro.core.{Pane, PaneConfig}

class MetricsSpec extends AnyFunSuite with PropSupport {

  private def auc(scores: Array[Double], positive: Array[Boolean]): Double = Metrics.aucAp(scores, positive)._1
  private def ap(scores: Array[Double], positive: Array[Boolean]): Double = Metrics.aucAp(scores, positive)._2
  private def bothClasses(positive: Array[Boolean]): Boolean = positive.contains(true) && positive.contains(false)

  test("perfect ranking gives AUC = 1 and AP = 1") {
    val scores = Array(0.9, 0.8, 0.2, 0.1)
    val positive = Array(true, true, false, false)
    assert(Metrics.aucAp(scores, positive) == ((1.0, 1.0)))
  }

  test("inverted ranking gives AUC = 0") {
    assert(auc(Array(0.9, 0.8, 0.2, 0.1), Array(false, false, true, true)) == 0.0)
  }

  test("hand-computed AUC with one misranked pair") {
    // pos scores {3, 1}, neg scores {2, 0}: pairs won = (3>2),(3>0),(1>0) = 3/4
    assert(math.abs(auc(Array(3.0, 1.0, 2.0, 0.0), Array(true, true, false, false)) - 0.75) < 1e-12)
  }

  test("all-tied scores give AUC = 0.5") {
    assert(math.abs(auc(Array(1.0, 1.0, 1.0, 1.0), Array(true, false, true, false)) - 0.5) < 1e-12)
  }

  test("hand-computed AP") {
    // Ranking: pos, neg, pos → precisions at positives: 1/1, 2/3 → AP = 5/6
    assert(math.abs(ap(Array(3.0, 2.0, 1.0), Array(true, false, true)) - (1.0 + 2.0 / 3) / 2) < 1e-12)
  }

  test("AUC is invariant to strictly monotone score transforms (property)") {
    forSeeds(20) { seed =>
      val rnd = new Random(seed)
      val scores = Array.fill(50)(rnd.nextDouble())
      val positive = Array.fill(50)(rnd.nextBoolean())
      if (bothClasses(positive)) {
        val a = auc(scores, positive)
        val b = auc(scores.map(s => math.exp(3 * s) + 1), positive)
        assert(math.abs(a - b) < 1e-12)
      }
    }
  }

  test("AUC of random scores concentrates around 0.5") {
    val rnd = new Random(1)
    val scores = Array.fill(4000)(rnd.nextDouble())
    val positive = Array.fill(4000)(rnd.nextBoolean())
    assert(math.abs(auc(scores, positive) - 0.5) < 0.05)
  }

  test("AUC equals the probability a random positive outranks a random negative (property)") {
    forSeeds(10) { seed =>
      val rnd = new Random(seed)
      val scores = Array.fill(30)(rnd.nextInt(10).toDouble)
      val positive = Array.fill(30)(rnd.nextBoolean())
      val pos = scores.indices.filter(positive(_)).map(scores(_))
      val neg = scores.indices.filterNot(positive(_)).map(scores(_))
      if (pos.nonEmpty && neg.nonEmpty) {
        var wins = 0.0
        for (p <- pos; n <- neg) {
          if (p > n) wins += 1.0
          else if (p == n) wins += 0.5
        }
        assert(math.abs(auc(scores, positive) - wins / (pos.size * neg.size)) < 1e-12)
      }
    }
  }

  test("AP is within (0, 1] and >= precision-at-n lower bound (property)") {
    forSeeds(15) { seed =>
      val rnd = new Random(seed)
      val scores = Array.fill(40)(rnd.nextDouble())
      val positive = Array.fill(40)(rnd.nextInt(4) == 0)
      if (bothClasses(positive)) {
        val a = ap(scores, positive)
        assert(a > 0.0 && a <= 1.0)
      }
    }
  }

  test("metrics reject degenerate inputs") {
    assertThrows[IllegalArgumentException](Metrics.aucAp(Array(1.0), Array(true)))
    assertThrows[IllegalArgumentException](Metrics.aucAp(Array(1.0), Array(false)))
  }

  // ---- aucAp against the boxed oracle it replaced, compared with == ----

  private def assertOracle(scores: Array[Double], positive: Array[Boolean], where: String): Unit = {
    val scored = scores.toSeq.zip(positive)
    val (a, p) = Metrics.aucAp(scores, positive)
    assert(a == MetricsOracle.auc(scored), s"AUC, $where")
    assert(p == MetricsOracle.averagePrecision(scored), s"AP, $where")
  }

  /** n labels with about `share` positives and at least one of each class,
    * so share 0 gives a single positive and share 1 a single negative.
    */
  private def labels(rnd: Random, n: Int, share: Double): Array[Boolean] = {
    val l = Array.fill(n)(rnd.nextDouble() < share)
    l(0) = true
    l(1) = false
    rnd.shuffle(l.toSeq).toArray
  }

  private val sizes = Seq(2, 3, 7, 64, 500, 10000)
  private val shares = Seq(0.0, 0.1, 0.5, 1.0)

  /** Every size and label share, with scores drawn by `draw`. */
  private def sweep(draw: (Random, Int) => Double): Unit =
    forSeeds(3) { seed =>
      val rnd = new Random(seed)
      for (n <- sizes; share <- shares) {
        val scores = Array.fill(n)(draw(rnd, n))
        assertOracle(scores, labels(rnd, n, share), s"n = $n, share = $share")
      }
    }

  test("aucAp equals the boxed oracle on distinct scores, 2 to 10⁴ pairs (property)") {
    sweep((rnd, _) => rnd.nextGaussian())
  }

  test("aucAp equals the boxed oracle under heavy ties (property)") {
    sweep((rnd, _) => rnd.nextInt(3).toDouble)
    sweep((rnd, n) => rnd.nextInt(1 + n / 50).toDouble)
    sweep((_, _) => 0.25)
  }

  test("aucAp equals the boxed oracle with −0.0 mixed with 0.0 and ±Infinity (property)") {
    val zeros = Array(-0.0, 0.0, -0.0, 0.0, Double.MinPositiveValue, -Double.MinPositiveValue, 1.0)
    sweep((rnd, _) => zeros(rnd.nextInt(zeros.length)))
    sweep((rnd, _) => if (rnd.nextBoolean()) -0.0 else 0.0)
    val extremes = Array(Double.PositiveInfinity, Double.NegativeInfinity, -0.0, 0.0, Double.MaxValue, -Double.MaxValue)
    sweep((rnd, _) => if (rnd.nextInt(3) == 0) rnd.nextGaussian() else extremes(rnd.nextInt(extremes.length)))
  }

  test("Tasks.evaluate equals the boxed oracle on PANE's attribute and link scores") {
    val g = Fixtures.mid
    val cfg = PaneConfig(k = 16)
    val (gTrain, attrPairs) = Tasks.attributeInference(g, seed = 1L)
    val e = Pane.embed(gTrain, cfg)
    val attr: (Int, Int) => Double = Pane.attrScore(e, _, _)
    assert(Tasks.evaluate(attrPairs, attr) == MetricsOracle.evaluate(attrPairs, attr))
    val (gRes, linkPairs) = Tasks.linkPrediction(g, seed = 2L)
    val sc = new Pane.LinkScorer(Pane.embed(gRes, cfg))
    for ((name, scorer) <- Seq[(String, (Int, Int) => Double)](("directed", sc.directed), ("undirected", sc.undirected)))
      assert(Tasks.evaluate(linkPairs, scorer) == MetricsOracle.evaluate(linkPairs, scorer), name)
  }

  test("a NaN score fails loudly, naming the NaN count") {
    val nan = Double.NaN
    val msg = intercept[IllegalArgumentException](
      Metrics.aucAp(Array(0.3, nan, 0.1, nan, 0.7), Array(true, false, true, true, false))).getMessage
    assert(msg.contains("2 of 5 scores are NaN"), msg)
    val one = intercept[IllegalArgumentException](Metrics.aucAp(Array(nan, 0.5), Array(true, false))).getMessage
    assert(one.contains("1 of 2 scores are NaN"), one)
  }

  test("empty input, no positive, no negative and mismatched lengths fail") {
    for ((scores, positive) <- Seq(
        (Array.empty[Double], Array.empty[Boolean]),
        (Array(0.2, 0.9), Array(false, false)),
        (Array(0.2, 0.9), Array(true, true)),
        (Array(0.2, 0.9), Array(true, false, false))))
      assertThrows[IllegalArgumentException](Metrics.aucAp(scores, positive))
  }
}
