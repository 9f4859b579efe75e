package repro.eval

/** The boxed AUC and AP that `Metrics.aucAp` replaced, kept as its oracle:
  * each sorts (score, isPositive) tuples on its own (by score for AUC, by
  * the negated score for AP) and scans the tie groups of that order.
  */
object MetricsOracle {

  /** AUC from (score, isPositive) pairs via the Mann–Whitney statistic
    * with midranks for ties.
    */
  def auc(scored: Seq[(Double, Boolean)]): Double = {
    val nPos = scored.count(_._2)
    val nNeg = scored.size - nPos
    require(nPos > 0 && nNeg > 0, "AUC needs both positives and negatives")
    val sorted = scored.sortBy(_._1)
    var i = 0
    var rankSumPos = 0.0
    while (i < sorted.size) {
      var j = i
      while (j < sorted.size && sorted(j)._1 == sorted(i)._1) j += 1
      // midrank for the tie group [i, j), 1-based ranks
      val midRank = (i + 1 + j) / 2.0
      var t = i
      while (t < j) {
        if (sorted(t)._2) rankSumPos += midRank
        t += 1
      }
      i = j
    }
    (rankSumPos - nPos.toLong * (nPos + 1) / 2.0) / (nPos.toDouble * nNeg)
  }

  /** Average Precision: mean of precision@rank over positive positions,
    * descending by score; tie groups contribute their average precision.
    */
  def averagePrecision(scored: Seq[(Double, Boolean)]): Double = {
    val nPos = scored.count(_._2)
    require(nPos > 0, "AP needs at least one positive")
    val sorted = scored.sortBy(-_._1)
    var i = 0
    var tp = 0
    var sum = 0.0
    while (i < sorted.size) {
      var j = i
      var groupPos = 0
      while (j < sorted.size && sorted(j)._1 == sorted(i)._1) {
        if (sorted(j)._2) groupPos += 1
        j += 1
      }
      if (groupPos > 0) {
        // Spread the group's positives uniformly across its ranks
        // (expected precision under random tie-breaking, interpolated
        // linearly): precision after the group at rank j with tp+groupPos.
        val groupSize = j - i
        var t = 1
        while (t <= groupPos) {
          val frac = t.toDouble / groupPos
          val rank = i + frac * groupSize
          val tpAt = tp + t
          sum += tpAt / rank
          t += 1
        }
      }
      tp += groupPos
      i = j
    }
    sum / nPos
  }

  /** `Tasks.evaluate` before `Metrics.aucAp`: the pairs scored in order,
    * boxed as tuples, then both metrics above.
    */
  def evaluate(pairs: Array[Tasks.TestPair], scorer: (Int, Int) => Double): (Double, Double) = {
    val scored = pairs.toSeq.map(p => (scorer(p.i, p.j), p.positive))
    (auc(scored), averagePrecision(scored))
  }
}
