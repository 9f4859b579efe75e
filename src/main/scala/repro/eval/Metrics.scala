package repro.eval

/** Ranking metrics used throughout the paper's evaluation: Area Under the
  * ROC Curve (AUC) and Average Precision (AP), exact and tie-aware. Both
  * read only the sequence of tie groups (McSherry & Najork, ECIR 2008).
  */
object Metrics {

  /** (AUC, AP) of `scores`, where `positive(r)` labels `scores(r)`. The
    * positives' and the negatives' scores are sorted apart as primitive
    * arrays (`Double.compare` order) and merged into tie groups: maximal
    * runs of `==` scores (−0.0 and 0.0 share one), each kept as its size and
    * its count of positives. AUC, the Mann–Whitney statistic with midranks,
    * walks the groups upward and adds a group's midrank once per positive.
    * AP, the mean of precision@rank over positive positions, walks them
    * downward and spreads a group's positives uniformly across its ranks
    * (expected precision under random tie-breaking, interpolated linearly).
    * Fails on a NaN score, and unless there are positives and negatives.
    */
  def aucAp(scores: Array[Double], positive: Array[Boolean]): (Double, Double) = {
    val n = scores.length
    require(positive.length == n, s"$n scores but ${positive.length} labels")
    val nPos = positive.count(identity)
    val nNeg = n - nPos
    require(nPos > 0 && nNeg > 0, "AUC needs both positives and negatives")
    val (pos, neg) = (new Array[Double](nPos), new Array[Double](nNeg))
    var (p, q, r, nan) = (0, 0, 0, 0)
    while (r < n) {
      if (scores(r).isNaN) nan += 1
      if (positive(r)) { pos(p) = scores(r); p += 1 } else { neg(q) = scores(r); q += 1 }
      r += 1
    }
    require(nan == 0, s"$nan of $n scores are NaN")
    java.util.Arrays.sort(pos)
    java.util.Arrays.sort(neg)
    // Tie groups upward, as 1-based ranks i + 1 … j; AUC accumulates as they form.
    val (groupSize, groupPos) = (new Array[Int](n), new Array[Int](n))
    var (groups, i, rankSumPos) = (0, 0, 0.0)
    p = 0; q = 0
    while (p < nPos || q < nNeg) {
      val v = if (q == nNeg || (p < nPos && pos(p) < neg(q))) pos(p) else neg(q)
      val p0 = p; val q0 = q
      while (p < nPos && pos(p) == v) p += 1
      while (q < nNeg && neg(q) == v) q += 1
      val j = i + (p - p0) + (q - q0)
      val midRank = (i + 1 + j) / 2.0
      var t = 0
      while (t < p - p0) { rankSumPos += midRank; t += 1 }
      groupSize(groups) = j - i; groupPos(groups) = p - p0
      groups += 1; i = j
    }
    val auc = (rankSumPos - nPos.toLong * (nPos + 1) / 2.0) / (nPos.toDouble * nNeg)
    // The same groups downward: precision at rank i + frac·size after t of the group's positives.
    var (tp, sum, g) = (0, 0.0, groups - 1)
    i = 0
    while (g >= 0) {
      var t = 1
      while (t <= groupPos(g)) {
        val frac = t.toDouble / groupPos(g)
        sum += (tp + t) / (i + frac * groupSize(g))
        t += 1
      }
      tp += groupPos(g); i += groupSize(g); g -= 1
    }
    (auc, sum / nPos)
  }
}
