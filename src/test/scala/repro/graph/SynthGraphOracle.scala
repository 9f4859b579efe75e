package repro.graph

import scala.collection.mutable
import scala.util.Random

/** [[SynthGraph.generate]] as it was when it deduped edges and attribute
  * entries through boxed `java.util.HashSet[Long]` sets: the oracle that the
  * primitive-set generator must reproduce array for array.
  */
object SynthGraphOracle {

  def generate(cfg: SynthGraph.Config): AttributedGraph = {
    import cfg._
    val rnd = new Random(seed)
    val community = Array.tabulate(n)(i => i % communities)
    val members: Array[Array[Int]] = {
      val buckets = Array.fill(communities)(mutable.ArrayBuilder.make[Int])
      var i = 0
      while (i < n) { buckets(community(i)) += i; i += 1 }
      buckets.map(_.result())
    }

    // --- Edges: SBM with power-law-ish out-degrees ------------------------
    // Pareto draw scaled so the mean is ~avgOutDeg: deg = ceil(xm * u^(-1/(a-1)))
    val a = powerLawExp
    val xm = avgOutDeg * (a - 2) / (a - 1) // mean of Pareto(xm, a-1)
    val srcB = mutable.ArrayBuilder.make[Int]
    val dstB = mutable.ArrayBuilder.make[Int]
    val seen = new java.util.HashSet[Long]()
    def addEdge(u: Int, v: Int): Unit = {
      if (u != v) {
        val key = u.toLong * n + v
        if (seen.add(key)) { srcB += u; dstB += v }
        if (!directed) {
          val rkey = v.toLong * n + u
          if (seen.add(rkey)) { srcB += v; dstB += u }
        }
      }
    }
    var i = 0
    while (i < n) {
      val u = rnd.nextDouble()
      val deg = math.min(n / 4, math.max(1, math.ceil(xm * math.pow(1 - u, -1.0 / (a - 1))).toInt))
      var e = 0
      while (e < deg) {
        val c = community(i)
        val v =
          if (rnd.nextDouble() < edgeInProb) members(c)(rnd.nextInt(members(c).length))
          else if (rnd.nextDouble() < ringBias) {
            val next = members((c + 1) % communities)
            next(rnd.nextInt(next.length))
          } else rnd.nextInt(n)
        addEdge(i, v)
        e += 1
      }
      i += 1
    }

    // --- Attributes: per-community Zipf over a preferred window -----------
    val window = math.max(4, d / communities)
    val zipfNorm = (1 to window).map(r => 1.0 / math.pow(r, 1.0)).sum
    def zipfRank(r: Random): Int = {
      // inverse-CDF over harmonic weights
      var u = r.nextDouble() * zipfNorm
      var rank = 1
      while (rank < window && u > 1.0 / rank) { u -= 1.0 / rank; rank += 1 }
      rank - 1
    }
    val anB = mutable.ArrayBuilder.make[Int]
    val aiB = mutable.ArrayBuilder.make[Int]
    val awB = mutable.ArrayBuilder.make[Double]
    val seenAttr = new java.util.HashSet[Long]()
    i = 0
    while (i < n) {
      val c = community(i)
      val base = (c * window) % math.max(1, d - window + 1)
      // 1 + Poisson-ish count via sum of Bernoullis (cheap, deterministic seed)
      val cnt = 1 + (0 until (2 * avgAttrs).toInt).count(_ => rnd.nextDouble() < 0.5)
      var t = 0
      while (t < cnt) {
        val attr =
          if (rnd.nextDouble() < attrInProb) math.min(d - 1, base + zipfRank(rnd))
          else rnd.nextInt(d)
        val key = i.toLong * d + attr
        if (seenAttr.add(key)) {
          anB += i; aiB += attr; awB += 1.0 + rnd.nextInt(3) // small integer weights
        }
        t += 1
      }
      i += 1
    }

    // --- Labels -----------------------------------------------------------
    val groups = if (labelGroups > 0) labelGroups else communities
    val labels = Array.tabulate(n) { v =>
      val primary = community(v) % groups
      if (multiLabel && rnd.nextDouble() < 0.3)
        Array(primary, (primary + 1 + rnd.nextInt(math.max(1, groups - 1))) % groups)
      else Array(primary)
    }

    AttributedGraph(
      n = n, d = d,
      src = srcB.result(), dst = dstB.result(),
      attrNode = anB.result(), attrId = aiB.result(), attrW = awB.result(),
      labels = labels, directed = directed, name = name)
  }
}
