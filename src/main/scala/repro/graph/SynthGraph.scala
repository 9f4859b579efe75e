package repro.graph

import scala.collection.mutable
import scala.util.Random

/** Synthetic attributed-digraph generator.
  *
  * The paper evaluates on real attributed networks (Table 3) that are not
  * available offline, so we generate structural analogues: a directed
  * stochastic block model (communities = label classes) with power-law-ish
  * out-degrees and per-community Zipf attribute preferences. The
  * homophily knobs (`edgeInProb`, `attrInProb`) create the topology ↔
  * attribute correlation that attributed network embedding exploits;
  * without it every method scores AUC ≈ 0.5 and the paper's comparison
  * shape is unobservable.
  *
  * Deterministic in `seed`.
  */
object SynthGraph {

  /** @param n            number of nodes
    * @param avgOutDeg    mean out-degree (power-law-ish draw, min 1)
    * @param d            number of attributes
    * @param avgAttrs     mean attributes per node
    * @param communities  number of planted communities (= labels)
    * @param edgeInProb   probability an edge stays inside the community
    * @param attrInProb   probability an attribute pick comes from the
    *                     community's preferred attribute window
    * @param ringBias     fraction of *cross-community* edges that follow the
    *                     directed community ring c → (c+1) mod C. Real
    *                     directed graphs (citations, follows) have such
    *                     directional flux — it is what makes edge direction
    *                     informative, the property PANE exploits and
    *                     undirected baselines cannot. Ignored when
    *                     `directed = false` (mirrored edges erase it).
    * @param directed     if false, each generated edge is mirrored
    * @param multiLabel   if true nodes may carry a secondary label
    * @param labelGroups  number of coarse label classes; 0 (default) means
    *                     one label per community. Real graphs often have
    *                     many topical micro-clusters but few label classes
    *                     (Pubmed: thousands of citation clusters, 3
    *                     classes) — set communities high and labelGroups
    *                     low to reproduce that, labels = community mod
    *                     labelGroups.
    */
  final case class Config(
      n: Int,
      avgOutDeg: Double,
      d: Int,
      avgAttrs: Double,
      communities: Int,
      edgeInProb: Double = 0.8,
      attrInProb: Double = 0.8,
      ringBias: Double = 0.8,
      directed: Boolean = true,
      multiLabel: Boolean = false,
      labelGroups: Int = 0,
      powerLawExp: Double = 2.3,
      name: String = "synth",
      seed: Long = 7L,
  )

  def generate(cfg: Config): AttributedGraph = {
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
    val seen = new LongSet((n * avgOutDeg).toLong * (if (directed) 1 else 2))
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
    // A node's attribute picks are deduped within the node: lastPick(attr)
    // is the last node that picked attr.
    val lastPick = Array.fill(d)(-1)
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
        if (lastPick(attr) != i) {
          lastPick(attr) = i
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

/** A set of non-negative Long keys by open addressing (linear probing,
  * Fibonacci hashing, load at most 1/2), so adding a key boxes nothing.
  *
  * @param expected the number of keys to size the table for; it grows
  *                 past that as needed
  */
private[graph] final class LongSet(expected: Long) {
  private var bits = math.max(4, 65 - java.lang.Long.numberOfLeadingZeros(math.max(1L, expected)))
  private var keys = empty(bits)
  private var size = 0

  private def empty(bits: Int): Array[Long] = {
    val a = new Array[Long](1 << bits)
    java.util.Arrays.fill(a, -1L)
    a
  }

  /** Adds `key` (>= 0); true if it was not in the set. */
  def add(key: Long): Boolean = {
    if (2 * (size + 1) > keys.length) {
      val old = keys
      bits += 1
      keys = empty(bits)
      size = 0
      var i = 0
      while (i < old.length) { if (old(i) >= 0) insert(old(i)); i += 1 }
    }
    insert(key)
  }

  private def insert(key: Long): Boolean = {
    val mask = keys.length - 1
    var slot = ((key * 0x9E3779B97F4A7C15L) >>> (64 - bits)).toInt
    while (keys(slot) >= 0) {
      if (keys(slot) == key) return false
      slot = (slot + 1) & mask
    }
    keys(slot) = key
    size += 1
    true
  }
}
