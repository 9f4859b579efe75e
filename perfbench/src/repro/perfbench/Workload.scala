package repro.perfbench

import org.apache.spark.sql.SparkSession

import repro.core.{Embeddings, Pane, PaneConfig, ParallelPane}
import repro.eval.Tasks
import repro.eval.Tasks.TestPair
import repro.graph.{AttributedGraph, Datasets, SynthGraph}
import repro.spark.SparkPane

/** Which public embed call a workload drives. */
sealed trait Backend
object Backend {
  case object Single extends Backend
  case object Pool extends Backend
  case object Spark extends Backend
}

/** One benchmark workload: a "-lite" dataset, its evaluation task, and the
  * backend that embeds it. All use the table config (α = 0.5, ε = 0.015,
  * so t = 6 APMI hops and 6 CCD sweeps). `nb` is fixed here, never read
  * from the machine, so results do not depend on the core count.
  *
  * @param link        link prediction (30 % of edges removed) instead of
  *                    attribute inference (80/20 split of attribute entries)
  * @param warmupReps  embeds of the small warm-up graph during set-up
  * @param prepReps    set-up repetitions (generate, split, operators)
  *                    after the warm-up; `setup_s` reports their median
  */
final case class Workload(
    name: String,
    dataset: SynthGraph.Config,
    link: Boolean,
    k: Int,
    backend: Backend,
    nb: Int,
    warmupReps: Int,
    prepReps: Int,
) {
  def cfg: PaneConfig = PaneConfig(k = k)

  /** Graph seed and split seed for workload seed `s`; `s = 0` gives the
    * seeds of `Datasets` and `TableRunner`, so it reproduces EXPERIMENTS.md.
    */
  def graphSeed(s: Long): Long = dataset.seed + s
  def splitSeed(s: Long): Long = (if (link) 77L else 99L) + s

  /** A small graph of the same kind for JIT warm-up: a twentieth of the
    * nodes, a quarter of the attributes. Its seed lies far from every graph
    * seed, so it shares no data with the workload graph.
    */
  def warmupConfig(s: Long): SynthGraph.Config =
    dataset.copy(n = math.max(400, dataset.n / 20), d = dataset.d / 4,
      seed = 1000003L + 7919L * s, name = dataset.name + "-warmup")

  def embed(g: AttributedGraph, spark: SparkSession): Embeddings = backend match {
    case Backend.Single => Pane.embed(g, cfg)
    case Backend.Pool => ParallelPane.embed(g, cfg, nb = nb)
    case Backend.Spark => SparkPane.embed(g, cfg, Some(nb))(spark)
  }

  def split(g: AttributedGraph, s: Long): (AttributedGraph, Array[TestPair]) =
    if (link) Tasks.linkPrediction(g, removeRatio = 0.3, seed = splitSeed(s))
    else Tasks.attributeInference(g, trainRatio = 0.8, seed = splitSeed(s))

  /** AUC and AP of `e` on `pairs`, scored as `TableRunner` scores them. */
  def score(g: AttributedGraph, e: Embeddings, pairs: Array[TestPair]): (Double, Double) =
    if (link) {
      val sc = new Pane.LinkScorer(e)
      Tasks.evaluate(pairs, if (g.directed) sc.directed else sc.undirected)
    } else Tasks.evaluate(pairs, Pane.attrScore(e, _, _))
}

object Workload {

  // Why each benchmarked workload exists is recorded in BENCHMARK.json.
  // mag-link-pool is not listed there: one run takes about 50 s for a single
  // embed, and with it in the set the 3420 s budget for all runs left the
  // noisier Spark workload one embed per run. It stays runnable by name for
  // the pool backend, its bit-equality check and the largest heap.
  // pubmed-attr-spark embeds its warm-up graph four times: on a 4-core box
  // the warm-up embeds still got faster from the second to the fourth.
  val all: Seq[Workload] = Seq(
    Workload("citeseer-attr-single", Datasets.citeseer, link = false, k = 64,
      backend = Backend.Single, nb = 1, warmupReps = 5, prepReps = 25),
    Workload("mag-link-pool", Datasets.mag, link = true, k = 32,
      backend = Backend.Pool, nb = 4, warmupReps = 3, prepReps = 3),
    Workload("pubmed-attr-spark", Datasets.pubmed, link = false, k = 64,
      backend = Backend.Spark, nb = 4, warmupReps = 4, prepReps = 15),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
