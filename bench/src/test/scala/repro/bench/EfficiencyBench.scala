package repro.bench

import repro.SparkSpec
import repro.core.{Pane, PaneConfig, ParallelPane}
import repro.graph.Datasets
import repro.spark.SparkPane

/** Runtime shape of Figures 3/4a: parallel PANE should be markedly faster
  * than single-thread PANE on a non-trivial graph, and speedup should not
  * degrade when threads are added.
  */
class EfficiencyBench extends SparkSpec {

  /** One untimed warm-up run (JIT, Spark stage setup), then the timed runs;
    * returns their wall times in seconds, sorted.
    */
  private def times(body: => Unit, runs: Int = 3): Seq[Double] = {
    body
    Seq.fill(runs) {
      val start = System.nanoTime()
      body
      (System.nanoTime() - start) / 1e9
    }.sorted
  }

  test("parallel speedup over single thread (Figure 3/4a shape)") {
    implicit val ss = spark
    val g = Datasets.load(Datasets.pubmed)
    val cfg = PaneConfig(k = 64)
    val single = times(Pane.embed(g, cfg))
    val par4 = times(ParallelPane.embed(g, cfg, nb = 4))
    val par8 = times(ParallelPane.embed(g, cfg, nb = 8))
    val spk = times(SparkPane.embed(g, cfg, Some(8)))
    def median(ts: Seq[Double]): Double = ts(ts.length / 2)
    val tSingle = median(single)
    val tPar4 = median(par4)
    val tPar8 = median(par8)
    val tSpark = median(spk)
    def runs(ts: Seq[Double]): String = ts.map(t => f"$t%.2f").mkString("runs ", " / ", "")
    println(f"=== Efficiency (pubmed-lite, k=64; median of 3 runs after a warm-up) ===")
    println(f"PANE single thread : $tSingle%8.2f s                      ${runs(single)}")
    println(f"PANE 4 threads     : $tPar4%8.2f s  (speedup ${tSingle / tPar4}%4.2f x)  ${runs(par4)}")
    println(f"PANE 8 threads     : $tPar8%8.2f s  (speedup ${tSingle / tPar8}%4.2f x)  ${runs(par8)}")
    println(f"PANE Spark (nb=8)  : $tSpark%8.2f s  (speedup ${tSingle / tSpark}%4.2f x)  ${runs(spk)}")
    // Shape assertions, deliberately loose (wall-clock on shared CI box):
    assert(tPar4 < tSingle, "4 threads should beat single thread")
    assert(tPar8 < tSingle, "8 threads should beat single thread")
  }
}
