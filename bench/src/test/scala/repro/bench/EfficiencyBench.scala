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
    // One block per available core, at least 2, so no run oversubscribes the machine.
    val nb = math.max(2, Runtime.getRuntime.availableProcessors)
    val single = times(Pane.embed(g, cfg))
    val par2 = times(ParallelPane.embed(g, cfg, nb = 2))
    val parN = times(ParallelPane.embed(g, cfg, nb = nb))
    val spk = times(SparkPane.embed(g, cfg, Some(nb)))
    def median(ts: Seq[Double]): Double = ts(ts.length / 2)
    val tSingle = median(single)
    val tPar2 = median(par2)
    val tParN = median(parN)
    val tSpark = median(spk)
    def runs(ts: Seq[Double]): String = ts.map(t => f"$t%.2f").mkString("runs ", " / ", "")
    println(f"=== Efficiency (pubmed-lite, k=64; median of 3 runs after a warm-up) ===")
    println(f"PANE single thread : $tSingle%8.2f s                      ${runs(single)}")
    println(f"PANE 2 threads     : $tPar2%8.2f s  (speedup ${tSingle / tPar2}%4.2f x)  ${runs(par2)}")
    println(f"PANE $nb%d threads     : $tParN%8.2f s  (speedup ${tSingle / tParN}%4.2f x)  ${runs(parN)}")
    println(f"PANE Spark (nb=$nb%d)  : $tSpark%8.2f s  (speedup ${tSingle / tSpark}%4.2f x)  ${runs(spk)}")
    // Shape assertions, deliberately loose (wall-clock on shared CI box):
    assert(tPar2 < tSingle, "2 threads should beat single thread")
    assert(tParN < tSingle, s"$nb threads should beat single thread")
  }
}
