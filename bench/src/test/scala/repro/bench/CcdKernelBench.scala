package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Apmi, PaneConfig, SvdCcd}
import repro.core.SvdCcdSpec._
import repro.graph.Datasets

/** Warm rates of the CCD kernels at k = 64 on the state GreedyInit leaves:
  * `nodeSweep` (the X-phase), `attrGramRows` (the Y-phase accumulation) and
  * `patchRows` (the Y-phase residual move), each over all n rows and d
  * columns, staged against the flat form they replaced. Prints the median
  * of 9 runs after 3 warm-up runs, in seconds and GFMA/s (fused
  * multiply-adds of the kernel's inner loops, 1e9 per second). The only
  * assertion is that every staged kernel equals its flat oracle bit for
  * bit.
  *
  * Run: `sbt "bench/testOnly repro.bench.CcdKernelBench"`.
  */
class CcdKernelBench extends AnyFunSuite {

  private val warmups = 3
  private val runs = 9

  /** Median wall time in seconds of `runs` calls after `warmups` calls. */
  private def median(body: => Unit): Double = {
    for (_ <- 0 until warmups) body
    val ts = Array.fill(runs) {
      val start = System.nanoTime()
      body
      (System.nanoTime() - start) / 1e9
    }.sorted
    ts(runs / 2)
  }

  private def copyOf(st: SvdCcd.State) = SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.sf.copy, st.sb.copy)

  private def sameState(a: SvdCcd.State, b: SvdCcd.State): Boolean =
    Seq((a.xf, b.xf), (a.xb, b.xb), (a.y, b.y), (a.sf, b.sf), (a.sb, b.sb))
      .forall { case (p, q) => java.util.Arrays.equals(p.data, q.data) }

  for (ds <- Seq(Datasets.citeseer, Datasets.pubmed)) test(s"CCD kernel rates on ${ds.name}, k = 64") {
    val cfg = PaneConfig(k = 64)
    val g = Datasets.load(ds)
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val init = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.t, cfg.seed)
    val (n, d, half) = (g.n, g.d, cfg.k / 2)
    val accSize = SvdCcd.attrGramSize(half, d)
    // A real Y-phase step: ΔYᵀ from one replay on the init state.
    val acc = new Array[Double](accSize)
    SvdCcd.attrGramRows(init.xf.data, init.xb.data, init.sf.data, init.sb.data, 0, d, n, half, d, acc)
    val deltaT = SvdCcd.attrReplay(init.y.copy, acc, 0, d)

    // Bit-equality with the flat oracles, on copies of the init state.
    val (s1, s2) = (copyOf(init), copyOf(init))
    SvdCcd.nodeSweep(s1, 0, n); flatNodeSweep(s2, 0, n)
    assert(sameState(s1, s2), "nodeSweep")
    val (a1, a2) = (new Array[Double](accSize), new Array[Double](accSize))
    SvdCcd.attrGramRows(s1.xf.data, s1.xb.data, s1.sf.data, s1.sb.data, 0, d, n, half, d, a1)
    flatAttrGramRows(s2.xf.data, s2.xb.data, s2.sf.data, s2.sb.data, 0, d, n, half, d, a2)
    assert(java.util.Arrays.equals(a1, a2), "attrGramRows")
    SvdCcd.patchRows(s1, deltaT, 0, d); flatPatchRows(s2, deltaT, 0, d)
    assert(sameState(s1, s2), "patchRows")

    // Timed on one state each; the sweeps keep converging and the patches
    // keep moving S, which changes no loop bound.
    val st = copyOf(init)
    val fl = copyOf(init)
    val rows = Seq(
      ("nodeSweep", 4.0 * n * half * d,
        median(SvdCcd.nodeSweep(st, 0, n)), median(flatNodeSweep(fl, 0, n))),
      ("attrGramRows", 2.0 * n * half * (d + half),
        median(SvdCcd.attrGramRows(st.xf.data, st.xb.data, st.sf.data, st.sb.data, 0, d, n, half, d,
          new Array[Double](accSize))),
        median(flatAttrGramRows(fl.xf.data, fl.xb.data, fl.sf.data, fl.sb.data, 0, d, n, half, d,
          new Array[Double](accSize)))),
      ("patchRows", 2.0 * n * half * d,
        median(SvdCcd.patchRows(st, deltaT, 0, d)), median(flatPatchRows(fl, deltaT, 0, d))))
    println(f"=== CCD kernels on ${ds.name} (n $n, d $d, k ${cfg.k}; median of $runs after $warmups warm-up runs) ===")
    for ((name, fma, staged, flat) <- rows)
      println(f"$name%-13s staged $staged%8.4f s ${fma / staged / 1e9}%5.2f GFMA/s   flat $flat%8.4f s ${fma / flat / 1e9}%5.2f GFMA/s")
  }
}
