package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Apmi, PaneConfig, SvdCcd}
import repro.core.SvdCcdSpec._
import repro.graph.Datasets

/** Warm rates of the CCD kernels at k = 64 on the state GreedyInit leaves:
  * `nodeSweep` (the X-phase: F'·Y, X·H and the coordinate loop),
  * `attrGramRows` (the Y-phase accumulation XᵀF') and `attrGramRows` on X
  * (the Gramian H = XᵀX, as `SvdCcd.gramian` forms it), each over all n
  * rows, staged against their flat oracles.
  * Prints the median of 9 runs after 3 warm-up runs, in seconds and GFMA/s
  * (fused multiply-adds of the kernel's inner loops, 1e9 per second). The
  * only assertion is that every staged kernel equals its flat oracle bit
  * for bit.
  *
  * One JVM's median reflects how C2 compiled the kernel in that JVM, so
  * compare kernels over several JVMs (at least 5 per side), each one run
  * of: `sbt "bench/testOnly repro.bench.CcdKernelBench"`.
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

  private def copyOf(st: SvdCcd.State) = SvdCcd.State(st.xf.copy, st.xb.copy, st.y.copy, st.f, st.b)

  private def sameState(a: SvdCcd.State, b: SvdCcd.State): Boolean =
    Seq((a.xf, b.xf), (a.xb, b.xb), (a.y, b.y)).forall { case (p, q) => java.util.Arrays.equals(p.data, q.data) }

  for (ds <- Seq(Datasets.citeseer, Datasets.pubmed)) test(s"CCD kernel rates on ${ds.name}, k = 64") {
    val cfg = PaneConfig(k = 64)
    val g = Datasets.load(ds)
    val aff = Apmi.run(g, cfg.alpha, cfg.t)
    val init = SvdCcd.greedyInit(aff.fPrime, aff.bPrime, cfg.k, cfg.t, cfg.seed)
    val (n, d, half) = (g.n, g.d, cfg.k / 2)
    def yAcc(st: SvdCcd.State): Array[Double] = {
      val g = new Array[Double](2 * half * d)
      SvdCcd.attrGramRows(st.xf.data, st.xb.data, st.f.data, st.b.data, 0, d, n, half, d, g)
      g
    }
    def flatYAcc(st: SvdCcd.State): Array[Double] = {
      val g = new Array[Double](2 * half * d)
      flatAttrGramRows(st.xf.data, st.xb.data, st.f.data, st.b.data, 0, d, n, half, d, g)
      g
    }
    def flatGram(st: SvdCcd.State): Array[Double] = {
      val h = new Array[Double](2 * half * half)
      flatGramRows(st.xf.data, st.xb.data, n, half, h)
      h
    }

    // Bit-equality with the flat oracles, on copies of the init state.
    val (s1, s2) = (copyOf(init), copyOf(init))
    SvdCcd.nodeSweep(s1, 0, n); flatNodeSweep(s2, 0, n)
    assert(sameState(s1, s2), "nodeSweep")
    assert(java.util.Arrays.equals(yAcc(s1), flatYAcc(s2)), "attrGramRows")
    assert(java.util.Arrays.equals(SvdCcd.gramian(s1), flatGram(s2)), "attrGramRows on X")

    // Timed on one state each; the sweeps keep converging, which changes no
    // loop bound.
    val st = copyOf(init)
    val fl = copyOf(init)
    val rows = Seq(
      ("nodeSweep", 2.0 * n * half * (d + half),
        median(SvdCcd.nodeSweep(st, 0, n)), median(flatNodeSweep(fl, 0, n))),
      ("attrGramRows", 2.0 * n * half * d, median(yAcc(st)), median(flatYAcc(fl))),
      ("gramian", 2.0 * n * half * half, median(SvdCcd.gramian(st)), median(flatGram(fl))))
    println(f"=== CCD kernels on ${ds.name} (n $n, d $d, k ${cfg.k}; median of $runs after $warmups warm-up runs) ===")
    for ((name, fma, staged, flat) <- rows)
      println(f"$name%-13s staged $staged%8.4f s ${fma / staged / 1e9}%5.2f GFMA/s   flat $flat%8.4f s ${fma / flat / 1e9}%5.2f GFMA/s")
  }
}
