package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Apmi, PaneConfig, SvdCcd}
import repro.core.SvdCcdSpec._
import repro.graph.Datasets
import repro.linalg.DenseMatrix
import repro.linalg.DenseMatrixSpec.flatMul

/** Warm rates of the CCD kernels at k = 64 on the state GreedyInit leaves:
  * `nodeSweep` (the X-phase: F'·Y, X·H and the coordinate loop),
  * `attrGramRows` (the Y-phase accumulation XᵀF') and `attrGramRows` on X
  * (the Gramian H = XᵀX, as `SvdCcd.gramian` forms it), each over all n
  * rows, and RandSVD's first product F'·Ω (Ω d × 40, k/2 plus the
  * oversampling), staged against their flat oracles.
  * Prints the share of non-zero entries in F' and B', then the median of
  * 9 runs after 3 warm-up runs, in seconds and GFMA/s (fused multiply-adds
  * of the kernel's inner loops, 1e9 per second). `nodeSweep` and `F'*Omega` (F'·Ω)
  * skip the exact zeros of F' and B', so their multiply-adds are counted on
  * the non-zero terms only, for both forms. The only assertion is that
  * every staged kernel equals its flat oracle bit for bit.
  *
  * One JVM's median reflects how C2 compiled the kernel in that JVM, so
  * compare kernels over several JVMs (at least 5 per side):
  * `bench/kernel-jvms.sh N` runs this suite in N fresh JVMs and prints each
  * kernel's median and range over them.
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

    val omega = DenseMatrix.randn(d, half + 8, cfg.seed)
    def nnz(m: DenseMatrix): Long = m.data.count(_ != 0.0).toLong
    val (nnzF, nnzB) = (nnz(aff.fPrime), nnz(aff.bPrime))

    // Bit-equality with the flat oracles, on copies of the init state.
    val (s1, s2) = (copyOf(init), copyOf(init))
    SvdCcd.nodeSweep(s1, 0, n); flatNodeSweep(s2, 0, n)
    assert(sameState(s1, s2), "nodeSweep")
    assert(java.util.Arrays.equals(yAcc(s1), flatYAcc(s2)), "attrGramRows")
    assert(java.util.Arrays.equals(SvdCcd.gramian(s1), flatGram(s2)), "attrGramRows on X")
    assert(java.util.Arrays.equals((aff.fPrime * omega).data, flatMul(aff.fPrime, omega).data), "F'*Omega")

    // Timed on one state each; the sweeps keep converging, which changes no
    // loop bound.
    val st = copyOf(init)
    val fl = copyOf(init)
    val rows = Seq(
      ("nodeSweep", half.toDouble * (nnzF + nnzB) + 2.0 * n * half * half,
        median(SvdCcd.nodeSweep(st, 0, n)), median(flatNodeSweep(fl, 0, n))),
      ("attrGramRows", 2.0 * n * half * d, median(yAcc(st)), median(flatYAcc(fl))),
      ("gramian", 2.0 * n * half * half, median(SvdCcd.gramian(st)), median(flatGram(fl))),
      ("F'*Omega", nnzF.toDouble * omega.cols, median(aff.fPrime * omega), median(flatMul(aff.fPrime, omega))))
    println(f"=== CCD kernels on ${ds.name} (n $n, d $d, k ${cfg.k}; median of $runs after $warmups warm-up runs) ===")
    println(f"non-zero share: F' ${nnzF.toDouble / (n.toLong * d)}%.3f, B' ${nnzB.toDouble / (n.toLong * d)}%.3f")
    for ((name, fma, staged, flat) <- rows)
      println(f"$name%-13s staged $staged%8.4f s ${fma / staged / 1e9}%5.2f GFMA/s   flat $flat%8.4f s ${fma / flat / 1e9}%5.2f GFMA/s")
  }
}
