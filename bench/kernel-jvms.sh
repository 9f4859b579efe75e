#!/usr/bin/env bash
# Runs CcdKernelBench in N fresh JVMs and prints, per dataset and kernel, the
# median and range over the JVMs of each JVM's median seconds per call,
# staged and flat. One JVM's median reflects how C2 compiled the kernel in
# that JVM; the spread over JVMs shows how much of a difference is that.
#
# Usage, from the root of a checkout: bench/kernel-jvms.sh N [LOG]
# sbt forks one test JVM per testOnly command, so the N runs share one sbt
# start. SBT_OPTS and the other sbt settings come from the environment. The
# raw output is kept in LOG (default: a temporary file, whose name is
# printed).
set -euo pipefail

n=${1:?usage: bench/kernel-jvms.sh N [LOG]}
[[ "$n" =~ ^[1-9][0-9]*$ ]] || { echo "N must be a positive integer, got $n" >&2; exit 2; }
log=${2:-$(mktemp -t kernel-jvms.XXXXXX)}

cmds=()
for _ in $(seq "$n"); do cmds+=("bench/testOnly repro.bench.CcdKernelBench"); done
sbt --batch -Dsbt.log.noformat=true "${cmds[@]}" > "$log" 2>&1 || { tail -40 "$log" >&2; exit 1; }
echo "raw output: $log"

# Lines look like "[info] nodeSweep  staged  0.0583 s  4.10 GFMA/s   flat  0.0844 s ...",
# each run's block headed by "=== CCD kernels on <dataset> (...".
sed 's/^\[info\] //' "$log" | awk '
  function median(s,   a, k, i, j, v, m) {
    k = split(s, a, " ")
    for (i = 2; i <= k; i++) {  # insertion sort; POSIX awk has no asort
      v = a[i] + 0
      for (j = i - 1; j >= 1 && a[j] + 0 > v; j--) a[j + 1] = a[j]
      a[j + 1] = v
    }
    m = (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
    return sprintf("%.4f (%.4f-%.4f)", m, a[1], a[k])
  }
  /^=== CCD kernels on / { ds = $5; next }
  /^non-zero share:/ { share[ds] = $0; next }
  ds != "" && $2 == "staged" {
    key = ds " " $1
    if (!(key in staged)) order[++nk] = key
    staged[key] = staged[key] " " $3
    for (i = 4; i <= NF; i++) if ($i == "flat") flat[key] = flat[key] " " $(i + 1)
    runs[key]++
  }
  END {
    for (d in share) print d ": " share[d]
    printf "%-28s %4s  %-26s %-26s\n", "kernel", "JVMs", "staged s, median (range)", "flat s, median (range)"
    for (i = 1; i <= nk; i++) {
      key = order[i]
      printf "%-28s %4d  %-26s %-26s\n", key, runs[key], median(staged[key]), median(flat[key])
    }
  }'
