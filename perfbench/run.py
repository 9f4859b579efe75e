#!/usr/bin/env python3
"""PANE benchmark: builds the repository's Scala sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload citeseer-attr-single --seed 0 --seconds 10 --trace 0

Workloads are listed in BENCHMARK.json and defined in
perfbench/src/repro/perfbench/Workload.scala. Seed 0 gives the graph and split
seeds of EXPERIMENTS.md; any other seed shifts both. With --trace 0 the last
line of stdout is the end-to-end result; with --trace 1 it is the per-layer
result, and the spans go to a trace file in the build directory.

The build compiles src/main/scala and perfbench/src with the Scala compiler
that ships in Spark's jars directory (found from SPARK_HOME, or from
spark-submit on PATH) into $CARGO_TARGET_DIR (default .bench_build), once
per source hash. Every run uses the same JVM settings: fixed heap, touched
at start so no timed region pays for first page faults, G1, four active
processors.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
JAVA_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800

# Same on both sides of every comparison: heap size, collector, CPU count.
# The heap is touched at start: without that the first preparation of the
# largest graph ran about 40 % slower than the next, from page faults.
JVM_OPTS = [
    "-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseG1GC", "-XX:ActiveProcessorCount=4",
    "-XX:+IgnoreUnrecognizedVMOptions",
    # Module access Spark needs on Java 17 (as spark-submit passes it).
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark installation: set SPARK_HOME or put spark-submit on PATH")
    return Path(home) / "jars"


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        fail(f"no program sources at {main.relative_to(ROOT)}; run from a checkout of the repository")
    files = sorted(main.rglob("*.scala")) + sorted((BENCH_DIR / "src").rglob("*.scala"))
    return files


def build(out, jars):
    """Compiles the sources into out/classes-<hash> unless that already exists."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    classes = out / f"classes-{h.hexdigest()[:16]}"
    if (classes / ".complete").exists():
        return classes
    tmp = out / f"classes-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cp = f"{jars}/*"
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-classpath", cp, "-d", str(tmp)] + [str(f) for f in files]
    r = subprocess.run(cmd, cwd=ROOT, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    (tmp / ".complete").touch()
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = ROOT / out
    jars = spark_jars()
    classes = build(out, jars)
    run_dir = out / "perfbench"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)

    cmd = ["java"] + JVM_OPTS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={BENCH_DIR / 'log4j2.properties'}",
        f"-Dperfbench.nproc={len(os.sched_getaffinity(0))}",
        "-cp", f"{classes}{os.pathsep}{jars}/*",
        "repro.perfbench.Main",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", str(run_dir),
    ]
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)  # Spark's scratch space stays in run_dir
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=JAVA_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {JAVA_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"benchmark JVM exited with code {r.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
