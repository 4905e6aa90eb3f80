#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which pulls in the repository's libraries) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only re-check the build.  The benchmark process gets MX_THREADS =
nproc - 1 and no other MX_* variable: with the load generator's thread
and the engine worker acting as the pool's caller lane, that fills the
host's lanes exactly once.

stdout carries the benchmark's report; its last line is one JSON object
with the keys correct, attempted, failed and metrics.  A failed build or
benchmark exits non-zero without that line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("decode", "prefill")
RUN_TIMEOUT_S = 170


def lanes():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(root, build_dir):
    """Configure (once) and build serve_bench; build logs go to stderr."""
    if not (root / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: {root} holds no CMakeLists.txt; the benchmark "
                 "builds the repository's sources and needs a full checkout")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"),
                      "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "serve_bench", "-j", str(lanes())])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")
    return build_dir / "serve_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build(root, build_dir)

    env = {k: v for k, v in os.environ.items() if not k.startswith("MX_")}
    env["MX_THREADS"] = str(max(1, lanes() - 1))
    workdir = build_dir / "run" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(f"run.py: serve_bench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result line")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
