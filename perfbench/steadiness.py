#!/usr/bin/env python3
"""Run one workload N times and report how steady each metric is.

    python3 perfbench/steadiness.py --workload decode --runs 10 --seconds 20

Each run goes through perfbench/run.py with its own seed (--seed-base,
--seed-base + 1, ...).  For every metric of the result line the tool
prints the median, the quartiles (statistics.quantiles, n=4), the
quartile spread (q3 - q1) / median and the full range
(max - min) / median.  These spreads are the evidence behind the bounds
in BENCHMARK.json: a metric's quartile spread should sit well inside its
bound.  Tails the report marks "reported only" are listed too, so a
later change can see whether they have become steady enough to gate.
--trace 1 does the same for the per-layer metrics.

Each run's hypervisor steal (the "host: steal=" line) is printed next
to its figures and summarized at the end, so a set that ran through a
steal episode shows as one.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path


REPORTED_ONLY = re.compile(
    r"^\s+(\S+)\s+(-?[\d.]+)\s+(\S+)\s+n=\d+\s+reported only")
STEAL = re.compile(r"^host: steal=([\d.]+)%")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    run_py = Path(__file__).resolve().parent / "run.py"
    values = {}
    units = {}
    steal = []
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, str(run_py), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"steadiness.py: run with seed {seed} failed")
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        # Tails the report prints but keeps out of the result line.
        for line in lines[:-1]:
            m = REPORTED_ONLY.match(line)
            if m:
                k = m.group(1) + " (reported only)"
                values.setdefault(k, []).append(float(m.group(2)))
                units[k] = m.group(3)
            m = STEAL.match(line)
            if m:
                steal.append(float(m.group(1)))
        print(f"seed {seed}: steal={steal[-1] if steal else 0:.2f}% "
              f"correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}"
                         for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':36} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'iqr/med':>8} {'range/med':>9}")
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        rel = (lambda x: x / med) if med else (lambda x: 0.0)
        print(f"{k:36} {units[k]:8} {med:12.6g} {q1:12.6g} {q3:12.6g}"
              f" {rel(q3 - q1):8.3f} {rel(max(v) - min(v)):9.3f}")
    if steal:
        print(f"host steal, % of CPU time: median "
              f"{statistics.median(steal):.2f}, min {min(steal):.2f}, "
              f"max {max(steal):.2f}")


if __name__ == "__main__":
    main()
