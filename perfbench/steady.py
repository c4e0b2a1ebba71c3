"""Steadiness command: repeat each workload in fresh processes and report
the median and quartiles of every end-to-end metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seed-base 100

Every workload of ``BENCHMARK.json`` is run at its ``run_seconds``; run
``i`` of every workload uses seed ``seed-base + i``.  For each metric
the spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; it is
printed beside the metric's bound from ``BENCHMARK.json`` and a third of
it, the level the bounds were set to clear.  The command exits non-zero
if a run fails, reports ``correct: false`` or fails a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        shares = set()
        for i in range(args.runs):
            cmd = spec["command"] + ["--workload", name,
                                     "--seed", str(args.seed_base + i),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {args.seed_base + i}: exit "
                      f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                ok = False
            shares.add((result["failed"], result["attempted"]))
            for metric, m in result["metrics"].items():
                values[metric].append(m["value"])
            print(f"{name} seed {args.seed_base + i}: " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                + f" attempted={result['attempted']}", flush=True)
        print(f"\n{name}: {args.runs} fresh processes, seeds "
              f"{args.seed_base}..{args.seed_base + args.runs - 1}, "
              f"failed/attempted {sorted(shares)}")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound/3':>8s} {'bound':>6s}")
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            print(f"  {metric:14s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.1%} {bound / 3:8.1%} {bound:6.0%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
