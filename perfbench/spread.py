"""Repeat benchmark runs of one workload and print each metric's spread.

    python3 perfbench/spread.py --workload hz --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, for the run
length in ``BENCHMARK.json``, and prints per end-to-end metric the median,
the quartiles and the inter-quartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``, and then every run's value.  A spread above a third of
its bound is flagged.  Also checks that the failed share of operations is
identical in every run.  These spreads are what the bounds were set from.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in seed_list(args.seeds):
        r = run_once(args.workload, seed, bench["run_seconds"])
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
        results.append(r)

    print(f"\n{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = "  <-- above bound/3" if spread > bound / 3 else ""
        print(f"{name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6}{flag}")
    print("\nper run, in seed order:")
    for name in results[0]["metrics"]:
        print(f"{name:34} " + " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results))
    same = len({Fraction(r["failed"], r["attempted"]) for r in results}) == 1
    print(f"\nfailed share identical in every run: {same}; "
          f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
