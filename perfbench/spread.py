#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload oracle_random --seeds 1-10 [--seconds 20]
    python3 perfbench/spread.py --workload oracle_random --report   # from the log only

Runs the benchmark once per seed, one run at a time, and prints per metric
the median, the quartiles (statistics.quantiles, n=4) and the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  Per-run results are appended as JSON lines to
perfbench/out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def spread_table(results: list[dict], spec: dict) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows.append({"metric": metric["name"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": metric["bound"]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--report", action="store_true",
                        help="run nothing; summarize the runs already in the log")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    log = BENCH_DIR / "out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = []
    if args.report:
        results = [json.loads(line) for line in log.read_text().splitlines()]
    for seed in [] if args.report else parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result) + "\n")
        print(json.dumps(result), flush=True)
    if len(results) < 2:
        return 0
    for row in spread_table(results, spec):
        print(f"{args.workload:18s} {row['metric']:12s} median {row['median']:10.4f}  "
              f"q1 {row['q1']:10.4f}  q3 {row['q3']:10.4f}  spread {row['spread']:.3f}  "
              f"bound {row['bound']}")
    print(f"{args.workload}: {sum(r['failed'] for r in results)} failed of "
          f"{sum(r['attempted'] for r in results)} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
