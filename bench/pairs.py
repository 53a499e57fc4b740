#!/usr/bin/env python3
"""Alternating benchmark pairs of two hcps checkouts, on one workload.

    python3 bench/pairs.py <parent root> <change root> --workload W [--pairs 10] [--seed 11]

Runs each checkout's own perfbench/run.py --trace 0 on the workload, at the
run length declared in the parent's BENCHMARK.json, strictly one process at
a time: pair i runs the parent first when i is even, the change first when
it is odd.  Every run's end-to-end metrics go to stderr as it ends.  Then,
for each end-to-end metric of the parent's BENCHMARK.json, it prints both
sides' median and quartiles, the change's wins over the pairs (ties count
for neither), and whether the gain rule holds: the change wins at least
nine tenths of the pairs and its median is better than the parent's by
more than the parent's interquartile range.  Last it prints each side's
failed and attempted operation counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

GAIN_SHARE = 0.9   # least share of pairs the change must win for a gain


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line ({"correct", "attempted", "failed", "metrics"}) of one untraced run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linear between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over pairs (parent[i], change[i]): both sides' quartiles, the
    change's wins (strictly better, so ties count for neither) and the gain rule."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change runs, at least one")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = sign * (pq[1] - cq[1])
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(parent),
            "median_gain": gain, "parent_iqr": pq[2] - pq[0],
            "gain_rule": wins >= GAIN_SHARE * len(parent) and gain > pq[2] - pq[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(roots[side], args.workload, args.seed, bench["run_seconds"])
            runs[side].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"pair {i} {side}: failed {result['failed']}/{result['attempted']} "
                  f"{json.dumps(values)}", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"{bench['run_seconds']} s runs")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        s = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]], metric["better"])
        quart = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {quart(s['parent'])}, change {quart(s['change'])}; "
              f"change wins {s['wins']}/{s['pairs']}; median gain {s['median_gain']:.6g} "
              f"against parent IQR {s['parent_iqr']:.6g}; gain rule "
              f"{'holds' if s['gain_rule'] else 'fails'}")
    for side, results in runs.items():
        print(f"{side} failed operations: {sum(r['failed'] for r in results)}"
              f"/{sum(r['attempted'] for r in results)} "
              f"(per run {[r['failed'] for r in results]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
