#!/usr/bin/env python3
"""Record the benchmark of one hcps checkout as BENCH_<label>.json.

    python3 bench/record.py <checkout root> <label> [--out DIR]

Runs <root>/perfbench/run.py on every workload at the benchmark's run
length, once untraced (the end-to-end metrics, corrected for the machine's
speed) and once traced (the per-layer counts and times), strictly one
process after another: two numpy processes at once slow each other on a
small machine.  The record holds the environment of the first run, the
commit and source digest of the checkout, the run length declared in
<root>/BENCHMARK.json, and per workload the end-to-end metrics, the
per-layer metrics and the operation counts of both runs, plus the measured
(uncorrected) wall_s median read back from the untraced run's output
file.  It then times once each run of compare_outputs.RUNS (every CLI
command on paper_preset, and `gate --trajectory` under the key
gate_trajectory) through compare_outputs.run_cli, again one process at a
time, with the checkout's src/ on PYTHONPATH, a scratch output directory
and OPENBLAS_NUM_THREADS=1.  These CLI timings are single-threaded, so they
do not compare with the cli_paper_preset figures of the earlier BENCH_*.json
records, which ran at the default BLAS thread count.  The record is written
to --out (default: the root of the repository holding this script).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from compare_outputs import RUNS, run_cli

WORKLOADS = ("gate_preset", "oracle_random", "open_gate_period", "fullspace_period")
REPO_ROOT = Path(__file__).resolve().parent.parent


def run_workload(root: Path, workload: str, trace: int) -> tuple[dict, dict]:
    """(environment, result) from the last two lines of one run.py run."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line)["environment"], json.loads(result_line)


def measured_wall_s(root: Path, workload: str, seed: int) -> float:
    """Median over cycles of the summed raw operation times of the untraced run.

    The same formula as run.py's corrected wall_s, applied to op_s instead
    of op_corrected_s, so the machine's speed is not divided out.
    """
    path = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return statistics.median(sum(cycle) for cycle in json.loads(path.read_text())["op_s"])


def time_cli(root: Path, args: list[str]) -> dict:
    """Wall seconds and exit code of one compare_outputs.run_cli."""
    with tempfile.TemporaryDirectory() as out_dir:
        start = time.perf_counter()
        code, _ = run_cli(root, args, Path(out_dir))
        wall = time.perf_counter() - start
    return {"wall_s": wall, "exit_code": code}


def source_modified(root: Path) -> bool | None:
    """Whether src/ differs from the recorded commit; None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                         capture_output=True, text=True, check=True)
    return bool(out.stdout.strip())


def record(root: Path, label: str) -> dict:
    run_seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"label": label, "run_seconds": run_seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "layers")):
            env, result = run_workload(root, workload, trace)
            out.setdefault("environment", env)
            entry[key] = {name: m["value"] for name, m in result["metrics"].items()}
            entry[f"{key}_ops"] = {k: result[k] for k in ("correct", "attempted", "failed")}
            print(f"{workload} trace={trace}: {json.dumps(entry[key])}", file=sys.stderr)
        entry["measured_wall_s"] = measured_wall_s(root, workload, out["environment"]["seed"])
        out["workloads"][workload] = entry
    out["cli_paper_preset"] = {}
    for key, args in RUNS.items():
        out["cli_paper_preset"][key] = time_cli(root, args)
        print(f"hcps {' '.join(args)}: {json.dumps(out['cli_paper_preset'][key])}",
              file=sys.stderr)
    env = out["environment"]
    out["commit"] = env["git_commit"]
    out["source_sha256"] = env["source_sha256"]
    out["source_modified"] = source_modified(root)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="root of the hcps checkout to measure")
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=REPO_ROOT, help="directory for the record")
    args = parser.parse_args(argv)
    rec = record(args.root.resolve(), args.label)
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
