#!/usr/bin/env python3
"""Benchmark of the hcps package, end to end and layer by layer.

Run from the root of a checkout (the package is imported from ./src,
never from an installed copy):

    python3 perfbench/run.py --workload gate_preset --seed 1 --seconds 20 --trace 0

Workloads are listed in perfbench/workloads.py and perfbench/README.md.
Each is a closed loop: one process, one client, operations issued back to
back.  Whole cycles of the workload's operations run until the next cycle
would end after --seconds (at least one cycle runs).  Every operation is
checked against pinned references; a failed check or an exception counts
as a failed operation and the run goes on.

The end-to-end times are corrected for the machine's speed: the gauge
(perfbench/gauge.py) samples it every 1.5 s during every operation and
set-up, and each stretch of measured time is divided by the speed factor
around it, giving seconds at the gauge's reference speed.  The measured
times are kept in the full record.  Traced runs run no gauge.

With --trace 0 the last line of standard output is the end-to-end result;
with --trace 1 the same run is made with spans around every call into the
package, and the last line carries the per-layer metrics instead.  The
line before it is the environment record.  A full record (environment,
per-operation times, failures, and in traced runs the per-layer table and
the spans) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


class SetupError(RuntimeError):
    """The package under test cannot be imported from the checkout."""


def import_package():
    """Import hcps from ./src of this checkout, refusing any other copy."""
    if not (SRC / "hcps" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'hcps'}; run from the root of an hcps checkout")
    sys.path.insert(0, str(SRC))
    import hcps
    import hcps.cli  # noqa: F401  (imports every module the workloads call)

    if not Path(hcps.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported hcps from {hcps.__file__}, not from {SRC}")


SETUP_SAMPLES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import hcps.cli; print(time.perf_counter() - t0)")


def fresh_import_s() -> float:
    """Time to import the package in a fresh interpreter, as this process did."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def timed_setup(workload: str, seed: int, tracer=None) -> tuple[dict, list, object]:
    """Set up SETUP_SAMPLES times: import, config load and input generation.

    Returns the set-up record, the operations of the last sample and the
    timer for the cycles.  The first sample imports in this process, the
    others in a fresh interpreter each; every sample then loads the config
    and generates the inputs here.  A sample is corrected by the gauge:
    its import by the speed factor read after its generation, its
    generation by the samples taken during it.  A traced run sets up once
    and runs no gauge, so that its counts and its CPU time are those of
    the workload alone.
    """
    t0 = time.perf_counter()
    import_package()
    import_s = time.perf_counter() - t0
    from gauge import Sampler, Stopwatch  # after the timed import: it imports numpy

    timer = Stopwatch() if tracer else Sampler()
    if tracer is not None:
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    imports, samples, corrected = [], [], []
    for i in range(1 if tracer else SETUP_SAMPLES):
        imports.append(import_s if i == 0 else fresh_import_s())
        with timer:
            ops = WORKLOADS[workload](seed, OUT_DIR)
        factor = timer.factors[-1] if timer.factors else 1.0
        samples.append(imports[-1] + timer.raw_s)
        corrected.append(imports[-1] / factor + timer.corrected_s)
    setup = {"import_s": imports, "samples_s": samples, "corrected_s": corrected,
             "setup_s": statistics.median(corrected)}
    return setup, ops, timer


def run_cycles(ops: list, seconds: float, timer) -> dict:
    """Closed loop over whole cycles; returns timings and check outcomes.

    timer (a gauge.Sampler, or a gauge.Stopwatch in traced runs) times
    each operation, measured and corrected for the machine's speed.
    """
    cycles, corrected, failures, figures = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        times, fixed = [], []
        for op in ops:
            attempted += 1
            try:
                with timer:
                    result = op.run()
            except Exception:  # an operation that raises is a failed operation
                problems = ["raised: " + traceback.format_exc(limit=3)]
            else:
                problems = None
            times.append(timer.raw_s)
            fixed.append(timer.corrected_s)
            if problems is None:
                try:
                    problems = op.check(result)
                    figures.append({"op": op.label, "cycle": len(cycles), **op.figures(result)})
                except Exception:  # a check that cannot evaluate fails the operation
                    problems = ["check raised: " + traceback.format_exc(limit=3)]
            if problems:
                failed += 1
                failures.append({"op": op.label, "cycle": len(cycles), "problems": problems})
                print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)
        cycles.append(times)
        corrected.append(fixed)
        elapsed = time.perf_counter() - start
        mean_cycle = elapsed / len(cycles)
        if elapsed + mean_cycle > seconds:
            break
    return {"cycles": cycles, "corrected": corrected, "speed_factors": list(timer.factors),
            "labels": [op.label for op in ops], "attempted": attempted,
            "failed": failed, "failures": failures, "figures": figures}


def end_to_end_metrics(outcome: dict, setup: dict) -> dict:
    """wall_s, setup_s, peak_rss_mb and op_max_s; times corrected by the gauge."""
    per_op = list(zip(*outcome["corrected"]))      # one tuple of cycles per operation
    return {
        "wall_s": {"value": statistics.median(sum(c) for c in outcome["corrected"]),
                   "unit": "s"},
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "op_max_s": {"value": max(statistics.median(times) for times in per_op), "unit": "s"},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        return run(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    from tracer import Tracer, span_cost_s
    from envinfo import environment_record

    tracer = Tracer() if args.trace else None
    setup, ops, timer = timed_setup(args.workload, args.seed, tracer)
    env = environment_record(ROOT, args.seed)

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        outcome = run_cycles(ops, args.seconds, timer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_wall = time.perf_counter() - wall0
    run_cpu = time.process_time() - cpu0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": setup,
        "op_labels": outcome["labels"], "op_s": outcome["cycles"],
        "op_corrected_s": outcome["corrected"], "speed_factors": outcome["speed_factors"],
        "failures": outcome["failures"], "figures": outcome["figures"],
    }
    if args.trace:
        overhead = span_cost_s() * len(tracer.spans)
        metrics = tracer.layer_metrics(cpu_s=run_cpu, wall_s=run_wall, overhead_s=overhead)
        record["layer_table"] = tracer.layer_table()
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(
            [[s.name, s.start - wall0, s.end - wall0, s.parent] for s in tracer.spans]))
    else:
        metrics = end_to_end_metrics(outcome, setup)
    record["metrics"] = metrics
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    result = {"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
              "failed": outcome["failed"], "metrics": metrics}
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
