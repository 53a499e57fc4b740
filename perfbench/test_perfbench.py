"""Tests of the benchmark itself: input generation, every correctness check
(each must be able to fail), failure accounting and the tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

All cases are small; none runs a workload at its benchmark size.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hcps.cli  # noqa: E402,F401
from hcps import gates, hilbert, wei_norman  # noqa: E402

import gauge  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

def test_same_seed_same_draws():
    assert wl.oracle_draws(12345) == wl.oracle_draws(12345)


def test_other_seed_other_draws():
    a, b = wl.oracle_draws(12345), wl.oracle_draws(12346)
    assert all(x != y for x, y in zip(a, b))


def test_criterion_2_draws_are_reproduced():
    """The re-implemented sampler consumes the seed as the acceptance suite does."""
    import numpy as np

    rng = np.random.default_rng(220260808)
    draws = [wl.random_parameter_draw(rng) for _ in range(5)]
    assert draws[3].omega == 1.22881613139091
    assert draws[3].t == pytest.approx(7.226626178722458, rel=1e-15)
    assert draws[3].g == pytest.approx(0.16909176556801714, rel=1e-15)


@pytest.mark.parametrize("seed", [wl.DEFAULT_SEED, wl.HELD_OUT_SEED, 1, 2, 3])
def test_draws_stay_in_their_anchor_box_and_the_support(seed):
    draws = wl.oracle_draws(seed)
    anchors = [wl.to_draw(c) for _, c in wl.oracle_anchors()]
    assert len(draws) == len(anchors) == 1
    for d, a in zip(draws, anchors):
        for name in ("omega", "Delta", "t"):
            assert abs(getattr(d, name) / getattr(a, name) - 1.0) <= 2.1 * wl.BOX
        assert 0.7 <= d.omega <= 1.6 and 0.5 <= abs(d.Delta) <= 1.5
        assert 0.03 * d.omega <= d.g <= 0.3 * d.omega
        assert 0.03 * abs(d.Delta) <= d.G <= 0.3 * abs(d.Delta)
        assert 0.8 <= d.t * d.omega / wl.TWO_PI <= 1.6


# ----------------------------------------------------------------------
# gate_preset checks
# ----------------------------------------------------------------------

def _good_report(ref=wl.GateReference()):
    return {
        "fidelity_avg": ref.fidelity_avg, "phase_distance": 0.01, "leakage": 2e-10,
        "eta_used": ref.eta_used, "eta_paper": math.pi / 8, "gate_time_ns": ref.gate_time_ns,
        "relabeling": "identity",
        "discrepancy_notes": [{"code": c, "detail": ""} for c in wl.GATE_NOTES],
    }


def test_gate_check_passes_on_reference():
    assert wl.check_gate((0, _good_report())) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(eta_used=r["eta_used"] + 1e-5),
    lambda r: r.update(fidelity_avg=r["fidelity_avg"] - 2e-6),
    lambda r: r.update(gate_time_ns=r["gate_time_ns"] + 1e-3),
    lambda r: r.update(leakage=1e-3),
    lambda r: r.pop("relabeling"),
    lambda r: r.update(extra=1),
    lambda r: r.update(discrepancy_notes=r["discrepancy_notes"][:1]),
    lambda r: r.update(discrepancy_notes=r["discrepancy_notes"][1:]),
])
def test_gate_check_fails_on_bad_report(mutate):
    report = _good_report()
    mutate(report)
    assert wl.check_gate((0, report))


def test_gate_check_fails_on_low_fidelity_and_exit_code():
    ref = wl.GateReference(fidelity_avg=0.99, pin_tol=1.0)
    report = _good_report(ref)
    assert wl.check_gate((0, report), ref)           # below fidelity_min 0.999
    assert wl.check_gate((2, _good_report()))
    assert wl.check_gate((1, None))


def test_gate_check_fails_on_wrong_pin():
    wrong = wl.GateReference(eta_used=2.366309738878656)   # sign flipped
    assert wl.check_gate((0, _good_report()), wrong)


# ----------------------------------------------------------------------
# oracle_random checks
# ----------------------------------------------------------------------

def test_oracle_check_fires_on_inadequate_cutoff():
    """At N = 6 the trusted-window residual flag fires on a benchmark draw."""
    d = wl.oracle_draws(wl.DEFAULT_SEED)[0]
    res = wei_norman.coefficients_oracle(wl.system_params(d), d.t, 6)
    assert res.converged
    failures = wl.check_oracle(res)
    assert failures and "residual" in failures[0]


def test_oracle_check_passes_and_fails_on_synthetic_results():
    good = SimpleNamespace(converged=True, residual=1e-11, steps_used=32768)
    assert wl.check_oracle(good) == []
    assert wl.check_oracle(SimpleNamespace(converged=False, residual=1e-11, steps_used=8))
    assert wl.check_oracle(SimpleNamespace(converged=True, residual=2e-5, steps_used=8))


# ----------------------------------------------------------------------
# open_gate_period checks
# ----------------------------------------------------------------------

def _open(fidelity, trace_defect=1e-12, converged=True):
    return SimpleNamespace(fidelity_avg=fidelity, fidelity_loss=1.0 - fidelity,
                           trace_defect=trace_defect, converged=converged)


def test_open_check_passes_on_reference():
    assert wl.check_open(_open(1.0), 0.0) == []
    assert wl.check_open(_open(1.0 - wl.OPEN_LOSS_SCALE1), 1.0) == []


@pytest.mark.parametrize("result,scale", [
    (_open(1.0 - 1e-8), 0.0),                            # closed twin broken
    (_open(1.0 - wl.OPEN_LOSS_SCALE1 - 2e-6), 1.0),      # loss moved
    (_open(1.0, trace_defect=1e-5), 0.0),
    (_open(1.0, converged=False), 0.0),
])
def test_open_check_fails_on_bad_result(result, scale):
    assert wl.check_open(result, scale)


# ----------------------------------------------------------------------
# fullspace_period checks
# ----------------------------------------------------------------------

def _propagator(unitary, defect=1e-14, converged=True):
    return SimpleNamespace(unitary=unitary, unitarity_defect=defect, converged=converged,
                           steps_used=4096)


def test_cross_phase_of_a_pure_joint_rotation():
    """exp(-i A Sx sx) has dressed cross phase -A and no vacuum leakage."""
    layout = hilbert.SpaceLayout(4)
    leakage, cross = wl.vacuum_cross_phase(gates.u3(-0.05, layout))
    assert leakage < 1e-14
    assert cross == pytest.approx(0.05, abs=1e-14)


def test_fullspace_check_passes_and_fails():
    layout = hilbert.SpaceLayout(4)
    u = gates.u3(-0.05, layout)
    assert wl.check_fullspace(_propagator(u), 0.05) == []
    assert wl.check_fullspace(_propagator(u), 0.05 + 2e-6)          # wrong phase
    assert wl.check_fullspace(_propagator(u, defect=1e-8), 0.05)    # not unitary
    assert wl.check_fullspace(_propagator(u, converged=False), 0.05)
    a = hilbert.build_annihilation(layout).entries
    leaky = hilbert.Operator(layout, hilbert.expm_matrix(a.conj().T - a, 0.1) @ u.entries)
    failures = wl.check_fullspace(_propagator(leaky), 0.05)
    assert any("leakage" in f for f in failures)


def test_expected_cross_phase_of_the_preset():
    params = hcps.config.paper_preset().system
    assert wl.expected_cross_phase(params) == pytest.approx(0.05377976678, abs=1e-10)


# ----------------------------------------------------------------------
# failure accounting, tracing, refusal outside a checkout
# ----------------------------------------------------------------------

def test_failed_operations_are_counted_not_raised():
    def boom():
        raise RuntimeError("boom")

    ops = [wl.Operation("ok", lambda: 1, lambda r: []),
           wl.Operation("bad check", lambda: 1, lambda r: ["wrong"]),
           wl.Operation("raises", boom, lambda r: []),
           wl.Operation("check raises", lambda: 1, lambda r: 1 / 0)]
    out = bench_run.run_cycles(ops, seconds=0.0, timer=gauge.Stopwatch())
    assert out["attempted"] == 4 and out["failed"] == 3
    assert [f["op"] for f in out["failures"]] == ["bad check", "raises", "check raises"]
    assert len(out["cycles"][0]) == len(out["corrected"][0]) == 4


# ----------------------------------------------------------------------
# machine-speed gauge
# ----------------------------------------------------------------------

def test_sampler_splits_an_operation_and_excludes_its_own_time():
    sampler = gauge.Sampler(interval=0.2)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 1.0:   # busy, so SIGALRM is served at once
            pass
    elapsed = time.perf_counter() - t0
    during = len(sampler.factors) - 2           # one before, one at the end
    assert during >= 2
    assert all(0.05 < f < 20.0 for f in sampler.factors)
    assert 0.3 < sampler.raw_s < elapsed - 0.01 * during   # the gauge's own time is left out
    assert sampler.corrected_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_corrected_time_divides_each_stretch_by_its_speed(monkeypatch):
    factors = iter([1.0, 2.0, 2.0, 4.0])
    monkeypatch.setattr(gauge, "speed_factor", lambda: next(factors))
    clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 5.0, 5.0])
    monkeypatch.setattr(gauge, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    sampler = gauge.Sampler(interval=100.0)
    with sampler:
        sampler._sample()                         # stretches of 1 s and 2 s, then 2 s at exit
        sampler._sample()
    assert sampler.raw_s == 5.0
    assert sampler.corrected_s == pytest.approx(1.0 / 1.5 + 2.0 / 2.0 + 2.0 / 3.0)


def test_tracer_counts_exactly_and_restores():
    params = hcps.config.paper_preset().system
    layout = hilbert.SpaceLayout(3)
    original = wei_norman.coefficients_oracle
    original_joint = wei_norman.joint_step_unitaries
    original_periods = wei_norman.oracle_at_periods
    tracer = Tracer()
    tracer.install()
    try:
        assert hcps.open_system.joint_step_unitaries is not original_joint
        assert hcps.gates.oracle_at_periods is not original_periods
        assert hcps.cli.oracle_at_periods is hcps.gates.oracle_at_periods
        res = wei_norman.coefficients_oracle(params, 0.5, 3)
        steps = list(hcps.open_system.joint_step_unitaries(params, layout, 0.5, 7))
    finally:
        tracer.uninstall()
    assert wei_norman.coefficients_oracle is original
    assert hcps.gates.oracle_at_periods is wei_norman.oracle_at_periods
    m = tracer.layer_metrics(cpu_s=1.0, wall_s=1.0, overhead_s=0.0)
    assert m["wei_norman.oracle_calls"]["value"] == 1
    assert m["wei_norman.grid_steps"]["value"] == res.steps_used
    assert m["wei_norman.factorized_calls"]["value"] == 1
    assert m["wei_norman.joint_steps"]["value"] == len(steps) == 7
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)


def test_a_propagation_that_skips_the_kernel_is_not_a_pass():
    """A cached base-window propagation reads 0 passes and 0 grid steps."""
    tracer = Tracer()
    kernel = tracer.wrap_kernel(lambda: None)

    def fresh():
        kernel()
        return {}, True, 65536

    propagate, replay = tracer.wrap_pass(fresh), tracer.wrap_pass(lambda: ({}, True, 65536))
    synthesize = tracer.wrap("gates.synthesize", lambda: (propagate(), replay()))
    synthesize()
    propagate()                                   # outside any gate: not a base pass
    m = tracer.layer_metrics(cpu_s=1.0, wall_s=1.0, overhead_s=0.0)
    assert m["wei_norman.base_period_passes"]["value"] == 1
    assert m["wei_norman.grid_steps"]["value"] == 2 * 65536


def test_environment_record_names_what_timings_depend_on(tmp_path):
    from envinfo import environment_record

    env = environment_record(tmp_path, 7)        # not a git checkout
    assert env["git_commit"] == "unknown" and env["seed"] == 7
    for key in ("python", "numpy", "scipy", "blas_build", "blas_runtime", "blas_thread_env",
                "nproc"):
        assert env[key] is not None
    assert all("threads" in lib for lib in env["blas_runtime"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_random",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    from tracer import LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb",
                                                       "op_max_s"}
