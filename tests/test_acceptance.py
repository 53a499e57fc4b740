"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured figure next to its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import math
import time

import numpy as np
import pytest

from hcps.cli import _validate_checks
from hcps.config import paper_preset
from hcps.gates import (
    GateOptions, calibrate_eta, controlled_minus_i_target, ideal_cp_target, synthesize_gate,
)
from hcps.hamiltonians import SystemParams, effective_rabi, h_eff, h_T
from hcps.hilbert import SLOT_SPIN, SpaceLayout, basis_state, build_spin_ops, identity
from hcps.open_system import (
    DecoherenceParams,
    DensityMatrix,
    collapse_ops,
    evolve_master,
    gate_fidelity_open,
    pure_dephasing_rate,
)
from hcps.propagation import PropagationSettings, evolve_propagator, frame_rotate
from hcps.gates import schedule_for_eta
from hcps.wei_norman import (
    closed_form_A,
    coefficients_closed_form,
    coefficients_oracle,
    commensurate_time,
    oracle_at_periods,
    oracle_grid,
)

PI = math.pi
TWO_PI = 2.0 * math.pi


def report(line: str):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def cfg():
    return paper_preset()


@pytest.fixture(scope="module")
def params(cfg):
    return cfg.system


# ----------------------------------------------------------------------
# 1. gate time reproduction
# ----------------------------------------------------------------------

def test_criterion_1_gate_time(params):
    t0 = time.perf_counter()
    comm = commensurate_time(params.omega, params.Delta, max_n=1)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    assert comm.n == 1
    assert comm.t == pytest.approx(2 * PI, rel=1e-14)
    assert abs(comm.t - 6.2832) < 0.05 * 6.2832
    assert elapsed_ms < 1.0
    report(f"1: PASS gate time {comm.t:.4f} ns (n={comm.n}, p={comm.p}) "
           f"in {elapsed_ms:.3f} ms")


# ----------------------------------------------------------------------
# 2. factorization oracle residual
# ----------------------------------------------------------------------

def _random_parameter_set(rng) -> SystemParams:
    omega = rng.uniform(0.7, 1.6)
    delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    g = rng.uniform(0.03, 0.3) * omega
    G = rng.uniform(0.03, 0.3) * abs(delta)
    return SystemParams(E_c=1.0, n_g=0.5, E_J0=TWO_PI * 2.2, flux_ratio=0.0,
                        D_gs=TWO_PI * 2.87, gamma_B=-TWO_PI * 2.87,
                        omega_r=omega - delta, Omega_mw=TWO_PI * 20.0,
                        omega=omega, g=g, G=G)


def test_criterion_2_factorization_residual(params):
    rng = np.random.default_rng(220260808)
    cases = [("paper preset", params, 1.9)]
    for k in range(5):
        p = _random_parameter_set(rng)
        t = rng.uniform(0.8, 1.6) * TWO_PI / p.omega
        cases.append((f"random set {k}", p, t))

    for label, p, t in cases:
        t0 = time.perf_counter()
        res = coefficients_oracle(p, t, 25)
        elapsed = time.perf_counter() - t0
        assert res.converged, label
        assert res.residual < 1e-5, (label, res.residual)
        assert elapsed < 30.0, (label, elapsed)
        report(f"2: PASS {label}: residual {res.residual:.2e} < 1e-5 at N=25 "
               f"({elapsed:.1f} s)")


# ----------------------------------------------------------------------
# 3. closed-form coefficient agreement and the A discrepancy
# ----------------------------------------------------------------------

def test_criterion_3_closed_form_agreement(params):
    settings = PropagationSettings(steps=4096, tolerance=3e-9, max_refinements=8)
    grids = {
        "charge only": params.replace(G=0.0),
        "spin only": params.replace(g=0.0),
        "full model": params,
    }
    worst = 0.0
    for label, p in grids.items():
        ts = np.linspace(0.25, 1.6 * TWO_PI, 50)
        rows = oracle_grid(p, ts, 10, settings=settings)
        for row in rows:
            want = coefficients_closed_form(p, row.t)
            worst = max(worst, abs(row.coeffs.B - want.B), abs(row.coeffs.C - want.C))
    assert worst < 1e-6
    report(f"3: PASS oracle B, C match closed forms on 50-point grids, "
           f"worst |diff| {worst:.2e} < 1e-6")

    comm = commensurate_time(params.omega, params.Delta, 4)
    fired = []
    for k in (1, 2, 3):
        a_closed = closed_form_A(params, k * comm.t)
        res = oracle_at_periods(params, comm, k, 10, settings=settings)
        assert a_closed == 0.0
        assert abs(res.coeffs.A) > 1e-3
        fired.append((k, res.coeffs.A))
    report("3: PASS closed-form A identically 0 at every commensurate time while "
           + "; ".join(f"A({k}T)={a:.4f}" for k, a in fired)
           + " (discrepancy report fires)")


def test_criterion_3_discrepancy_note_fires(params, cfg):
    rep = synthesize_gate(params, SpaceLayout(10), GateOptions(max_periods=8),
                          settings=PropagationSettings(steps=2048, tolerance=1e-8))
    codes = {n["code"] for n in rep.discrepancy_notes}
    assert "closed_form_A_vanishes" in codes
    report("3: PASS pipeline report carries the closed_form_A_vanishes note")


# ----------------------------------------------------------------------
# 4. gate construction
# ----------------------------------------------------------------------

def test_criterion_4_gate_construction(params):
    cal_cz = calibrate_eta(ideal_cp_target())
    off_cz = min(abs(cal_cz.eta_star - (PI / 4 + k * PI / 2)) for k in range(-2, 4))
    assert off_cz < 1e-6
    cal_mi = calibrate_eta(controlled_minus_i_target())
    off_mi = min(abs(cal_mi.eta_star - (PI / 8 + k * PI / 2)) for k in range(-2, 4))
    assert off_mi < 1e-6
    report(f"4: PASS calibrate_eta: CZ pattern -> eta* = {cal_cz.eta_star:.9f} "
           f"(pi/4 + k pi/2 to {off_cz:.1e}); -i pattern -> {cal_mi.eta_star:.9f} "
           f"(pi/8 + k pi/2 to {off_mi:.1e})")

    rep = synthesize_gate(params, SpaceLayout(20))
    assert rep.fidelity_avg >= 0.999
    assert rep.leakage < 1e-4
    report(f"4: PASS composed gate at N=20: fidelity {rep.fidelity_avg:.6f} >= 0.999, "
           f"leakage {rep.leakage:.2e} < 1e-4 "
           f"(eta_used {rep.eta_used:.6f}, {rep.schedule.periods} periods, "
           f"relabeling {rep.relabeling})")


# ----------------------------------------------------------------------
# 5. strong-driving elimination
# ----------------------------------------------------------------------

def _strong_driving_fidelities(params, ratio: float, layout: SpaceLayout,
                               u_eff: np.ndarray, states: np.ndarray,
                               t_gate: float) -> np.ndarray:
    scale = max(params.g, params.G, abs(params.Delta))
    omega_prime = ratio * scale
    p = params.replace(eps=omega_prime * params.Delta / params.G)
    assert effective_rabi(p) == pytest.approx(omega_prime)

    # step-doubled from 2 500 steps to 1e-10, far below the 1.7e-7 gap
    # between the mean infidelities at ratios 50 and 20; every ratio
    # converges at 5 000 steps
    res = evolve_propagator(lambda t: h_T(p, layout, t),
                            PropagationSettings(0.0, t_gate, 2500, 1e-10))
    assert res.converged, ratio
    rotated = frame_rotate(res.unitary, build_spin_ops(layout, SLOT_SPIN).x,
                           lambda t: omega_prime * t, t_gate)
    overlaps = np.sum(np.conj(u_eff @ states) * (rotated.entries @ states), axis=0)
    return np.abs(overlaps) ** 2


def test_criterion_5_strong_driving_elimination(params):
    layout = SpaceLayout(8)
    t_gate = TWO_PI / params.omega
    res = evolve_propagator(lambda t: h_eff(params, layout, t),
                            PropagationSettings(0.0, t_gate, 1024, 1e-8))
    u_eff, conv = res.unitary.entries, res.converged
    assert conv

    # qubit basis x {vacuum, one photon}
    states = []
    for s in range(2):
        for c in range(2):
            for k in range(2):
                states.append(basis_state(layout, s, c, k).amplitudes)
    states = np.array(states).T

    mean_fids = {}
    for ratio in (50.0, 20.0, 10.0, 5.0):
        fids = _strong_driving_fidelities(params, ratio, layout, u_eff, states, t_gate)
        mean_fids[ratio] = fids.mean()
        if ratio == 50.0:
            assert fids.min() >= 0.99
            report(f"5: PASS at ratio 50: worst state fidelity {fids.min():.8f} >= 0.99")

    assert mean_fids[50.0] > mean_fids[20.0] > mean_fids[10.0] > mean_fids[5.0]
    report("5: PASS agreement degrades monotonically: "
           + ", ".join(f"{r:g}x -> 1-F = {1 - f:.2e}" for r, f in mean_fids.items()))


# ----------------------------------------------------------------------
# 6. open-system sanity
# ----------------------------------------------------------------------

def test_criterion_6_dephasing_decay():
    t_phi_us = 1.0 / (pure_dephasing_rate(1.5, 2.05) * 1e3)
    assert t_phi_us == pytest.approx(6.4737, abs=2e-4)
    lay = SpaceLayout(2)
    dec = DecoherenceParams(T1_charge_us=math.inf, T2_charge_us=t_phi_us,
                            T2_spin_us=math.inf, T1_spin_us=math.inf)
    up = basis_state(lay, 0, 0, 0).amplitudes
    down = basis_state(lay, 0, 1, 0).amplitudes
    plus = (up + down) / math.sqrt(2.0)
    t = 6.283185307179586
    res = evolve_master(lambda _: 0.0 * identity(lay),
                        DensityMatrix(lay, np.outer(plus, plus.conj())),
                        collapse_ops(dec, lay),
                        PropagationSettings(0.0, t, 64, 1e-10, max_refinements=10))
    got = 2.0 * abs(res.rho.entries[0, lay.index(0, 1, 0)])
    want = math.exp(-t / (t_phi_us * 1e3))
    rel = abs(got - want) / want
    assert rel < 1e-6
    report(f"6: PASS dephasing factor {got:.9f} vs exp(-t/T_phi) = {want:.9f} "
           f"(T_phi = {t_phi_us:.4f} us, rel err {rel:.1e} < 1e-6)")


def test_criterion_6_gate_fidelity_loss(params, cfg):
    comm = commensurate_time(params.omega, params.Delta, 4)
    oracle = oracle_at_periods(params, comm, 1, 8,
                               settings=PropagationSettings(steps=2048, tolerance=1e-8))
    schedule = schedule_for_eta(params, oracle.coeffs.A, comm, 1)
    res = gate_fidelity_open(params, schedule, cfg.decoherence, SpaceLayout(8),
                             settings=PropagationSettings(steps=64, tolerance=1e-7,
                                                          max_refinements=10))
    assert res.converged
    assert 0.0 < res.fidelity_loss < 0.01
    report(f"6: PASS one-period sequence fidelity loss {res.fidelity_loss:.3e} < 1% over "
           f"{schedule.tau1 + schedule.tau2 + schedule.t_int:.3f} ns at the quoted rates")


# ----------------------------------------------------------------------
# 7. invariant suite
# ----------------------------------------------------------------------

def test_criterion_7_validate_passes(cfg):
    results = list(_validate_checks(cfg))
    for name, ok, metric in results:
        assert ok, (name, metric)
        report(f"7: PASS validate[{name}]: {metric}")
    names = {name for name, _, _ in results}
    assert {"hamiltonians hermitian", "propagator unitary", "pulse unitaries commute",
            "fock-cutoff doubling stable"} <= names
