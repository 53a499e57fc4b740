import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hcps.gates import (
    GateOptions,
    PulseSchedule,
    ScheduleConditionError,
    calibrate_eta,
    compose_sequence,
    controlled_minus_i_target,
    dressed_basis,
    duration_for_phase,
    eq_phase_form,
    gate_fidelity,
    ideal_cp_target,
    phase_distance,
    relabel_corners,
    schedule_for_eta,
    synthesize_gate,
    u1,
    u2,
    u3,
    vacuum_block,
    wrap_angle,
)
from hcps.hilbert import (
    SLOT_CHARGE, SLOT_SPIN, SpaceLayout, build_spin_ops, commutator, identity, unitarity_defect,
)
from hcps.propagation import PropagationSettings
from hcps.wei_norman import (
    QUBIT_HADAMARD, CommensurateTime, commensurate_time, oracle_at_periods,
)

from test_hamiltonians import make_params

TWO_PI = 2.0 * math.pi
PI = math.pi


# ----------------------------------------------------------------------
# elementary unitaries
# ----------------------------------------------------------------------

def test_u1_zero_angle():
    lay = SpaceLayout(2)
    assert (u1(0.0, 1.0, lay) - identity(lay)).norm_max() < 1e-15


def test_u1_quarter_turn_is_i_sigma_x():
    lay = SpaceLayout(2)
    zeta, tau = 1.0, PI        # zeta*tau/2 = pi/2
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    assert (u1(zeta, tau, lay) - 1j * sx).norm_max() < 1e-13


def test_u1_duration_for_pi_quarter_phase():
    # zeta*tau/2 = pi/4 at the 2.2 GHz-scale Josephson energy
    zeta = TWO_PI * 2.2
    tau = duration_for_phase(zeta, PI / 4)
    assert tau == pytest.approx(PI / (2 * zeta), rel=1e-12)
    assert tau == pytest.approx(0.113636, rel=1e-4)


def test_u2_duration_for_pi_quarter_phase():
    # |xi|*tau/2 = pi/4 at the 20 GHz-scale microwave Rabi rate; the smallest
    # positive duration with the negative rate wraps a full phase period
    xi = -TWO_PI * 20.0
    tau_mag = PI / (2 * abs(xi))
    assert tau_mag == pytest.approx(0.0125, rel=1e-10)
    tau = duration_for_phase(xi, PI / 4)
    assert tau > 0
    assert abs(wrap_angle(xi * tau / 2 - PI / 4)) < 1e-12


def test_u2_inverse_rotations_cancel():
    lay = SpaceLayout(2)
    prod = u2(1.7, 0.9, lay) @ u2(-1.7, 0.9, lay)
    assert (prod - identity(lay)).norm_max() < 1e-13


def test_u3_eigenphases_follow_sign_pattern():
    lay = SpaceLayout(2)
    block, _ = vacuum_block(u3(PI / 4, lay))
    v = dressed_basis()
    dressed = v.conj().T @ block @ v
    want = np.diag(np.exp(-1j * PI / 4 * np.array([1.0, -1.0, -1.0, 1.0])))
    assert np.abs(dressed - want).max() < 1e-13


def test_u3_shift_by_pi_is_global_sign():
    lay = SpaceLayout(2)
    for a in (0.61, 0.3, -1.1, 2.0):
        assert (u3(a + PI, lay) + u3(a, lay)).norm_max() < 1e-13
        b1, _ = vacuum_block(u3(a + PI, lay))
        b2, _ = vacuum_block(u3(a, lay))
        assert phase_distance(b1, b2) < 1e-14


def test_pulse_unitaries_mutually_commute():
    lay = SpaceLayout(3)
    ops = (u1(1.3, 0.4, lay), u2(-2.2, 0.7, lay), u3(0.5, lay))
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert commutator(a, b).norm_max() < 1e-12
    # each closed form is the exponential of its generator, at any angle
    sx = build_spin_ops(lay, SLOT_CHARGE).x.entries
    Sx = build_spin_ops(lay, SLOT_SPIN).x.entries
    for angle in (-7.3, 0.0, 0.37, TWO_PI + 0.1, 40.0):
        for got, generator in ((u1(2.0, angle, lay), sx), (u2(2.0, angle, lay), Sx),
                               (u3(-angle, lay), Sx @ sx)):
            want = scipy.linalg.expm(1j * angle * generator)
            assert np.abs(got.entries - want).max() < 1e-13
            assert unitarity_defect(got.entries) < 1e-14


# ----------------------------------------------------------------------
# dressed basis and ideal forms
# ----------------------------------------------------------------------

def test_dressed_basis_is_real_orthogonal():
    # entries are exactly +-1/2, so the Hadamard and the basis are orthogonal exactly
    v = dressed_basis()
    assert np.abs(v.imag).max() == 0.0
    assert np.array_equal(v.conj().T @ v, np.eye(4))
    assert np.array_equal(QUBIT_HADAMARD @ QUBIT_HADAMARD, np.eye(4))


def test_dressed_basis_diagonalizes_x_operators():
    lay = SpaceLayout(2)
    v = dressed_basis()
    Sx_block, _ = vacuum_block(build_spin_ops(lay, SLOT_SPIN).x)
    sxSx_block, _ = vacuum_block(
        build_spin_ops(lay, SLOT_SPIN).x @ build_spin_ops(lay, SLOT_CHARGE).x)
    got_spin = v.conj().T @ Sx_block @ v
    got_joint = v.conj().T @ sxSx_block @ v
    np.testing.assert_allclose(np.diag(got_spin), [-1, -1, 1, 1], atol=1e-14)
    np.testing.assert_allclose(np.diag(got_joint), [1, -1, -1, 1], atol=1e-14)


def test_eq_phase_form_spectrum_invariant():
    rng = np.random.default_rng(9)
    for eta in rng.uniform(0, PI, size=8):
        got = np.sort_complex(np.diag(eq_phase_form(eta)))
        want = np.sort_complex(np.exp(1j * eta * np.array([-3.0, 1.0, 1.0, 1.0])))
        assert np.abs(got - want).max() < 1e-14


# ----------------------------------------------------------------------
# fidelity and distance
# ----------------------------------------------------------------------

def test_gate_fidelity_self_is_one():
    u = eq_phase_form(0.3)
    assert gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-14)


def test_gate_fidelity_cz_vs_identity():
    # trace of the product is 2, so (|2|^2 + 4)/20
    assert gate_fidelity(ideal_cp_target(), np.eye(4)) == pytest.approx(0.4, abs=1e-14)


def test_gate_fidelity_global_phase_invariant():
    u = eq_phase_form(0.77)
    assert gate_fidelity(np.exp(1.9j) * u, u) == pytest.approx(1.0, abs=1e-14)


def test_gate_fidelity_rejects_non_unitary():
    with pytest.raises(ValueError):
        gate_fidelity(np.diag([1.0, 1.0, 1.0, 0.5]), np.eye(4))


def test_phase_distance_zero_iff_phase_equivalent():
    u = eq_phase_form(0.5)
    assert phase_distance(np.exp(0.4j) * u, u) < 1e-14
    assert phase_distance(eq_phase_form(0.8), u) > 0.1


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
def test_phase_distance_resolves_small_angles(eps):
    # min over phi of ||diag(e^{i eps}, 1, 1, 1) - e^{i phi}|| = eps sqrt(3)/2 to
    # first order; sqrt(2d - 2|Tr|) cancels to 0 at eps = 1e-9
    got = phase_distance(np.diag(np.exp(1j * np.array([eps, 0.0, 0.0, 0.0]))), np.eye(4))
    assert got == pytest.approx(eps * math.sqrt(3.0) / 2.0, rel=1e-6)


# ----------------------------------------------------------------------
# eta calibration
# ----------------------------------------------------------------------

def test_calibrate_eta_cz_pattern():
    cal = calibrate_eta(ideal_cp_target())
    off = min(abs(cal.eta_star - (PI / 4 + k * PI / 2)) for k in range(-1, 3))
    assert off < 1e-6
    assert cal.fidelity_star == pytest.approx(1.0, abs=1e-10)
    assert cal.eta_paper == pytest.approx(PI / 8)
    assert cal.fidelity_paper == pytest.approx(0.7, abs=1e-12)


def test_calibrate_eta_minus_i_pattern():
    cal = calibrate_eta(controlled_minus_i_target())
    off = min(abs(cal.eta_star - (PI / 8 + k * PI / 2)) for k in range(-1, 3))
    assert off < 1e-6
    assert cal.fidelity_star == pytest.approx(1.0, abs=1e-10)
    assert cal.fidelity_paper == pytest.approx(1.0, abs=1e-10)


def test_calibrated_eta_is_local_maximum():
    cal = calibrate_eta(ideal_cp_target())

    def score(eta):
        u = eq_phase_form(eta)
        return max(gate_fidelity(u, ideal_cp_target()),
                   gate_fidelity(relabel_corners(u), ideal_cp_target()))

    assert score(cal.eta_star) > score(cal.eta_star + 1e-3)
    assert score(cal.eta_star) > score(cal.eta_star - 1e-3)


def test_calibrate_eta_cz_is_exactly_quarter_pi():
    assert calibrate_eta(ideal_cp_target()).eta_star == pytest.approx(PI / 4, abs=1e-12)


# ideal forms over one period (pi/2) of the ideal-form score; a grid point
# lies within 4e-5 of any eta, which bounds the score lost to 1e-8
SCAN_FORMS = np.stack([eq_phase_form(e) for e in np.linspace(0.0, PI / 2, 20001)])
SCAN_RESOLUTION = 1e-8


def _scan_best(target: np.ndarray) -> dict:
    """Best ideal-form fidelity per corner choice over a fine eta grid."""
    best = {}
    for label, us in (("identity", SCAN_FORMS), ("swap_ge", relabel_corners(SCAN_FORMS))):
        tr = np.einsum("ji,kji->k", target.conj(), us)
        best[label] = float(((np.abs(tr) ** 2 + 4) / 20).max())
    return best


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=TWO_PI), min_size=4, max_size=4))
def test_calibrate_eta_closed_form_matches_brute_force_scan(angles):
    target = np.diag(np.exp(1j * np.array(angles)))
    cal = calibrate_eta(target)
    best = _scan_best(target)
    assert cal.fidelity_star >= max(best.values()) - 1e-12
    if abs(best["swap_ge"] - best["identity"]) > SCAN_RESOLUTION:
        assert cal.relabeling == max(best, key=best.get)


def test_eta_quarter_pi_gives_cz_up_to_relabeling():
    u = relabel_corners(eq_phase_form(PI / 4))
    assert gate_fidelity(u, ideal_cp_target()) == pytest.approx(1.0, abs=1e-12)
    assert phase_distance(u, ideal_cp_target()) < 1e-7


def test_eta_eighth_pi_gives_minus_i_corner():
    u = relabel_corners(eq_phase_form(PI / 8))
    phases = np.diag(u / u[0, 0])
    assert abs(phases[3] - (-1j)) < 1e-12
    assert gate_fidelity(u, ideal_cp_target()) == pytest.approx(0.7, abs=1e-12)


# ----------------------------------------------------------------------
# schedules and composition
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [("target", "bogus"), ("max_n", 0),
                                          ("max_periods", 0)])
def test_gate_options_reject_a_bad_field_naming_it(field, value):
    with pytest.raises(ValueError, match=field):
        GateOptions(**{field: value})


FAST = PropagationSettings(steps=2048, tolerance=1e-8, max_refinements=8)


@pytest.fixture(scope="module")
def preset_gate_report(preset_params):
    return synthesize_gate(preset_params, SpaceLayout(8), GateOptions(max_periods=48),
                           settings=FAST)


def test_schedule_requires_positive_durations():
    window = CommensurateTime(t=1.0, n=1, p=1)
    with pytest.raises(ValueError):
        PulseSchedule(tau1=0.0, tau2=1.0, eta=0.1, window=window)
    with pytest.raises(ValueError, match="periods"):
        PulseSchedule(tau1=1.0, tau2=1.0, eta=0.1, window=window, periods=0)


def test_schedule_for_eta_solves_phase_congruences(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    for eta in (0.3, -0.8, 2.9):
        s = schedule_for_eta(preset_params, eta, comm, periods=3)
        assert abs(wrap_angle(preset_params.zeta * s.tau1 / 2 - eta)) < 1e-12
        assert abs(wrap_angle(preset_params.xi * s.tau2 / 2 - eta)) < 1e-12
        assert s.t_int == pytest.approx(3 * comm.t)
        assert (s.window, s.periods) == (comm, 3)


def test_synthesized_gate_hits_cz_target(preset_gate_report):
    rep = preset_gate_report
    assert rep.fidelity_avg >= 0.999
    assert rep.leakage < 1e-6
    assert rep.top_level_population < 1e-8
    assert rep.relabeling in ("identity", "swap_ge")
    # dressed matrix diagonal when the conditions hold
    off = rep.synthesized - np.diag(np.diag(rep.synthesized))
    assert np.abs(off).max() < 1e-6
    # eigenphase pattern: one special corner against three equal phases
    phases = np.diag(rep.synthesized / rep.synthesized[1, 1])
    assert abs(phases[1] - 1) < 1e-6 and abs(phases[2] - 1) < 1e-6


def test_synthesized_gate_reports_both_discrepancies(preset_gate_report):
    codes = {n["code"] for n in preset_gate_report.discrepancy_notes}
    assert "closed_form_A_vanishes" in codes
    assert "quoted_eta_misses_target" in codes


def test_synthesized_gate_time_accounting(preset_gate_report):
    rep = preset_gate_report
    s = rep.schedule
    assert rep.gate_time_ns == pytest.approx(s.tau1 + s.tau2 + s.t_int)
    assert s.t_int == pytest.approx(s.periods * s.window.n * TWO_PI)


def test_synthesize_gate_propagates_base_window_once(preset_params, monkeypatch):
    # the k-period oracle is the base window raised to the k-th power, so the
    # two propagated sector blocks are propagated exactly once per gate
    import hcps.wei_norman as wn
    calls = []
    original = wn._propagate_sectors

    def counting(*args, **kwargs):
        calls.append(args[1][-1])
        return original(*args, **kwargs)

    monkeypatch.setattr(wn, "_propagate_sectors", counting)
    rep = synthesize_gate(preset_params, SpaceLayout(6), GateOptions(max_periods=48),
                          settings=FAST)
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    assert rep.schedule.t_int > 1.5 * comm.t      # several periods, not just one
    assert calls == [pytest.approx(comm.t)]


def test_synthesize_gate_builds_the_factorized_propagator_twice(preset_params, monkeypatch):
    # once to score the base window and once to score the k-period oracle;
    # U3 is the k-period oracle's own product, not a third build
    import sys
    import hcps.wei_norman as wn
    calls = []
    original = wn.factorized_propagator

    def counting(*args, **kwargs):
        calls.append(args[0].t)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hcps" and getattr(module, "factorized_propagator",
                                                    None) is original:
            monkeypatch.setattr(module, "factorized_propagator", counting)
    rep = synthesize_gate(preset_params, SpaceLayout(6), GateOptions(max_periods=48),
                          settings=FAST)
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    assert rep.schedule.t_int > 1.5 * comm.t      # several periods, not just one
    assert calls == [pytest.approx(comm.t), pytest.approx(rep.schedule.t_int)]


def test_forced_paper_eta_misses_cz(preset_params):
    rep = synthesize_gate(preset_params, SpaceLayout(8), GateOptions(eta=PI / 8, max_periods=8),
                          settings=FAST)
    assert rep.eta_used == pytest.approx(PI / 8)
    assert rep.phase_distance > 0.01
    assert rep.fidelity_avg < 0.999
    codes = {n["code"] for n in rep.discrepancy_notes}
    assert "schedule_condition_violated" in codes


def test_compose_sequence_strict_raises_on_bad_schedule(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    oracle = oracle_at_periods(preset_params, comm, 1, 8, settings=FAST)
    good = schedule_for_eta(preset_params, oracle.coeffs.A, comm, 1)
    bad = PulseSchedule(tau1=good.tau1 * 1.07, tau2=good.tau2, eta=good.eta,
                        window=good.window, periods=good.periods)
    with pytest.raises(ScheduleConditionError) as err:
        compose_sequence(bad, preset_params, SpaceLayout(8), oracle=oracle)
    assert "tau1" in str(err.value)
    assert "violated by" in str(err.value)


def test_compose_sequence_accepts_consistent_schedule(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    oracle = oracle_at_periods(preset_params, comm, 1, 8, settings=FAST)
    sched = schedule_for_eta(preset_params, oracle.coeffs.A, comm, 1)
    rep = compose_sequence(sched, preset_params, SpaceLayout(8), oracle=oracle)
    # one disentangling loop accumulates too little phase for a CZ, but the
    # composition itself must be clean: diagonal and, up to the global
    # dynamical phase carried by the D coefficient, the ideal form
    dressed = rep.synthesized
    off = dressed - np.diag(np.diag(dressed))
    assert np.abs(off).max() < 1e-7
    assert phase_distance(dressed, eq_phase_form(rep.eta_used)) < 1e-6


def test_no_entangling_phase_note_off_matched_detuning():
    params = make_params(omega_r=-1.0)    # Delta = 2 omega: no joint phase
    rep = synthesize_gate(params, SpaceLayout(8), GateOptions(max_periods=4), settings=FAST)
    codes = {n["code"] for n in rep.discrepancy_notes}
    assert "no_entangling_phase" in codes
    assert rep.fidelity_avg < 0.6


def test_factorized_vacuum_block_matches_u3(preset_params):
    # at a disentangling time the factorized propagator, restricted to the
    # two-qubit block at resonator vacuum, is the joint phase gate alone
    from hcps.wei_norman import factorized_propagator
    lay = SpaceLayout(8)
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    oracle = oracle_at_periods(preset_params, comm, 1, 8, settings=FAST)
    full_block, _ = vacuum_block(factorized_propagator(oracle.coeffs, lay))
    u3_block, _ = vacuum_block(u3(oracle.coeffs.A, lay))
    assert phase_distance(full_block, u3_block) < 1e-5
