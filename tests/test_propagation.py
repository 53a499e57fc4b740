import math

import numpy as np
import pytest

from hcps.hamiltonians import h_eff
from hcps.hilbert import (
    Operator,
    SLOT_CHARGE,
    SLOT_SPIN,
    SpaceLayout,
    basis_state,
    build_number,
    build_spin_ops,
    identity,
)
from hcps.propagation import (
    NonHermitianSampleError,
    PropagationSettings,
    evolve_propagator,
    evolve_state,
    frame_rotate,
    step_doubling,
    write_trajectory_csv,
)
from hcps.wei_norman import coefficients_closed_form, factorized_propagator

from test_hamiltonians import make_params

TWO_PI = 2.0 * math.pi


def test_step_doubling_driver():
    # successive resolutions of run differ by exactly 1 / (2 steps)
    calls = []

    def run(steps):
        calls.append(steps)
        return np.array([1.0 / steps])

    settings = PropagationSettings(0.0, 1.0, steps=4, tolerance=0.01, max_refinements=12)
    result, converged, steps = step_doubling(run, lambda r: r, settings)
    # diffs 1/8, 1/16, 1/32, 1/64 miss 0.01; 64 -> 128 (1/128) is the first pair within it
    assert calls == [4, 8, 16, 32, 64, 128]
    assert converged and steps == 128 and result[0] == 1.0 / 128

    calls.clear()
    _, converged, steps = step_doubling(run, lambda r: r,
                                        settings.replace(max_refinements=0))
    assert calls == [4] and not converged and steps == 4

    calls.clear()
    _, converged, steps = step_doubling(run, lambda r: r,
                                        settings.replace(tolerance=1e-9, max_refinements=3))
    assert calls == [4, 8, 16, 32] and not converged and steps == 32

    # an explicit starting grid, and agreement judged on the final array only
    calls.clear()
    (noise, _), converged, steps = step_doubling(
        lambda n: (np.array([float(n)]), run(n)), lambda r: r[1], settings, steps=16)
    assert calls == [16, 32, 64, 128]
    assert converged and steps == 128 and noise[0] == 128.0


def test_zero_hamiltonian_gives_identity():
    lay = SpaceLayout(3)
    res = evolve_propagator(lambda t: 0.0 * identity(lay),
                            PropagationSettings(t0=0.0, t1=1.0, steps=8))
    assert (res.unitary - identity(lay)).norm_max() < 1e-14
    assert res.unitarity_defect < 1e-14


def test_constant_number_hamiltonian_phases():
    lay = SpaceLayout(4)
    omega, t = 0.9, 2.3
    n_op = build_number(lay)
    res = evolve_propagator(lambda _: omega * n_op,
                            PropagationSettings(t0=0.0, t1=t, steps=64))
    want = np.diag([np.exp(-1j * omega * k * t)
                    for s in range(2) for c in range(2) for k in range(4)])
    assert np.abs(res.unitary.entries - want).max() < 1e-9


def test_rabi_pi_pulse_flips_qubit():
    lay = SpaceLayout(2)
    omega_rabi = 2.0
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    down = basis_state(lay, 0, 1, 0)
    up = basis_state(lay, 0, 0, 0)
    res = evolve_state(lambda t: 0.5 * omega_rabi * sx, down,
                       PropagationSettings(t0=0.0, t1=np.pi / omega_rabi, steps=64))
    assert res.state.fidelity_to(up) > 1 - 1e-9


def test_state_matches_propagator():
    lay = SpaceLayout(5)
    p = make_params()
    psi0 = basis_state(lay, 0, 1, 0)
    settings = PropagationSettings(t0=0.0, t1=1.7, steps=1024, tolerance=1e-9,
                                   max_refinements=0)
    u = evolve_propagator(lambda t: h_eff(p, lay, t), settings)
    s = evolve_state(lambda t: h_eff(p, lay, t), psi0, settings)
    assert np.abs((u.unitary @ psi0).amplitudes - s.state.amplitudes).max() < 1e-9
    assert abs(s.state.norm() - 1.0) < 1e-9


def test_propagator_composition():
    lay = SpaceLayout(4)
    p = make_params()

    def h(t):
        return h_eff(p, lay, t)

    tol = 1e-9
    u_full = evolve_propagator(h, PropagationSettings(0.0, 2.0, 256, tol))
    u_a = evolve_propagator(h, PropagationSettings(0.0, 0.8, 128, tol))
    u_b = evolve_propagator(h, PropagationSettings(0.8, 2.0, 128, tol))
    diff = (u_b.unitary @ u_a.unitary - u_full.unitary).norm_max()
    assert diff < 5e-9


def test_converged_propagator_is_unitary():
    # every midpoint factor is unitary to rounding (a Taylor polynomial
    # truncated below unit roundoff), so the defect stays near the rounding
    # floor, growing with the step count, regardless of the tolerance
    lay = SpaceLayout(6)
    p = make_params()
    res = evolve_propagator(lambda t: h_eff(p, lay, t),
                            PropagationSettings(0.0, TWO_PI, 512, 1e-6))
    assert res.converged
    assert res.unitarity_defect < 1e-9


def test_second_order_convergence():
    # halving the step roughly quarters the distance to the converged limit
    lay = SpaceLayout(4)
    p = make_params()

    def run(steps):
        return evolve_propagator(
            lambda t: h_eff(p, lay, t),
            PropagationSettings(0.0, 3.0, steps, 1e-30, max_refinements=0)).unitary.entries

    ref = run(16384)
    e1 = np.abs(run(256) - ref).max()
    e2 = np.abs(run(512) - ref).max()
    assert 3.0 < e1 / e2 < 5.0


def test_h_eff_conserves_x_expectations():
    lay = SpaceLayout(6)
    p = make_params()
    plus_plus = np.zeros(lay.total_dim, dtype=complex)
    for s in range(2):
        for c in range(2):
            plus_plus[lay.index(s, c, 0)] = 0.5
    psi0 = basis_state(lay, 0, 0, 0).__class__(lay, plus_plus)
    res = evolve_state(lambda t: h_eff(p, lay, t), psi0,
                       PropagationSettings(0.0, 2.0, 512, 1e-9))
    sx = build_spin_ops(lay, SLOT_CHARGE).x.entries
    Sx = build_spin_ops(lay, SLOT_SPIN).x.entries
    amp = res.state.amplitudes
    for op in (sx, Sx):
        assert np.vdot(amp, op @ amp).real == pytest.approx(1.0, abs=1e-8)


def test_charge_only_limit_matches_factorized_form():
    # with the spin coupling off, the propagator is the two displacement
    # factors plus the scalar, with closed-form coefficients; compared on
    # the truncation-trusted input columns at a fixed fine grid
    n = 25
    lay = SpaceLayout(n)
    p = make_params(G=0.0, omega=1.0, g=0.12, omega_r=0.0)
    t = 1.9
    res = evolve_propagator(
        lambda s: h_eff(p, lay, s),
        PropagationSettings(0.0, t, 8192, 1e-30, max_refinements=0))
    coeffs = coefficients_closed_form(p, t)
    fact = factorized_propagator(coeffs, lay)
    cols = [lay.index(s, c, k) for s in range(2) for c in range(2) for k in range(7)]
    diff = np.abs(fact.entries[:, cols] - res.unitary.entries[:, cols]).max()
    assert diff < 1e-7


def test_frame_rotate_zero_angle_is_noop():
    lay = SpaceLayout(3)
    p = make_params()
    u = evolve_propagator(lambda t: h_eff(p, lay, t),
                          PropagationSettings(0.0, 1.0, 64, 1e-7))
    rotated = frame_rotate(u.unitary, build_spin_ops(lay, SLOT_SPIN).x, lambda t: 0.0, 1.0)
    assert (rotated - u.unitary).norm_max() < 1e-14


def test_frame_rotate_inverts_bare_rotation():
    lay = SpaceLayout(2)
    rate = 3.7
    Sx = build_spin_ops(lay, SLOT_SPIN).x
    t = 1.3
    res = evolve_propagator(lambda _: rate * Sx, PropagationSettings(0.0, t, 64, 1e-9))
    rotated = frame_rotate(res.unitary, Sx, lambda s: rate * s, t)
    assert (rotated - identity(lay)).norm_max() < 1e-9


def test_non_hermitian_sample_raises():
    lay = SpaceLayout(2)
    bad = Operator(lay, np.triu(np.ones((8, 8))))
    with pytest.raises(NonHermitianSampleError):
        evolve_propagator(lambda t: bad, PropagationSettings(0.0, 1.0, 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_raises(bad):
    # a NaN defect compares false against any tolerance; without its own
    # check the sample would be exponentiated and every refinement run
    lay = SpaceLayout(2)
    entries = np.zeros((8, 8), dtype=complex)
    entries[0, 0] = bad
    with pytest.raises(NonHermitianSampleError):
        evolve_propagator(lambda t: Operator(lay, entries), PropagationSettings(0.0, 1.0, 4))


def test_settings_reject_negative_max_refinements():
    PropagationSettings(0.0, 1.0, 4, max_refinements=0)
    with pytest.raises(ValueError, match="max_refinements"):
        PropagationSettings(0.0, 1.0, 4, max_refinements=-1)


def test_midpoint_rule_matches_inline_eigh_reference():
    # the step exponential against an independent one: the midpoint product
    # of exp(-i H dt) by eigendecomposition, over one period on a fixed grid
    lay = SpaceLayout(6)
    p = make_params()
    steps = 512
    dt = TWO_PI / steps
    res = evolve_propagator(lambda t: h_eff(p, lay, t),
                            PropagationSettings(0.0, TWO_PI, steps, 1e-30, max_refinements=0))
    want = np.eye(lay.total_dim, dtype=complex)
    for k in range(steps):
        w, v = np.linalg.eigh(h_eff(p, lay, (k + 0.5) * dt).entries)
        want = (v * np.exp(-1j * dt * w)) @ v.conj().T @ want
    assert res.steps_used == steps
    assert np.abs(res.unitary.entries - want).max() <= 1e-12


def test_trajectory_csv_format(tmp_path):
    lay = SpaceLayout(2)
    psi0 = basis_state(lay, 0, 1, 0)
    times = np.linspace(0.0, 1.0, 5)
    trajectory = np.exp(-0.5j * times)[:, None] * psi0.amplitudes[None, :]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, times, trajectory)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("t_ns,re_amp_0,im_amp_0")
    assert len(lines[0].split(",")) == 1 + 2 * lay.total_dim
    assert len(lines) == 1 + len(times)
    ts = [float(row.split(",")[0]) for row in lines[1:]]
    assert ts == sorted(ts)
