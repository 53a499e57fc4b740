import math
import warnings

import numpy as np
import pytest

from hcps import propagation
from hcps.hamiltonians import h_T, h_drive, h_eff, h_interaction, h_total_lab
from hcps.hilbert import (
    NonFiniteError,
    Operator,
    SLOT_CHARGE,
    SLOT_SPIN,
    SpaceLayout,
    StateVector,
    TermOperator,
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
)
from hcps.config import paper_preset
from hcps.open_system import DensityMatrix, evolve_master
from hcps.wei_norman import (
    coefficients_closed_form, commensurate_time, factorized_propagator,
)

from test_hamiltonians import make_params

TWO_PI = 2.0 * math.pi


def test_step_doubling_driver():
    # successive resolutions of run differ by exactly 1 / (2 steps)
    calls = []

    def run(steps):
        calls.append(steps)
        return np.array([1.0 / steps])

    settings = PropagationSettings(0.0, 1.0, steps=4, tolerance=0.01, max_refinements=12)
    result, converged, steps = step_doubling(run, lambda r: r, settings, stage="test")
    # diffs 1/8, 1/16, 1/32, 1/64 miss 0.01; 64 -> 128 (1/128) is the first pair within it
    assert calls == [4, 8, 16, 32, 64, 128]
    assert converged and steps == 128 and result[0] == 1.0 / 128

    calls.clear()
    _, converged, steps = step_doubling(run, lambda r: r,
                                        settings.replace(max_refinements=0), stage="test")
    assert calls == [4] and not converged and steps == 4

    calls.clear()
    _, converged, steps = step_doubling(run, lambda r: r,
                                        settings.replace(tolerance=1e-9, max_refinements=3),
                                        stage="test")
    assert calls == [4, 8, 16, 32] and not converged and steps == 32

    # an explicit starting grid, and agreement judged on the final array only
    calls.clear()
    (noise, _), converged, steps = step_doubling(
        lambda n: (np.array([float(n)]), run(n)), lambda r: r[1], settings.replace(steps=16),
        stage="test")
    assert calls == [16, 32, 64, 128]
    assert converged and steps == 128 and noise[0] == 128.0


@pytest.mark.parametrize("last", [np.nan, np.inf])
def test_step_doubling_raises_at_a_difference_that_is_not_finite(last):
    # a NaN difference never compares below the tolerance, so every refinement
    # used to run; the error names the stage and the two grids it compared
    calls = []

    def run(steps):
        calls.append(steps)
        return np.array([1.0 if steps == 4 else last])

    settings = PropagationSettings(0.0, 1.0, steps=4, tolerance=0.01, max_refinements=12)
    with pytest.raises(NonFiniteError, match="the leg: the 4- and 8-step passes"):
        step_doubling(run, lambda r: r, settings, stage="the leg")
    assert calls == [4, 8]
    assert issubclass(NonFiniteError, ArithmeticError)


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


@pytest.mark.parametrize("amplitude", [math.nan, 2.0], ids=["nan", "norm-2"])
def test_evolve_state_rejects_a_state_that_is_not_normalized(amplitude):
    # a NaN norm passes `abs(norm - 1) > 1e-9`, and the run would return NaN
    # amplitudes marked converged
    lay = SpaceLayout(3)
    amps = np.zeros(lay.total_dim, dtype=complex)
    amps[0] = amplitude
    psi = StateVector(lay, amps)
    with pytest.raises(ValueError, match="norm"):
        evolve_state(lambda t: h_eff(make_params(), lay, t), psi, PropagationSettings(0.0, 1.0, 4))


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
    # every Magnus-4 factor is unitary to rounding (a Taylor polynomial
    # truncated below unit roundoff), so the defect stays near the rounding
    # floor, growing with the step count, regardless of the tolerance
    lay = SpaceLayout(6)
    p = make_params()
    res = evolve_propagator(lambda t: h_eff(p, lay, t),
                            PropagationSettings(0.0, TWO_PI, 512, 1e-6))
    assert res.converged
    assert res.unitarity_defect < 1e-9


def test_fourth_order_convergence():
    # halving the step divides the distance to the converged limit by about
    # 16 (Magnus-4); a midpoint rule gives about 4
    lay = SpaceLayout(4)
    p = make_params()

    def run(steps):
        return evolve_propagator(
            lambda t: h_eff(p, lay, t),
            PropagationSettings(0.0, 3.0, steps, 1e-30, max_refinements=0)).unitary.entries

    ref = run(1024)                  # within 4e-13 of 8 192 steps, 1e-3 of e2
    e1 = np.abs(run(32) - ref).max()
    e2 = np.abs(run(64) - ref).max()
    assert e2 > 1e-10                # far above the rounding floor
    assert 12.0 < e1 / e2 < 20.0


def test_preset_period_converges_at_1024_steps():
    # one base period of the preset at N = 6 from the config's 512-step start:
    # the Magnus-4 rule meets 1e-8 at the first doubling
    cfg = paper_preset()
    p = cfg.system
    lay = SpaceLayout(6)
    comm = commensurate_time(p.omega, p.Delta, cfg.gate.max_n, cfg.commensurability_tol)
    res = evolve_propagator(lambda t: h_eff(p, lay, t),
                            PropagationSettings(0.0, comm.t, 512, 1e-8))
    assert res.converged and res.steps_used == 1024
    assert res.unitarity_defect < 1e-12


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
    # the truncation-trusted input columns on a converged order-4 grid.
    # From 256 steps it converges at 512, where the error is about 3e-14
    # (3e-13 at 256 steps; finer grids only add rounding)
    n = 25
    lay = SpaceLayout(n)
    p = make_params(G=0.0, omega=1.0, g=0.12, omega_r=0.0)
    t = 1.9
    res = evolve_propagator(lambda s: h_eff(p, lay, s), PropagationSettings(0.0, t, 256, 1e-10))
    assert res.converged
    coeffs = coefficients_closed_form(p, t)
    fact = factorized_propagator(coeffs, lay)
    cols = [lay.index(s, c, k) for s in range(2) for c in range(2) for k in range(7)]
    diff = np.abs(fact.entries[:, cols] - res.unitary.entries[:, cols]).max()
    assert diff < 2e-13


def test_frame_rotate_zero_angle_is_noop():
    lay = SpaceLayout(3)
    p = make_params()
    u = evolve_propagator(lambda t: h_eff(p, lay, t),
                          PropagationSettings(0.0, 1.0, 64, 1e-7))
    rotated = frame_rotate(u.unitary, build_spin_ops(lay, SLOT_SPIN).x, lambda t: 0.0, 1.0)
    assert (rotated - u.unitary).norm_max() < 1e-14


@pytest.mark.parametrize("entries", [((0, 1), 0.5), ((0, 0), np.inf), ((2, 3), np.inf)],
                         ids=["non_hermitian", "inf_diagonal", "inf_mirrored"])
def test_frame_rotate_rejects_a_bad_generator(entries):
    # an infinite entry is rejected by the same check, without a warning;
    # mirrored, the defect there is inf - inf
    lay = SpaceLayout(2)
    gen = build_spin_ops(lay, SLOT_SPIN).x.entries.copy()
    (i, j), value = entries
    if np.isinf(value):
        gen[j, i] = value
    gen[i, j] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Hermitian"):
            frame_rotate(identity(lay), Operator(lay, gen), lambda t: 0.3, 1.0)


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


_NON_FINITE = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "1j*inf": complex(0.0, np.inf)}


_INTEGRATORS = ["evolve_propagator", "evolve_state", "evolve_master"]


@pytest.mark.parametrize(
    "bad, where, onset, integrator",
    [(v, (0, 0), 0.0, _INTEGRATORS[0]) for v in _NON_FINITE.values()]
    + [(v, (0, 5), 0.0, _INTEGRATORS[0]) for v in _NON_FINITE.values()]
    + [(v, (0, 5), 0.5, name) for v in _NON_FINITE.values() for name in _INTEGRATORS]
    + [(0.5, (0, 5), onset, name) for onset in (0.0, 0.5) for name in _INTEGRATORS],
    ids=list(_NON_FINITE) + [f"{k}-off-diagonal" for k in _NON_FINITE]
    + [f"{k}-off-block-{name}" for k in _NON_FINITE for name in _INTEGRATORS]
    + [f"0.5-one-sided-{kind}-{name}" for kind in ("in-block", "off-block")
       for name in _INTEGRATORS])
def test_non_finite_sample_raises(monkeypatch, bad, where, onset, integrator):
    # a non-finite entry makes the Hermiticity defect NaN or inf, which
    # fails the comparison against any tolerance; off the diagonal the
    # mirror entry is its conjugate, so the defect there is inf - inf.  The
    # finite 0.5 is set on one side only, so its sample is not Hermitian.
    # From mid-window (onset 0.5) the integrators step the diagonal number
    # operator's singleton blocks, so (0, 5) is off-block: the pass restarts
    # on the whole space, where its one (1, 8, 8) stack fails.  From the
    # start the bad entry is read into the split, so (0, 5) is in-block and a
    # stack of smaller blocks fails.  evolve_master always steps the whole
    # space.  The rejection itself must not warn.
    lay = SpaceLayout(2)
    entries = build_number(lay).entries.copy()
    i, j = where
    if not np.isfinite(bad):
        entries[j, i] = np.conj(bad)
    entries[i, j] = bad
    bad_op = Operator(lay, entries)
    h = lambda t: bad_op if t >= onset else build_number(lay)
    psi = basis_state(lay, 0, 0, 1)
    settings = PropagationSettings(0.0, 1.0, 4)
    run = {"evolve_propagator": lambda: evolve_propagator(h, settings),
           "evolve_state": lambda: evolve_state(h, psi, settings),
           "evolve_master": lambda: evolve_master(h, DensityMatrix.from_state(psi), [],
                                                  settings)}[integrator]
    checked = []
    honest = propagation.hermiticity_defect
    monkeypatch.setattr(propagation, "hermiticity_defect",
                        lambda a: checked.append(a.shape) or honest(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianSampleError):
            run()
    if onset > 0 or integrator == "evolve_master":
        assert checked[-1] == (1, 8, 8)
    else:
        assert len(checked[-1]) == 3 and checked[-1][-1] < 8


def _run(integrator, h, lay, settings):
    """The integrator's result on h from the lab state |0, 1, 0>, as one array."""
    psi = basis_state(lay, 0, 1, 0)
    if integrator == "evolve_propagator":
        return evolve_propagator(h, settings).unitary.entries
    if integrator == "evolve_state":
        return evolve_state(h, psi, settings).state.amplitudes
    return evolve_master(h, DensityMatrix.from_state(psi), [], settings).rho.entries


@pytest.mark.parametrize(
    "bad, where",
    [(_NON_FINITE[k], "term") for k in ("nan", "inf", "1j*inf")] + [(np.nan, "h0"), (0.5j, "h0")],
    ids=["nan", "inf", "1j*inf", "nan-h0", "complex-h0"])
@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_non_finite_scalar_raises(bad, where, integrator):
    # h_eff's pairs plus one of the number operator: from mid-window the
    # scalar of h_eff's first coupling pair ("term") or of the number pair
    # ("h0") is not finite or not real, and the sample's scalar check rejects
    # it, without a warning, before any matrix is formed
    lay = SpaceLayout(2)
    p = make_params()
    n = build_number(lay).entries

    def h(t):
        (s, g), *rest = h_eff(p, lay, t).pairs
        r = 0.3
        if t >= 0.5:
            s, r = (bad, r) if where == "term" else (s, bad)
        return TermOperator(lay, ((s, g), *rest, (r, n)))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianSampleError, match="scalar"):
            _run(integrator, h, lay, PropagationSettings(0.0, 1.0, 4))


@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_an_overflowing_sample_raises(integrator):
    # a finite scalar over a finite matrix whose product overflows: the
    # sample passes its scalar and matrix checks, and the step's K, which is
    # not finite, raises the same error as a plain sample that is not finite
    lay = SpaceLayout(2)
    p = make_params()
    (_, g), *rest = h_eff(p, lay, 0.0).pairs
    big = 10 * g
    h = lambda t: TermOperator(lay, ((1e308, big), *rest))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonHermitianSampleError, match="not finite"):
            _run(integrator, h, lay, PropagationSettings(0.0, 1.0, 4))


@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_an_overflowing_step_raises_without_a_warning(integrator):
    # the same overflow from mid-window, with warnings as errors: the step's
    # K is formed without a numpy warning, and the error names the start of
    # the first step whose second Gauss node (0.5 + 0.106 of 0.25) reaches it,
    # though that step shares one product with the steps before it
    lay = SpaceLayout(2)
    p = make_params()
    (s, g), *rest = h_eff(p, lay, 0.0).pairs
    big = 10 * g
    h = lambda t: TermOperator(lay, ((1e308 if t > 0.6 else s, big), *rest))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianSampleError, match=r"Magnus step at t=0\.5 is not finite"):
            _run(integrator, h, lay, PropagationSettings(0.0, 1.0, 4))


@pytest.mark.parametrize("case", ["nan-in-block", "nan-off-block", "h0-not-hermitian"])
@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_a_bad_constant_matrix_raises(case, integrator):
    # a pair matrix with a NaN in the first step's blocks from the start, or
    # one with a NaN outside them from mid-window, which restarts the pass on
    # the whole space, where it is read; and an added pair matrix that is
    # finite but not Hermitian
    lay = SpaceLayout(2)
    p = make_params()
    m = h_eff(p, lay, 0.0).pairs[0][1].copy()
    m[(0, 0) if case == "nan-in-block" else (0, 1)] = np.nan
    onset = 0.5 if case == "nan-off-block" else 0.0
    h0 = build_number(lay).entries.copy()
    h0[0, 3] = 0.5

    def h(t):
        sample = h_eff(p, lay, t)
        if case == "h0-not-hermitian":
            return TermOperator(lay, sample.pairs + ((1.0, h0),))
        if t < onset:
            return sample
        (s, _), *rest = sample.pairs
        return TermOperator(lay, ((s, m), *rest))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianSampleError):
            _run(integrator, h, lay, PropagationSettings(0.0, 1.0, 4))


@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_a_term_matrix_that_couples_two_blocks_restarts_on_the_whole_space(
        monkeypatch, integrator):
    # h_eff's pairs plus a spin drive pair from a grid node a quarter into
    # the window: the drive's matrix couples the two parity blocks of the
    # first step's samples, and the pass restarts on the whole space, where
    # it gives the whole-space result bit for bit
    lay = SpaceLayout(6)
    p = make_params()
    Sx = build_spin_ops(lay, SLOT_SPIN).x.entries
    t_on = TWO_PI / 4

    def h(t):
        sample = h_eff(p, lay, t)
        return sample if t < t_on else TermOperator(lay, sample.pairs + ((0.25, Sx),))

    settings = PropagationSettings(0.0, TWO_PI, 64, 1e-8)
    res = _run(integrator, h, lay, settings)
    monkeypatch.setattr(propagation, "_coupling_blocks", _whole_space_blocks)
    assert np.array_equal(res, _run(integrator, h, lay, settings))
    # the drive moved the state out of its parity class
    parity = _parity_classes(lay)
    start = parity[lay.index(0, 1, 0)]
    moved = res if integrator != "evolve_propagator" else res[:, lay.index(0, 1, 0)]
    assert np.abs(moved[parity != start]).max() > 1e-2


@pytest.mark.parametrize("integrator", _INTEGRATORS)
def test_integrators_refuse_settings_without_a_window(integrator):
    lay = SpaceLayout(2)
    psi = basis_state(lay, 0, 0, 0)
    h = lambda t: 0.0 * identity(lay)
    settings = PropagationSettings(steps=4)
    run = {"evolve_propagator": lambda: evolve_propagator(h, settings),
           "evolve_state": lambda: evolve_state(h, psi, settings),
           "evolve_master": lambda: evolve_master(h, DensityMatrix.from_state(psi), [],
                                                  settings)}[integrator]
    with pytest.raises(ValueError, match="window"):
        run()


def test_settings_reject_an_empty_window():
    with pytest.raises(ValueError, match="t1 > t0"):
        PropagationSettings(t0=1.0, t1=1.0)


def test_settings_reject_negative_max_refinements():
    PropagationSettings(0.0, 1.0, 4, max_refinements=0)
    with pytest.raises(ValueError, match="max_refinements"):
        PropagationSettings(0.0, 1.0, 4, max_refinements=-1)


def test_magnus4_rule_matches_inline_eigh_reference():
    # the step exponential against an independent one: the Magnus-4 product
    # of exp(-i dt K), K built here from the two Gauss-node samples and
    # exponentiated by eigendecomposition, over one period on a fixed grid
    lay = SpaceLayout(6)
    p = make_params()
    steps = 512
    dt = TWO_PI / steps
    res = evolve_propagator(lambda t: h_eff(p, lay, t),
                            PropagationSettings(0.0, TWO_PI, steps, 1e-30, max_refinements=0))
    want = np.eye(lay.total_dim, dtype=complex)
    for k in range(steps):
        h1, h2 = (h_eff(p, lay, (k + 0.5 + c) * dt).entries
                  for c in (-math.sqrt(3) / 6, math.sqrt(3) / 6))
        kmat = 0.5 * (h1 + h2) - 1j * math.sqrt(3) / 12 * dt * (h2 @ h1 - h1 @ h2)
        w, v = np.linalg.eigh(kmat)
        want = (v * np.exp(-1j * dt * w)) @ v.conj().T @ want
    assert res.steps_used == steps
    assert np.abs(res.unitary.entries - want).max() <= 1e-12


# ----------------------------------------------------------------------
# block-diagonal steps: the components of the coupling graph
# ----------------------------------------------------------------------

def _parity_classes(lay: SpaceLayout) -> np.ndarray:
    """(-1)^(n+s+c) of each lab index as 0 or 1, n photons, s spin, c charge."""
    n = lay.fock_cutoff
    i = np.arange(lay.total_dim)
    return (i // (2 * n) + (i // n) % 2 + i % n) % 2


@pytest.mark.parametrize("builder, shapes", [
    (h_eff, [(2, 40)]),
    (h_interaction, [(2, 40)]),
    (h_T, [(1, 80)]),
    (h_total_lab, [(1, 80)]),
    (h_drive, [(4, 20)]),
    (lambda p, lay, t: build_number(lay), [(80, 1)]),
    (lambda p, lay, t: 0.0 * identity(lay), [(80, 1)]),
], ids=["h_eff", "h_interaction", "h_T", "h_total_lab", "h_drive", "number", "zero"])
def test_coupling_blocks_of_the_builders(builder, shapes, preset_params):
    # the components the generic integrator steps on their own, read from the
    # first step's two samples at N = 20
    lay = SpaceLayout(20)
    blocks = propagation._coupling_blocks(
        *(builder(preset_params, lay, t).entries for t in (0.3, 0.7)))
    assert [idx.shape for idx in blocks] == shapes
    assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in blocks])),
                          np.arange(lay.total_dim))
    if builder in (h_eff, h_interaction):
        # exactly the two excitation-parity classes
        parity = _parity_classes(lay)
        assert [set(parity[row]) for row in blocks[0]] == [{0}, {1}]


def _whole_space_blocks(*samples):
    return [np.arange(samples[0].shape[0])[None]]


def test_block_path_checks_only_the_block_stacks(monkeypatch):
    # h_eff at N = 4 is stepped as two parity blocks of 8, on the stack of
    # both blocks and never on the whole 16 x 16 sample.  Its samples are
    # TermOperators whose 4 matrices, handed over by every call, are checked
    # once each per pass (8, 16, ..., steps_used); the same samples as plain
    # Operators are checked once each, two per step of every pass; one
    # constant plain Operator, handed over by every call, once per pass
    lay = SpaceLayout(4)
    p = make_params()
    checked = []
    honest = propagation.hermiticity_defect
    monkeypatch.setattr(propagation, "hermiticity_defect",
                        lambda a: checked.append(a.shape) or honest(a))
    settings = PropagationSettings(0.0, 1.0, 8)
    terms = evolve_propagator(lambda t: h_eff(p, lay, t), settings)
    passes = terms.steps_used.bit_length() - 3
    assert terms.converged and checked == [(2, 8, 8)] * (4 * passes)
    checked.clear()
    plain = evolve_propagator(lambda t: Operator(lay, h_eff(p, lay, t).entries), settings)
    assert plain.converged and plain.steps_used == terms.steps_used
    assert set(checked) == {(2, 8, 8)}
    assert len(checked) == 2 * (2 * plain.steps_used - 8)
    checked.clear()
    const = Operator(lay, h_eff(p, lay, 0.3).entries)
    fixed = evolve_propagator(lambda t: const, settings)
    assert fixed.converged and fixed.steps_used > 8
    assert checked == [(2, 8, 8)] * (fixed.steps_used.bit_length() - 3)


def test_block_steps_equal_the_whole_space_steps(preset_cfg, monkeypatch):
    # one preset period of h_eff on its two parity blocks against the dense
    # whole-space step: the propagator bit for bit, and the state, which is
    # the propagator applied once, against the state stepped one factor at a
    # time to rounding
    p = preset_cfg.system
    lay = SpaceLayout(6)
    comm = commensurate_time(p.omega, p.Delta, preset_cfg.gate.max_n,
                             preset_cfg.commensurability_tol)
    settings = PropagationSettings(0.0, comm.t, 512, 1e-8)
    h = lambda t: h_eff(p, lay, t)
    psi0 = basis_state(lay, 0, 1, 0)
    blocked = evolve_propagator(h, settings)
    state = evolve_state(h, psi0, settings)
    monkeypatch.setattr(propagation, "_coupling_blocks", _whole_space_blocks)
    whole = evolve_propagator(h, settings)
    assert blocked.converged and blocked.steps_used == whole.steps_used == 1024
    assert (state.converged, state.steps_used) == (blocked.converged, blocked.steps_used)
    assert np.array_equal(blocked.unitary.entries, whole.unitary.entries)
    assert np.array_equal(state.state.amplitudes, (blocked.unitary @ psi0).amplitudes)
    stepped = psi0.amplitudes
    for (u,), in propagation.magnus4_steps(lambda t: h(t).entries, 0.0, comm.t, 1024,
                                           _whole_space_blocks(stepped)):
        stepped = u @ stepped
    assert np.abs(state.state.amplitudes - stepped).max() < 1e-14


def test_term_samples_step_like_their_entries(preset_cfg):
    # one preset period of h_eff: the samples read through their pairs, one
    # table of 4 generators and 6 commutators for the pass, against the same
    # samples as plain Operators, a table of (h1, h2, i[h1, h2]) per step.
    # The two sum 2K in different orders, so they agree to rounding: 2.5e-16
    # measured over the 512 steps
    p = preset_cfg.system
    lay = SpaceLayout(6)
    comm = commensurate_time(p.omega, p.Delta, preset_cfg.gate.max_n,
                             preset_cfg.commensurability_tol)
    settings = PropagationSettings(0.0, comm.t, 512, max_refinements=0)
    terms = evolve_propagator(lambda t: h_eff(p, lay, t), settings)
    plain = evolve_propagator(lambda t: Operator(lay, h_eff(p, lay, t).entries), settings)
    assert np.abs(terms.unitary.entries - plain.unitary.entries).max() <= 1e-15


@pytest.mark.parametrize("builder", [h_T, h_total_lab])
def test_term_factors_with_h0_pairs_match_their_entries(builder):
    # TermOperators with constant pairs besides the couplings: h_T's table
    # has 5 generators and 10 commutators, h_total_lab's 6 and 15.  Each step factor against the
    # same samples given as plain arrays; the largest gap measured is
    # 3.3e-16 (h_total_lab) and 3.5e-18 (h_T)
    lay = SpaceLayout(6)
    p = make_params(omega_r=0.6, eps=2.0)
    h = lambda t: builder(p, lay, t)
    whole = [np.arange(lay.total_dim)[None]]
    terms = propagation.magnus4_steps(h, 0.0, 3.0, 64, whole)
    plain = propagation.magnus4_steps(lambda t: h(t).entries, 0.0, 3.0, 64, whole)
    gaps = [np.abs(a - b).max() for (a,), (b,) in zip(terms, plain)]
    assert len(gaps) == 64 and max(gaps) <= 2e-15


def test_a_one_pair_term_operator_is_its_plain_sample():
    # one pair (0.7, N): the entries are 0.7 N, and the propagator is the
    # same sample's as a plain Operator, bit for bit
    lay = SpaceLayout(2)
    n = build_number(lay).entries
    op = TermOperator(lay, ((0.7, n),))
    assert op.entries.tobytes() == (0.7 * n).tobytes()
    settings = PropagationSettings(0.0, 1.0, 8)
    got = evolve_propagator(lambda t: op, settings).unitary.entries
    want = evolve_propagator(lambda t: 0.7 * build_number(lay), settings).unitary.entries
    assert got.tobytes() == want.tobytes()


def test_a_sample_that_couples_two_blocks_restarts_on_the_whole_space(monkeypatch):
    # h_eff plus a spin drive that switches on at a grid node a quarter into
    # the window: the first step's samples split the space into the two
    # parity blocks, the drive couples them, and the pass restarts on the
    # whole space, where it gives the whole-space result
    lay = SpaceLayout(6)
    p = make_params()
    Sx = build_spin_ops(lay, SLOT_SPIN).x
    t_on = TWO_PI / 4
    h = lambda t: h_eff(p, lay, t) + (0.5 * Sx if t >= t_on else 0.0 * Sx)
    settings = PropagationSettings(0.0, TWO_PI, 64, 1e-8)

    splits = []
    blocks = propagation._coupling_blocks
    monkeypatch.setattr(propagation, "_coupling_blocks",
                        lambda *hs: splits.append(blocks(*hs)) or splits[-1])
    res = evolve_propagator(h, settings)
    assert [idx.shape for idx in splits[0]] == [(2, 12)]
    monkeypatch.setattr(propagation, "_coupling_blocks", _whole_space_blocks)
    whole = evolve_propagator(h, settings)
    assert res.converged and res.steps_used == whole.steps_used
    assert np.abs(res.unitary.entries - whole.unitary.entries).max() <= 1e-14
    # the drive moved amplitude between the parity classes
    parity = _parity_classes(lay)
    assert np.abs(res.unitary.entries[np.ix_(parity == 0, parity == 1)]).max() > 1e-2


def test_a_coupling_term_with_a_zero_scalar_restarts_no_pass(monkeypatch):
    # h_eff's pairs plus a spin drive pair whose scalar is 0 before a grid
    # node a quarter into the window: the split is read from the first
    # samples' matrices, the drive's among them, so every pass starts on the
    # whole space and none restarts.  h_fun is called for the split's two
    # samples and two per step of each pass (64, 128, ..., steps_used)
    lay = SpaceLayout(6)
    p = make_params()
    Sx = build_spin_ops(lay, SLOT_SPIN).x.entries
    t_on = TWO_PI / 4
    calls = []

    def h(t):
        calls.append(t)
        sample = h_eff(p, lay, t)
        return TermOperator(lay, sample.pairs + ((0.25 if t >= t_on else 0.0, Sx),))

    settings = PropagationSettings(0.0, TWO_PI, 64, 1e-8)
    res = evolve_propagator(h, settings)
    assert res.converged and len(calls) == 2 + 2 * (2 * res.steps_used - 64)
    monkeypatch.setattr(propagation, "_coupling_blocks", _whole_space_blocks)
    whole = evolve_propagator(h, settings)
    assert whole.steps_used == res.steps_used
    assert np.abs(res.unitary.entries - whole.unitary.entries).max() <= 1e-14
