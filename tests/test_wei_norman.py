import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hcps.gates import u3
from hcps.hilbert import (
    SLOT_CHARGE, SLOT_SPIN, SpaceLayout, build_annihilation, build_spin_ops, expm_hermitian,
    identity, ladder_matrix,
)
from hcps import wei_norman
from hcps.propagation import PropagationSettings, magnus4_steps
from hcps.wei_norman import (
    CommensurabilityError,
    WNCoefficients,
    closed_form_A,
    coefficients_closed_form,
    coefficients_oracle,
    commensurate_time,
    factorized_propagator,
    oracle_at_periods,
    oracle_grid,
)

from test_acceptance import _random_parameter_set
from test_hamiltonians import make_params

TWO_PI = 2.0 * math.pi

# integration budget tuned so coefficient errors sit near 1e-9 without
# chasing the rounding floor; matrix norms grow with sqrt(fock_cutoff), so
# the precision tests run at small cutoffs where the displacement converges
TIGHT = PropagationSettings(steps=4096, tolerance=3e-9, max_refinements=8)


# ----------------------------------------------------------------------
# closed-form route
# ----------------------------------------------------------------------

def test_closed_form_vanishes_at_origin():
    c = coefficients_closed_form(make_params(), 0.0)
    assert c.A == 0.0 and c.B == 0.0 and c.C == 0.0 and c.D == 0.0


@pytest.mark.parametrize("omega_r, n, p", [(0.0, 1, 1), (-1.0, 1, 2), (-2.0, 1, 3)])
def test_closed_form_B_C_vanish_at_commensurate_times(omega_r, n, p):
    params = make_params(omega_r=omega_r)
    comm = commensurate_time(params.omega, params.Delta, 4)
    assert (comm.n, comm.p) == (n, p)
    c = coefficients_closed_form(params, comm.t)
    assert abs(c.B) < 1e-14
    assert abs(c.C) < 1e-14


@pytest.mark.parametrize("omega_r", [0.0, -1.0, -2.0, 0.5])
def test_closed_form_A_zero_at_every_commensurate_time(omega_r):
    # both cosines hit 1 there, so the closed form yields zero phase at the
    # very times the gate is supposed to act
    params = make_params(omega_r=omega_r)
    comm = commensurate_time(params.omega, params.Delta, 4)
    for k in (1, 2, 3):
        assert abs(closed_form_A(params, k * comm.t)) < 1e-12


def test_closed_form_rejects_zero_frequencies():
    with pytest.raises(ValueError):
        coefficients_closed_form(make_params(omega=0.0, omega_r=-1.0), 1.0)
    with pytest.raises(ValueError):
        coefficients_closed_form(make_params(omega_r=1.0), 1.0)   # Delta = 0


# ----------------------------------------------------------------------
# commensurate times
# ----------------------------------------------------------------------

def test_commensurate_half_ratio():
    res = commensurate_time(1.0, 0.5, 8)
    assert res.n == 2 and res.p == 1
    assert res.t == pytest.approx(4 * math.pi, rel=1e-14)


def test_commensurate_integer_ratio():
    res = commensurate_time(1.0, 3.0, 8)
    assert res.n == 1 and res.p == 3
    assert res.t == pytest.approx(TWO_PI, rel=1e-14)


def test_commensurate_preset_gate_time(preset_params):
    res = commensurate_time(preset_params.omega, preset_params.Delta, 8)
    assert res.n == 1
    assert res.t == pytest.approx(6.283185307179586, rel=1e-12)


def test_commensurate_negative_detuning():
    res = commensurate_time(1.0, -2.0, 8)
    assert res.n == 1 and res.p == -2


def test_commensurate_irrational_reports_best():
    with pytest.raises(CommensurabilityError) as err:
        commensurate_time(1.0, math.sqrt(2.0), max_n=16)
    assert err.value.best_n >= 1
    assert 0 < err.value.mismatch < 0.5
    assert "best approximation" in str(err.value)


# ----------------------------------------------------------------------
# oracle coefficients
# ----------------------------------------------------------------------

@pytest.mark.parametrize("g_ratio", [0.05, 0.2])
def test_oracle_B_matches_closed_form_without_spin_coupling(g_ratio):
    params = make_params(G=0.0, g=g_ratio, omega=1.0, omega_r=0.0)
    ts = np.linspace(1.2, 2 * TWO_PI, 5)
    rows = oracle_grid(params, ts, 8, settings=TIGHT)
    for row in rows:
        want = coefficients_closed_form(params, row.t)
        assert abs(row.coeffs.B - want.B) < 1e-8
        assert abs(row.coeffs.C) < 1e-10


@pytest.mark.parametrize("G_ratio", [0.05, 0.2])
def test_oracle_C_matches_closed_form_without_charge_coupling(G_ratio):
    params = make_params(g=0.0, G=G_ratio, omega=1.0, omega_r=0.0)
    ts = np.linspace(1.2, 2 * TWO_PI, 5)
    rows = oracle_grid(params, ts, 8, settings=TIGHT)
    for row in rows:
        want = coefficients_closed_form(params, row.t)
        assert abs(row.coeffs.C - want.C) < 1e-8
        assert abs(row.coeffs.B) < 1e-10


def test_oracle_full_model_B_C_and_D_match_closed_forms(preset_params):
    ts = np.linspace(0.5, 1.5 * TWO_PI, 5)
    rows = oracle_grid(preset_params, ts, 8, settings=TIGHT)
    for row in rows:
        want = coefficients_closed_form(preset_params, row.t)
        assert abs(row.coeffs.B - want.B) < 1e-8
        assert abs(row.coeffs.C - want.C) < 1e-8
        assert abs(row.coeffs.D - want.D) < 1e-7


@pytest.mark.parametrize("seed", range(4))
def test_oracle_B_C_and_D_match_closed_forms_on_random_parameter_sets(seed):
    rng = np.random.default_rng(20260808 + seed)
    p = _random_parameter_set(rng)
    ts = np.sort(rng.uniform(0.2, 1.6, 3)) * TWO_PI / p.omega
    for row in oracle_grid(p, ts, 25):
        want = coefficients_closed_form(p, row.t)
        assert row.converged
        assert abs(row.coeffs.B - want.B) < 1e-8
        assert abs(row.coeffs.C - want.C) < 1e-8
        assert abs(row.coeffs.D - want.D) < 1e-8


def test_oracle_A_nonzero_at_gate_time_while_closed_form_vanishes(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    res = coefficients_oracle(preset_params, comm.t, 10, settings=TIGHT)
    # independently derived value: with Delta = omega the joint phase
    # accumulates -g*G*t/omega per disentangling loop
    want = -preset_params.g * preset_params.G * comm.t / preset_params.omega
    assert res.coeffs.A == pytest.approx(want, abs=1e-8)
    assert abs(res.coeffs.A) > 1e-3
    assert closed_form_A(preset_params, comm.t) == 0.0
    assert abs(res.coeffs.B) < 1e-9
    assert abs(res.coeffs.C) < 1e-9


def test_oracle_A_vanishes_off_the_matched_detuning():
    # with Delta != omega the cross phase is non-secular: no joint phase
    # survives at the disentangling time, hence no gate in that regime
    params = make_params(omega_r=-1.0)   # Delta = 2 omega
    comm = commensurate_time(params.omega, params.Delta, 4)
    res = coefficients_oracle(params, comm.t, 10, settings=TIGHT)
    assert abs(res.coeffs.A) < 1e-8
    assert abs(res.coeffs.B) < 1e-9
    assert abs(res.coeffs.C) < 1e-9


@pytest.fixture(scope="module")
def preset_oracle_generic_t(preset_params):
    return coefficients_oracle(preset_params, 1.9, 25)


def test_oracle_residual_small_in_trusted_window(preset_oracle_generic_t):
    res = preset_oracle_generic_t
    assert res.residual < 1e-5
    assert not res.flagged
    assert res.converged


def test_residual_full_matrix_is_a_truncation_diagnostic(preset_oracle_generic_t):
    # away from commensurate times the top-of-ladder columns cannot agree
    # between the truncated constructions; the windowed residual can
    res = preset_oracle_generic_t
    assert res.residual_full > 1e3 * res.residual


def test_factorized_identity_at_zero_coefficients():
    lay = SpaceLayout(6)
    coeffs = WNCoefficients(A=0.0, B=0.0, C=0.0, D=0.0, t=0.0)
    assert (factorized_propagator(coeffs, lay) - identity(lay)).norm_max() < 1e-14


def test_factorized_reduces_to_joint_phase_gate():
    lay = SpaceLayout(4)
    phi = 0.77
    coeffs = WNCoefficients(A=phi, B=0.0, C=0.0, D=0.0, t=1.0)
    assert (factorized_propagator(coeffs, lay) - u3(phi, lay)).norm_max() < 1e-13


def _literal_product(coeffs: WNCoefficients, layout: SpaceLayout) -> np.ndarray:
    """The six factors as lab-basis 4N x 4N exponentials, leftmost applied last."""
    a = build_annihilation(layout).entries
    ad = a.conj().T
    sx = build_spin_ops(layout, SLOT_CHARGE).x.entries
    Sx = build_spin_ops(layout, SLOT_SPIN).x.entries
    u = scipy.linalg.expm(-1j * coeffs.A * sx @ Sx)
    for gen, z in ((a @ sx, coeffs.B), (ad @ sx, np.conj(coeffs.B)),
                   (a @ Sx, coeffs.C), (ad @ Sx, np.conj(coeffs.C))):
        u = u @ scipy.linalg.expm(-1j * z * gen)
    return u * np.exp(-1j * coeffs.D)


_COEFF = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), A=st.floats(-2.0, 2.0), B=_COEFF, C=_COEFF, D=_COEFF)
def test_factorized_matches_the_literal_six_factor_product(n, A, B, C, D):
    # relative bound: Im D and the non-unitary ladder factors make entries large
    lay = SpaceLayout(n)
    coeffs = WNCoefficients(A=A, B=B, C=C, D=D, t=1.0)
    want = _literal_product(coeffs, lay)
    got = factorized_propagator(coeffs, lay).entries
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_factorized_takes_only_fock_block_exponentials(monkeypatch):
    shapes = []
    honest = wei_norman.expm_matrix

    def recording(mat, scale=1.0):
        shapes.append(np.shape(mat))
        return honest(mat, scale)

    monkeypatch.setattr(wei_norman, "expm_matrix", recording)
    coeffs = WNCoefficients(A=0.3, B=0.2 + 0.1j, C=-0.4j, D=0.05 + 0.01j, t=1.0)
    factorized_propagator(coeffs, SpaceLayout(5))
    # e^{-iz a} and e^{-iz* a'} for z = +-B and +-C, shared by the four sectors
    assert shapes == [(5, 5)] * 8


def test_factorized_with_oracle_coefficients_is_unitary(preset_params):
    res = coefficients_oracle(preset_params, 2.6, 12, settings=TIGHT)
    fact = factorized_propagator(res.coeffs, SpaceLayout(12))
    # Im D compensates the non-unitary single factors on the trusted block;
    # check unitarity on the physically converged subspace via columns
    cols = np.arange(4) * 12
    block = fact.entries[:, cols]
    gram = block.conj().T @ block
    assert np.abs(gram - np.eye(4)).max() < 1e-9


def test_oracle_carries_the_factorized_propagator_it_was_scored_with(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    for res in (coefficients_oracle(preset_params, comm.t, 6),
                oracle_at_periods(preset_params, comm, 3, 6)):
        want = factorized_propagator(res.coeffs, SpaceLayout(6)).entries
        assert np.array_equal(res.factorized_unitary, want)


def test_oracle_holds_the_propagated_pair_as_one_array(preset_params):
    # sector_unitaries is the (2, N, N) PROPAGATED pair at t, and
    # window_unitaries the (2, C, N, N) pair at the C checkpoints up to t
    n = 6
    res = coefficients_oracle(preset_params, 2.6, n)
    c = len(res.window_times)
    assert res.sector_unitaries.shape == (2, n, n)
    assert res.window_unitaries.shape == (2, c, n, n)
    assert np.array_equal(res.window_unitaries[:, -1], res.sector_unitaries)
    powered = wei_norman.oracle_power(res, 3)
    assert powered.sector_unitaries.shape == (2, n, n)
    assert powered.window_unitaries is res.window_unitaries


def test_sector_blocks_are_the_pair_then_its_parity_images_in_sector_order():
    n = 4
    rng = np.random.default_rng(3)
    pair = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
    parity = np.diag((-1.0) ** np.arange(n))
    want = [pair[0], pair[1], parity @ pair[1] @ parity, parity @ pair[0] @ parity]
    for got in (wei_norman._sector_blocks(pair), wei_norman._sector_blocks((pair[0], pair[1]))):
        assert len(got) == 4
        for block, ref in zip(got, want):
            assert np.array_equal(block, ref)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_oracle_rejects_a_time_that_is_not_finite_and_positive(preset_params, t):
    with pytest.raises(ValueError, match=f"got t = {t}"):
        coefficients_oracle(preset_params, t, 4)


@pytest.mark.parametrize("times, named", [([], "at least one time"),
                                          ([1.0, math.nan], "got t = nan"),
                                          ([math.inf, 2.0], "got t = inf"),
                                          ([2.0, -0.5], "got t = -0.5")])
def test_oracle_grid_rejects_times_it_cannot_use(preset_params, times, named):
    with pytest.raises(ValueError, match=named):
        oracle_grid(preset_params, times, 4)


@pytest.mark.parametrize("cutoff", [1, 0, -3, 2.5])
@pytest.mark.parametrize("entry", ["coefficients_oracle", "oracle_grid", "oracle_at_periods"])
def test_oracle_rejects_a_fock_cutoff_below_two_before_propagating(monkeypatch, preset_params,
                                                                  entry, cutoff):
    passes = []
    monkeypatch.setattr(wei_norman, "_sector_snapshots", lambda *args: passes.append(args))
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    calls = {"coefficients_oracle": lambda: coefficients_oracle(preset_params, comm.t, cutoff),
             "oracle_grid": lambda: oracle_grid(preset_params, [comm.t / 2, comm.t], cutoff),
             "oracle_at_periods": lambda: oracle_at_periods(preset_params, comm, 2, cutoff)}
    with pytest.raises(ValueError, match="fock_cutoff must be an integer >= 2"):
        calls[entry]()
    assert passes == []


def test_oracle_grid_on_a_sparse_grid_matches_the_oracle(preset_params):
    # the residual cannot see a 2 pi slip of A (exp(-2 pi i sx Sx) = 1), so
    # a grid of two far-apart times must still unwrap A and Re D as densely
    # as the single-time oracle does
    p = preset_params.replace(g=0.3 * preset_params.omega, G=0.3 * abs(preset_params.Delta))
    t = 6 * TWO_PI / p.omega
    row = oracle_grid(p, [t / 2, t], 8)[-1]
    ref = coefficients_oracle(p, t, 8)
    assert abs(ref.coeffs.A) > math.pi                # beyond the first branch
    assert row.t == t
    assert row.coeffs.A == pytest.approx(ref.coeffs.A, abs=1e-9)
    assert row.coeffs.D.real == pytest.approx(ref.coeffs.D.real, abs=1e-9)


def test_oracle_at_periods_is_additive(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    one = oracle_at_periods(preset_params, comm, 1, 8, settings=TIGHT)
    two = oracle_at_periods(preset_params, comm, 2, 8, settings=TIGHT)
    assert two.coeffs.A == pytest.approx(2 * one.coeffs.A, abs=1e-10)
    assert two.coeffs.t == pytest.approx(2 * comm.t)
    direct = coefficients_oracle(preset_params, 2 * comm.t, 8, settings=TIGHT)
    assert direct.coeffs.A == pytest.approx(two.coeffs.A, abs=1e-7)


def test_residual_flag_fires_at_inadequate_cutoff(preset_params):
    # at a deliberately tiny cutoff the mid-loop excursion touches the
    # ceiling; the residual must catch that and still return coefficients
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    res = oracle_at_periods(preset_params, comm, 2, 8, settings=TIGHT)
    assert res.flagged
    assert 1e-5 < res.residual < 1e-3
    assert res.coeffs.A == pytest.approx(
        -2 * preset_params.g * preset_params.G * comm.t / preset_params.omega, abs=1e-6)


def test_extraction_guards_against_large_displacement(monkeypatch):
    # displacement 2g/omega = 6 empties the vacuum amplitude well below the
    # guard threshold once the cutoff is large enough to hold the excursion;
    # the guard reads each kernel pass as it ends, so it fires after the
    # first, before any refinement or the second sector
    passes = []
    honest = wei_norman._sector_snapshots
    monkeypatch.setattr(wei_norman, "_sector_snapshots",
                        lambda *args: passes.append(args[-1]) or honest(*args))
    params = make_params(g=3.0, G=0.0, omega=1.0, omega_r=0.0)
    coarse = PropagationSettings(steps=2048, tolerance=1e-3, max_refinements=2)
    with pytest.raises(RuntimeError, match="vacuum survival amplitude"):
        coefficients_oracle(params, math.pi, 64, settings=coarse)
    assert passes == [2048]


def test_oracle_grid_B_vanishes_at_the_period_marks(preset_params):
    period = TWO_PI / preset_params.omega
    ts = np.linspace(period / 4, 2 * period, 8)   # includes both period marks
    rows = oracle_grid(preset_params, ts, 8, settings=TIGHT)
    assert len(rows) == 8
    b_mag = np.array([abs(row.coeffs.B) for row in rows])
    # B vanishes exactly at the period marks (rows 3 and 7)
    assert b_mag[3] < 3e-8 and b_mag[7] < 3e-8
    assert b_mag[1] > 1e-2


@pytest.mark.parametrize("grid", ["base_window", "coeffs_grid"])
def test_kernel_takes_exactly_steps_used(monkeypatch, preset_params, grid):
    # the checkpoint segments must sum to the reported grid, not drift from
    # it by per-segment rounding
    fed = []
    kernel = wei_norman._sector_step_factors

    def counting(n):
        factors = kernel(n)

        def count(f, dt):
            fed.append(np.size(f))
            return factors(f, dt)

        return count

    monkeypatch.setattr(wei_norman, "_sector_step_factors", counting)
    one_pass = PropagationSettings(steps=512, tolerance=1e-8, max_refinements=0)
    period = TWO_PI / preset_params.omega
    if grid == "base_window":
        assert coefficients_oracle(preset_params, period, 6, settings=one_pass).steps_used == 512
    else:
        oracle_grid(preset_params, np.linspace(2 * period / 50, 2 * period, 50), 6,
                    settings=one_pass)
    # two propagated sectors, one pass each, two factors per CF4 step
    assert sum(fed) == 2 * 2 * 512


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20), re=st.floats(min_value=-2.0, max_value=2.0),
       im=st.floats(min_value=-2.0, max_value=2.0), dt=st.floats(min_value=1e-3, max_value=1.0))
def test_sector_step_factor_matches_eigendecomposition(n, re, im, dt):
    f = complex(re, im)
    a = ladder_matrix(n)
    want = expm_hermitian(f * a.conj().T + np.conj(f) * a, -1j * dt)
    got = wei_norman._sector_step_factors(n)(np.array([f]), dt)[0]
    assert np.abs(got - want).max() < 1e-12


# |f| ~ 2, f = 0 and a generic amplitude lead every stack of two or more
_rng = np.random.default_rng(5)
STACK_AMPLITUDES = np.concatenate([[1.999 * np.exp(2.1j), 0.0, -0.7 + 1.3j],
                                   2.0 * _rng.random(38) * np.exp(2j * np.pi * _rng.random(38))])


@pytest.mark.parametrize("n", [2, 8, 25])
@pytest.mark.parametrize("k", [1, 2, 3, 41])
def test_sector_step_factor_stacks_match_their_single_amplitude_factors(n, k):
    dt = 0.37
    amps = STACK_AMPLITUDES[:k]
    factors = wei_norman._sector_step_factors(n)
    stack = factors(amps, dt)
    assert stack.shape == (k, n, n)
    a = ladder_matrix(n)
    for f, got in zip(amps, stack):
        assert np.abs(got - factors(np.array([f]), dt)[0]).max() < 1e-14
        want = expm_hermitian(f * a.conj().T + np.conj(f) * a, -1j * dt)
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got.conj().T @ got - np.eye(n)).max() < 1e-13


def test_sector_fourth_order_convergence():
    # halving the step divides the distance to the converged limit by about 16;
    # a midpoint kernel gives about 4
    f = wei_norman.sector_amplitude(make_params(), 1, 1)

    def run(steps):
        return wei_norman._sector_snapshots(f, [2.7], 6, steps)[-1]

    ref = run(1024)                  # within 1.1e-11 of 8 192 steps, 1e-2 of e2
    e1 = np.abs(run(32) - ref).max()
    e2 = np.abs(run(64) - ref).max()
    assert e2 > 1e-10                # far above the rounding floor
    assert 12.0 < e1 / e2 < 20.0


def test_sector_snapshot_matches_fine_generic_magnus4_propagation():
    # the generic Magnus-4 integrator (one exponential with a commutator term
    # per step) on the same sector Hamiltonian, an independent scheme,
    # converges onto the CF4 snapshot; the gap, 4.4e-10 on every generic grid
    # from 256 to 8 192 steps, is the 64-step CF4 snapshot's own error
    n, t = 6, 2.7
    f = wei_norman.sector_amplitude(make_params(), 1, -1)
    a = ladder_matrix(n)
    want = np.eye(n, dtype=np.complex128)
    for (step,), in magnus4_steps(lambda s: f(s) * a.conj().T + np.conj(f(s)) * a, 0.0, t,
                                  512, [np.arange(n)[None]]):
        want = step @ want
    got = wei_norman._sector_snapshots(f, [t / 3, t], n, 64)[-1]
    assert np.abs(got - want).max() < 1e-8


# ----------------------------------------------------------------------
# sector parity: (-s, -c) is the image P U(s, c) P of (s, c)
# ----------------------------------------------------------------------
# At a disentangling time every sector block is a pure phase on the vacuum
# column, so a wrong image would hide there; these run at generic times.

@settings(max_examples=12, deadline=None)
@given(g=st.floats(0.02, 0.4), G=st.floats(0.02, 0.4), omega=st.floats(0.5, 2.0),
       omega_r=st.floats(-1.0, 1.0), t=st.floats(0.5, 4.0))
def test_parity_image_matches_direct_propagation(g, G, omega, omega_r, t):
    params = make_params(g=g, G=G, omega=omega, omega_r=omega_r)
    times = [t / 3, t]
    for key, image in ((1, 1), (-1, -1)), ((1, -1), (-1, 1)):
        got = wei_norman._sector_snapshots(wei_norman.sector_amplitude(params, *key),
                                           times, 7, 96)
        want = wei_norman._sector_snapshots(wei_norman.sector_amplitude(params, *image),
                                            times, 7, 96)
        for u, v in zip(got, want):
            assert np.abs(wei_norman._parity_image(u) - v).max() < 1e-13


def test_joint_steps_multiply_to_the_oracle_sector_snapshots(preset_params):
    # the joint leg takes the oracle's step rule: each step is a (4, N, N)
    # stack of SECTORS blocks, and their ordered product is the sector
    # snapshots followed by their parity images
    n, duration, steps = 5, 1.9, 7
    units = list(wei_norman.joint_step_unitaries(preset_params, SpaceLayout(n), duration, steps))
    assert len(units) == steps
    product = np.eye(n, dtype=np.complex128)
    for u in units:
        assert u.shape == (4, n, n)
        product = u @ product
    pair = np.array([wei_norman._sector_snapshots(wei_norman.sector_amplitude(preset_params, *key),
                                                  [duration], n, steps)[-1]
                     for key in wei_norman.PROPAGATED])
    want = wei_norman._sector_blocks(pair)
    for got, block in zip(product, want):
        assert np.abs(got - block).max() < 1e-13


@pytest.mark.parametrize("per_chunk", [1, 3, 7, 100])
def test_cf4_chunks_concatenate_to_the_unchunked_steps(preset_params, per_chunk):
    n, t0, dt, steps = 4, 0.3, 0.05, 7
    f = wei_norman.sector_amplitude(preset_params, 1, -1)
    factors = wei_norman._sector_step_factors(n)
    stacks = list(wei_norman._cf4_chunks(f, factors, t0, dt, steps, per_chunk))
    assert [len(s) for s in stacks[:-1]] == [per_chunk] * (len(stacks) - 1)
    want = wei_norman._cf4_steps(f, factors, t0 + np.arange(steps) * dt, dt)
    assert np.abs(np.concatenate(stacks) - want).max() < 1e-14


def test_sector_states_is_the_hadamard_on_the_qubit_index_both_ways():
    n = 3
    rng = np.random.default_rng(5)
    psis = rng.normal(size=(2, 4 * n)) + 1j * rng.normal(size=(2, 4 * n))
    mapped = wei_norman.sector_states(psis)
    want = psis @ np.kron(wei_norman.QUBIT_HADAMARD, np.eye(n)).T
    assert np.abs(mapped - want).max() < 1e-15
    assert np.array_equal(wei_norman.sector_states(psis[0]), mapped[0])
    assert np.abs(wei_norman.sector_states(mapped) - psis).max() < 1e-15


def test_wrong_parity_image_is_flagged(monkeypatch, preset_params):
    assert not coefficients_oracle(preset_params, 1.9, 10).flagged
    monkeypatch.setattr(wei_norman, "_parity_image", lambda u: u)
    assert coefficients_oracle(preset_params, 1.9, 10).flagged


# ----------------------------------------------------------------------
# periodicity: U(kT) = U(T)^k
# ----------------------------------------------------------------------

@pytest.mark.parametrize("overrides", [None, dict(omega_r=1.0 / 3.0), dict(omega_r=-1.0, g=0.2),
                                       dict(g=0.3, G=0.2), dict(g=0.3, G=0.2, omega_r=1.0 / 3.0)],
                         ids=["preset", "delta_two_thirds_omega", "delta_two_omega",
                              "strong", "strong_delta_two_thirds_omega"])
def test_oracle_power_matches_a_direct_multi_period_oracle(preset_params, overrides):
    # at strong coupling (g = 0.3, G = 0.2) the truncated ladder keeps the
    # sector phases linear in k only to 1.8e-6, so A and D must be read from
    # the powered blocks; measured worst case: 2.5e-9 on the blocks, 3.6e-11
    # on A, 5.4e-10 on D
    params = preset_params if overrides is None else make_params(**overrides)
    period = commensurate_time(params.omega, params.Delta).t
    base = coefficients_oracle(params, period, 8)
    for k in (2, 3, 5):
        powered = wei_norman.oracle_power(base, k)
        direct = coefficients_oracle(params, k * period, 8)
        assert np.abs(powered.sector_unitaries - direct.sector_unitaries).max() < 1e-8
        assert abs(powered.coeffs.A - direct.coeffs.A) < 1e-8
        assert abs(powered.coeffs.D - direct.coeffs.D) < 1e-8


@settings(max_examples=15, deadline=None)
@given(omega=st.floats(0.7, 1.6),
       ratio=st.sampled_from([1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 2 / 3, -2 / 3, 1.5, -1.5]),
       g=st.floats(0.02, 0.3), G=st.floats(0.02, 0.3), k=st.sampled_from([2, 3]))
def test_oracle_power_matches_a_direct_oracle_on_random_commensurate_draws(omega, ratio, g,
                                                                           G, k):
    # Delta = omega - omega_r = ratio * omega; same bounds as the fixed sets above
    params = make_params(omega=omega, omega_r=omega * (1.0 - ratio), g=g, G=G)
    period = commensurate_time(params.omega, params.Delta).t
    powered = wei_norman.oracle_power(coefficients_oracle(params, period, 8), k)
    direct = coefficients_oracle(params, k * period, 8)
    assert np.abs(powered.sector_unitaries - direct.sector_unitaries).max() < 1e-8
    assert abs(powered.coeffs.A - direct.coeffs.A) < 1e-8
    assert abs(powered.coeffs.D - direct.coeffs.D) < 1e-8
