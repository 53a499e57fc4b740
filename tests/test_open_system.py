import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import hcps.open_system
from hcps.gates import schedule_for_eta
from hcps.hamiltonians import h_charge_qubit, h_eff, h_nv
from hcps.hilbert import (
    SLOT_CHARGE, SLOT_SPIN, TAYLOR_MAX_NORM, NonFiniteError, SpaceLayout, StateVector,
    basis_state, build_annihilation, build_spin_ops, expm_matrix, identity,
)
from hcps.open_system import (
    DecoherenceParams,
    DensityMatrix,
    _block_layout,
    _exact_maps,
    _liouvillian,
    _local_factors,
    _stacked_layout,
    _strang_leg,
    collapse_ops,
    evolve_master,
    gate_fidelity_open,
    pure_dephasing_rate,
    standard_input_states,
)
from hcps.propagation import PropagationSettings, evolve_propagator, evolve_state
from hcps.wei_norman import QUBIT_HADAMARD, commensurate_time, oracle_at_periods

from test_hamiltonians import make_params

TWO_PI = 2.0 * math.pi

OPEN_SETTINGS = PropagationSettings(steps=64, tolerance=1e-7, max_refinements=10)


# ----------------------------------------------------------------------
# parameters and rates
# ----------------------------------------------------------------------

def test_rejects_unphysical_coherence():
    with pytest.raises(ValueError):
        DecoherenceParams(T1_charge_us=1.0, T2_charge_us=2.5)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", ["T1_charge_us", "T2_charge_us", "T2_spin_us", "T1_spin_us"])
def test_rejects_a_coherence_time_that_is_not_positive(name, value):
    # NaN passes a `< 0` test and collapse_ops then drops its channels; a
    # zero time divides by zero
    with pytest.raises(ValueError, match=name):
        DecoherenceParams(**{name: value})


@pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
def test_rejects_a_resonator_rate_that_is_not_finite_and_nonnegative(value):
    with pytest.raises(ValueError, match="kappa_res"):
        DecoherenceParams(kappa_res=value)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -1.0])
def test_rate_scaling_rejects_a_factor_that_is_not_finite_and_nonnegative(factor):
    with pytest.raises(ValueError, match="rate scale factor"):
        DecoherenceParams().scaled(factor)


def test_lifetime_limited_coherence_has_no_dephasing():
    assert pure_dephasing_rate(1.0, 2.0) == 0.0


def test_dephasing_time_from_quoted_pair():
    # 1/T_phi = 1/2.05 - 1/3.0 gives T_phi = 6.4737 us
    rate = pure_dephasing_rate(1.5, 2.05)
    assert 1.0 / (rate * 1e3) == pytest.approx(6.47368421, rel=1e-8)


def test_rate_scaling():
    dec = DecoherenceParams(T1_charge_us=2.0, T2_charge_us=3.0, kappa_res=0.5)
    doubled = dec.scaled(2.0)
    assert doubled.T1_charge_us == 1.0
    assert doubled.kappa_res == 1.0
    off = dec.scaled(0.0)
    assert off.T1_charge_us == math.inf and off.kappa_res == 0.0


def test_collapse_ops_empty_when_rates_vanish():
    dec = DecoherenceParams(T1_charge_us=math.inf, T2_charge_us=math.inf,
                            T2_spin_us=math.inf, T1_spin_us=math.inf, kappa_res=0.0)
    assert collapse_ops(dec, SpaceLayout(2)) == []


def test_collapse_ops_channel_count():
    lay = SpaceLayout(2)
    dec = DecoherenceParams(T1_charge_us=1.5, T2_charge_us=2.05,
                            T2_spin_us=350.0, T1_spin_us=math.inf, kappa_res=0.1)
    ops = collapse_ops(dec, lay)
    # charge relaxation + charge dephasing + spin dephasing + resonator decay
    assert len(ops) == 4
    for _, rate in ops:
        assert rate > 0


# ----------------------------------------------------------------------
# density matrices
# ----------------------------------------------------------------------

def test_density_matrix_validation():
    lay = SpaceLayout(2)
    good = DensityMatrix.from_state(basis_state(lay, 0, 0, 0))
    assert good.trace_defect() < 1e-15
    with pytest.raises(ValueError):
        DensityMatrix(lay, 0.5 * np.eye(8))          # trace 4
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(ValueError):
        DensityMatrix(lay, bad)                       # not Hermitian


@pytest.mark.parametrize("where", [(0, 0), (0, 1), slice(None)])
def test_density_matrix_rejects_nan_by_its_own_check(where):
    # the Hermiticity check itself must fail on NaN, not the eigensolver
    lay = SpaceLayout(2)
    rho = DensityMatrix.from_state(basis_state(lay, 0, 0, 0)).entries.copy()
    rho[where] = np.nan
    with pytest.raises(ValueError, match="not Hermitian to tolerance"):
        DensityMatrix(lay, rho)


@pytest.mark.parametrize("where", [(0, 0), (0, 1), slice(None)])
def test_density_matrix_rejects_inf_by_its_own_check_without_warning(where):
    lay = SpaceLayout(2)
    rho = DensityMatrix.from_state(basis_state(lay, 0, 0, 0)).entries.copy()
    rho[where] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not Hermitian to tolerance"):
            DensityMatrix(lay, rho)


# ----------------------------------------------------------------------
# master equation
# ----------------------------------------------------------------------

def test_closed_limit_matches_state_propagation():
    lay = SpaceLayout(4)
    p = make_params()
    psi0 = basis_state(lay, 0, 1, 0)
    settings = PropagationSettings(0.0, 1.5, 256, 1e-8)
    pure = evolve_state(lambda t: h_eff(p, lay, t), psi0, settings)
    mixed = evolve_master(lambda t: h_eff(p, lay, t),
                          DensityMatrix.from_state(psi0), [], settings)
    assert mixed.converged
    want = np.outer(pure.state.amplitudes, pure.state.amplitudes.conj())
    assert np.abs(mixed.rho.entries - want).max() < 1e-7


def test_pure_dephasing_decay_law():
    # off-diagonal element decays as exp(-t/T_phi) with relaxation off
    lay = SpaceLayout(2)
    t_phi_us = 1.0 / (pure_dephasing_rate(1.5, 2.05) * 1e3)
    dec = DecoherenceParams(T1_charge_us=math.inf, T2_charge_us=t_phi_us,
                            T2_spin_us=math.inf, T1_spin_us=math.inf)
    up = basis_state(lay, 0, 0, 0).amplitudes
    down = basis_state(lay, 0, 1, 0).amplitudes
    plus = (up + down) / math.sqrt(2.0)
    rho0 = DensityMatrix(lay, np.outer(plus, plus.conj()))
    t = 6.283185307179586
    res = evolve_master(lambda _: 0.0 * identity(lay), rho0,
                        collapse_ops(dec, lay),
                        PropagationSettings(0.0, t, 64, 1e-10, max_refinements=10))
    assert res.converged
    got = 2.0 * abs(res.rho.entries[0, lay.index(0, 1, 0)])
    want = math.exp(-t / (t_phi_us * 1e3))
    assert abs(got - want) / want < 1e-6
    assert want == pytest.approx(0.999030, abs=5e-7)


def test_maximally_mixed_is_dephasing_fixed_point():
    lay = SpaceLayout(2)
    dec = DecoherenceParams(T1_charge_us=math.inf, T2_charge_us=5.0,
                            T2_spin_us=5.0, T1_spin_us=math.inf)
    rho0 = DensityMatrix(lay, np.eye(8) / 8.0)
    res = evolve_master(lambda _: 0.0 * identity(lay), rho0,
                        collapse_ops(dec, lay),
                        PropagationSettings(0.0, 5.0, 64, 1e-9))
    assert np.abs(res.rho.entries - np.eye(8) / 8.0).max() < 1e-12


def test_relaxation_empties_excited_state():
    lay = SpaceLayout(2)
    dec = DecoherenceParams(T1_charge_us=1e-3, T2_charge_us=2e-3,
                            T2_spin_us=math.inf, T1_spin_us=math.inf)
    rho0 = DensityMatrix.from_state(basis_state(lay, 0, 0, 0))   # charge up
    t = 5.0   # five T1 periods
    res = evolve_master(lambda _: 0.0 * identity(lay), rho0,
                        collapse_ops(dec, lay),
                        PropagationSettings(0.0, t, 128, 1e-9))
    pop_up = res.rho.entries[0, 0].real
    assert pop_up == pytest.approx(math.exp(-5.0), rel=1e-5)
    assert res.trace_defect < 1e-10


def test_trace_and_hermiticity_preserved():
    lay = SpaceLayout(3)
    p = make_params()
    dec = DecoherenceParams()
    psi0 = standard_input_states(lay)[4]
    res = evolve_master(lambda t: h_eff(p, lay, t), DensityMatrix.from_state(psi0),
                        collapse_ops(dec, lay),
                        PropagationSettings(0.0, TWO_PI, 512, 1e-7))
    assert res.trace_defect < 1e-8
    assert np.abs(res.rho.entries - res.rho.entries.conj().T).max() < 1e-10


def test_strang_pass_applies_one_dissipator_map_between_unitaries(
        monkeypatch, preset_params, preset_schedule):
    # the trailing half step of one step and the leading half of the next are
    # one constant map, so a fixed-grid pass of n steps applies n + 1 maps;
    # evolve_master's leg steps one dense block, gate_fidelity_open's four
    # sector blocks, whose two qubit pulses are one map each before the leg;
    # a stored stack of B blocks has B^2 entries (B(B + 1)/2 upper pairs and
    # room for the lower ones)
    blocks = []
    honest = hcps.open_system._apply_maps

    def counting(x, *args):
        blocks.append(x.shape[0])
        return honest(x, *args)

    monkeypatch.setattr(hcps.open_system, "_apply_maps", counting)
    lay = SpaceLayout(3)
    p = make_params()
    res = evolve_master(lambda t: h_eff(p, lay, t),
                        DensityMatrix.from_state(standard_input_states(lay)[4]),
                        collapse_ops(DecoherenceParams(), lay),
                        PropagationSettings(0.0, 1.0, 16, 1e-7, max_refinements=0))
    assert res.steps_used == 16
    assert blocks == [1] * (16 + 1)

    blocks.clear()
    gate_fidelity_open(preset_params, preset_schedule, DecoherenceParams(), lay,
                       settings=PropagationSettings(steps=16, max_refinements=0))
    assert blocks == [16] * (2 + 16 + 1)


def test_block_stack_leg_matches_the_same_unitaries_given_densely():
    # random block-diagonal step unitaries, as a (4, N, N) stack and as the
    # (1, d, d) dense matrix, on mixed states, with qubit and resonator
    # channels (kappa > 0) so that both maps run; a provider with two sector
    # blocks swapped must miss, so the comparison can fail
    n, m, steps, duration = 3, 5, 6, 4.0
    rng = np.random.default_rng(24)
    lay = SpaceLayout(n)
    dec = DecoherenceParams(T1_charge_us=0.01, T2_charge_us=0.015, T2_spin_us=0.02,
                            T1_spin_us=0.05, kappa_res=0.3)
    qubit, fock = _local_factors(collapse_ops(dec, lay), n, QUBIT_HADAMARD)
    assert qubit and fock
    dissipators = (_liouvillian(4, qubit), _liouvillian(n, fock))
    a = rng.normal(size=(m, 4 * n, 4 * n)) + 1j * rng.normal(size=(m, 4 * n, 4 * n))
    rhos = a @ a.conj().swapaxes(-1, -2)
    rhos /= np.einsum("kii->k", rhos)[:, None, None]
    psis = rng.normal(size=(m, 4 * n)) + 1j * rng.normal(size=(m, 4 * n))
    z = rng.normal(size=(steps, 4, n, n)) + 1j * rng.normal(size=(steps, 4, n, n))
    units = np.linalg.qr(z)[0]                                   # unitary Q factors
    settings = PropagationSettings(steps=steps, max_refinements=0)

    def leg(stacks, blocks):
        x, p, *_ = _strang_leg(lambda k: iter(stacks), duration, _block_layout(rhos, blocks),
                               psis, n, dissipators, settings)
        return _stacked_layout(x), p

    dense = leg([scipy.linalg.block_diag(*u)[None] for u in units], 1)
    assert np.abs(dense[0] - rhos).max() > 0.1 * np.abs(rhos).max()   # the states move
    for got, want in zip(leg(units, 4), dense):
        assert np.abs(got - want).max() <= 1e-14
    swapped = leg(units[:, [1, 0, 2, 3]], 4)
    assert all(np.abs(got - want).max() > 1e-3 for got, want in zip(swapped, dense))


def _random_leg_inputs(n: int, m: int, seed: int):
    """m Hermitian trace-1 mixed states and m twins on d = 4 n, and a
    (4, n, n) stack of random sector-block Hamiltonians."""
    rng = np.random.default_rng(seed)
    d = 4 * n
    a = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    rhos = a @ a.conj().swapaxes(-1, -2)
    rhos /= np.einsum("kii->k", rhos)[:, None, None]
    psis = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
    h = rng.normal(size=(4, n, n)) + 1j * rng.normal(size=(4, n, n))
    return rhos, psis, h + h.conj().swapaxes(-1, -2)


def test_a_zero_channel_pass_conjugates_once_and_matches_per_step_conjugation(monkeypatch):
    # with every map the identity a pass multiplies its step unitaries into
    # one product and conjugates the stack and the twins by it at its end;
    # with a channel it conjugates at every step, before each map
    n, m, steps = 3, 5, 7
    rhos, psis, _ = _random_leg_inputs(n, m, 41)
    rng = np.random.default_rng(42)
    z = rng.normal(size=(steps, 4, n, n)) + 1j * rng.normal(size=(steps, 4, n, n))
    units = np.linalg.qr(z)[0]
    calls = []
    honest = hcps.open_system._conjugate

    def counting(*args):
        calls.append(1)
        return honest(*args)

    monkeypatch.setattr(hcps.open_system, "_conjugate", counting)
    settings = PropagationSettings(steps=steps, max_refinements=0)
    x, p, *_ = _strang_leg(lambda k: iter(units), 1.0, _block_layout(rhos, 4), psis, n,
                           (None, None), settings)
    assert len(calls) == 1
    want_rho, want_psi = rhos, psis
    for u in units:
        dense = scipy.linalg.block_diag(*u)
        want_rho = dense @ want_rho @ dense.conj().T
        want_psi = want_psi @ dense.T
    assert np.abs(want_rho - rhos).max() > 0.1 * np.abs(rhos).max()    # the states move
    assert np.abs(_stacked_layout(x) - want_rho).max() <= 1e-13
    assert np.abs(p - want_psi).max() <= 1e-13

    calls.clear()
    dec = DecoherenceParams(T1_charge_us=0.01, T2_charge_us=0.015)
    qubit, _ = _local_factors(collapse_ops(dec, SpaceLayout(n)), n, QUBIT_HADAMARD)
    _strang_leg(lambda k: iter(units), 1.0, _block_layout(rhos, 4), psis, n,
                (_liouvillian(4, qubit), None), settings)
    assert len(calls) == steps


def test_dissipator_maps_are_real_and_a_complex_collapse_operator_keeps_a_complex_one():
    # every map of sigma_minus, sigma_z and a is real, in the lab basis and
    # in QUBIT_HADAMARD's, and a pulse map is not; L = sigma_x + i sigma_z
    # has a complex map, which still matches the dense d^2 x d^2 route
    lay = SpaceLayout(3)
    collapse = collapse_ops(DecoherenceParams(T1_spin_us=1000.0, kappa_res=0.2), lay)
    assert len(collapse) == 5
    h = 0.5 * build_spin_ops(lay, SLOT_CHARGE).x + 0.3 * build_spin_ops(lay, SLOT_SPIN).x
    for basis in (np.eye(4), QUBIT_HADAMARD):
        qubit, fock = _local_factors(collapse, 3, basis)
        maps = _exact_maps((_liouvillian(4, qubit), _liouvillian(3, fock)), 0.7, 4)
        assert [g.dtype for g in maps] == [np.float64, np.float64]
        (pulse,), _ = _local_factors([(h, 1.0)], 3, basis)
        assert _exact_maps((_liouvillian(4, qubit, pulse[0]), None), 0.7, 4)[0].dtype \
            == np.complex128

    charge = build_spin_ops(lay, SLOT_CHARGE)
    tilted = [(charge.x + 1j * charge.z, 0.05), *collapse]
    qubit, _ = _local_factors(tilted, 3, np.eye(4))
    assert _exact_maps((_liouvillian(4, qubit), None), 0.7, 1)[0].dtype == np.complex128
    amp = np.arange(1, lay.total_dim + 1) + 0.5j
    rho0 = DensityMatrix.from_state(StateVector(lay, amp / np.linalg.norm(amp)))
    t = 2.0
    res = evolve_master(lambda _: h, rho0, tilted, PropagationSettings(0.0, t, 64, 1e-9))
    assert res.converged
    d = lay.total_dim
    want = (scipy.linalg.expm(t * dense_liouvillian(h.entries, tilted))
            @ rho0.entries.reshape(-1)).reshape(d, d)
    real_only = (scipy.linalg.expm(t * dense_liouvillian(h.entries, collapse))
                 @ rho0.entries.reshape(-1)).reshape(d, d)
    assert np.abs(want - real_only).max() > 1e-3          # the complex channel acts
    assert np.abs(res.rho.entries - want).max() < 1e-9


def test_a_traceless_input_reads_its_own_trace_defect():
    # each input's trace is read against its own trace on entry: a traceless
    # Hermitian input (|i><j| + |j><i|) beside trace-1 ones reads a defect at
    # rounding, not 1, and leaves the leg converged
    n, m = 3, 4
    rhos, psis, h = _random_leg_inputs(n, m, 43)
    unit = np.zeros((4 * n, 4 * n), dtype=np.complex128)
    unit[1, 6] = unit[6, 1] = 1.0
    rhos = np.concatenate([rhos, unit[None]])
    psis = np.concatenate([psis, psis[:1]])
    dec = DecoherenceParams(T1_charge_us=0.01, T2_charge_us=0.015, T2_spin_us=0.02,
                            T1_spin_us=0.05, kappa_res=0.3)
    qubit, fock = _local_factors(collapse_ops(dec, SpaceLayout(n)), n, QUBIT_HADAMARD)

    def steps_of(k):
        u = np.stack([scipy.linalg.expm(-1j * (2.0 / k) * hb) for hb in h])
        return iter(np.broadcast_to(u, (k, *u.shape)))

    x, _, converged, defect, _ = _strang_leg(
        steps_of, 2.0, _block_layout(rhos, 4), psis, n,
        (_liouvillian(4, qubit), _liouvillian(n, fock)),
        PropagationSettings(steps=16, tolerance=1e-7, max_refinements=8))
    assert converged
    assert defect < 1e-12
    out = _stacked_layout(x)
    assert abs(np.trace(out[-1])) < 1e-12
    assert np.abs(out[-1] - unit).max() > 0.01          # the traceless input moves


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_stored_stack_keeps_the_upper_pairs_and_rebuilds_the_lower_ones(blocks):
    # B(B + 1)/2 pairs are stored, diagonal ones first; the lower pairs come
    # back as adjoints, so the round trip is exact on a Hermitian stack
    rng = np.random.default_rng(31)
    a = rng.normal(size=(3, 12, 12)) + 1j * rng.normal(size=(3, 12, 12))
    rhos = a + a.conj().swapaxes(-1, -2)
    x = _block_layout(rhos, blocks)
    s = 12 // blocks
    assert x.shape == (blocks * blocks, s, 3, s)
    pairs = blocks * (blocks + 1) // 2
    want = [(b, b) for b in range(blocks)] + [
        (b, c) for b in range(blocks) for c in range(b + 1, blocks)]
    for p, (b, c) in enumerate(want):
        block = rhos[:, b * s:(b + 1) * s, c * s:(c + 1) * s]
        assert np.array_equal(x[p].transpose(1, 0, 2), block)
    assert pairs == len(want)
    assert np.array_equal(_stacked_layout(x), rhos)


def test_stored_stack_rejects_a_matrix_that_is_not_hermitian():
    # the lower pairs are read as adjoints, so a non-Hermitian input would be
    # stepped as a different matrix
    lay = SpaceLayout(3)
    rhos = np.stack([DensityMatrix.from_state(s).entries for s in standard_input_states(lay)])
    rhos[2, 0, 5] += 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        _block_layout(rhos, 4)
    _block_layout(rhos[:2], 4)


def test_open_leg_stops_at_a_difference_that_is_not_finite():
    # a NaN step unitary never converges; the leg names itself at its first comparison
    passes = []

    def nan_steps(steps):
        passes.append(steps)
        return iter(np.full((steps, 4, 2, 2), np.nan))

    lay = SpaceLayout(2)
    rhos = np.stack([DensityMatrix.from_state(s).entries for s in standard_input_states(lay)])
    with pytest.raises(NonFiniteError, match="open-system Strang leg: the 4- and 8-step"):
        _strang_leg(nan_steps, 1.0, _block_layout(rhos, 4), np.zeros((0, 8)), 2, (None, None),
                    PropagationSettings(steps=4, max_refinements=10))
    assert passes == [4, 8]


def dense_liouvillian(h: np.ndarray, collapse) -> np.ndarray:
    """Row-major d^2 x d^2 generator of the whole master equation."""
    eye = np.eye(len(h))
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, rate in collapse:
        l = op.entries
        ldl = l.conj().T @ l
        out += rate * (np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return out


def test_all_five_channels_with_resonator_decay_match_the_dense_liouvillian():
    # a constant qubit Hamiltonian, both qubits' relaxation and dephasing and
    # kappa > 0, from a state with photons: the split maps against expm of
    # the full d^2 x d^2 generator
    lay = SpaceLayout(3)
    h = 0.5 * build_spin_ops(lay, SLOT_CHARGE).x + 0.3 * build_spin_ops(lay, SLOT_SPIN).x
    collapse = collapse_ops(DecoherenceParams(T1_spin_us=1000.0, kappa_res=0.2), lay)
    assert len(collapse) == 5
    amp = np.arange(1, lay.total_dim + 1) + 0.5j
    rho0 = DensityMatrix.from_state(StateVector(lay, amp / np.linalg.norm(amp)))
    t = 2.0
    res = evolve_master(lambda _: h, rho0, collapse, PropagationSettings(0.0, t, 64, 1e-9))
    assert res.converged
    d = lay.total_dim
    want = (scipy.linalg.expm(t * dense_liouvillian(h.entries, collapse))
            @ rho0.entries.reshape(-1)).reshape(d, d)
    assert np.abs(want - rho0.entries).max() > 0.1          # the state really moves
    assert np.abs(res.rho.entries - want).max() < 1e-9


def test_collapse_operator_on_qubits_and_resonator_is_rejected():
    lay = SpaceLayout(3)
    mixed = build_annihilation(lay) @ build_spin_ops(lay, SLOT_CHARGE).minus
    rho0 = DensityMatrix.from_state(basis_state(lay, 0, 0, 1))
    with pytest.raises(ValueError, match="both the qubits and the resonator"):
        evolve_master(lambda _: 0.0 * identity(lay), rho0, [(mixed, 0.1)],
                      PropagationSettings(0.0, 1.0, 8, 1e-6))


# ----------------------------------------------------------------------
# full-sequence open fidelity
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def preset_schedule(preset_params):
    comm = commensurate_time(preset_params.omega, preset_params.Delta, 4)
    oracle = oracle_at_periods(preset_params, comm, 1, 6,
                               settings=PropagationSettings(steps=2048, tolerance=1e-8))
    return schedule_for_eta(preset_params, oracle.coeffs.A, comm, 1)


def test_standard_inputs_are_normalized():
    states = standard_input_states(SpaceLayout(4))
    assert len(states) == 6
    for s in states:
        assert abs(s.norm() - 1.0) < 1e-14


@pytest.mark.parametrize("pulse", [0, 1], ids=["charge", "nv"])
def test_pulse_liouvillian_exponential_matches_scipy(preset_cfg, preset_schedule, pulse):
    # the 16 x 16 generator of a qubit pulse under the preset's rates, as
    # gate_fidelity_open builds it: the charge pulse's theta is about 12.5,
    # so expm_matrix scales by 2^-5 and squares five times; the NV pulse's
    # is about 0.1 and needs no squaring
    params, lay = preset_cfg.system, SpaceLayout(4)
    qubit, _ = _local_factors(collapse_ops(preset_cfg.decoherence, lay), 4, QUBIT_HADAMARD)
    pulses, _ = _local_factors(
        [(h_charge_qubit(params, lay), preset_schedule.tau1),
         (h_nv(params, lay), preset_schedule.tau2)], 4, QUBIT_HADAMARD)
    h, tau = pulses[pulse]
    g = _liouvillian(4, qubit, h)
    assert (tau * np.abs(g).sum(axis=0).max() > TAYLOR_MAX_NORM) == (pulse == 0)
    want = scipy.linalg.expm(tau * g)
    assert np.abs(expm_matrix(g, tau) - want).max() < 1e-13 * np.abs(want).max()


def test_open_fidelity_zero_rates_is_exact(preset_params, preset_schedule):
    lay = SpaceLayout(6)
    dec = DecoherenceParams().scaled(0.0)
    res = gate_fidelity_open(preset_params, preset_schedule, dec, lay, settings=OPEN_SETTINGS)
    assert res.fidelity_avg == pytest.approx(1.0, abs=1e-9)


def test_open_fidelity_decreases_with_rates(preset_params, preset_schedule):
    lay = SpaceLayout(6)
    dec = DecoherenceParams()
    losses = []
    for factor in (1.0, 2.0, 4.0):
        res = gate_fidelity_open(preset_params, preset_schedule, dec.scaled(factor), lay,
                                 settings=OPEN_SETTINGS)
        assert res.converged
        losses.append(res.fidelity_loss)
    assert 0 < losses[0] < losses[1] < losses[2]
    assert losses[0] < 0.01


def test_open_fidelity_steps_only_the_interaction_leg(preset_params, preset_schedule,
                                                     monkeypatch):
    # the qubit pulses are exact maps: one step-doubled leg per run
    calls = []
    honest = hcps.open_system.step_doubling

    def counting(*args, **kwargs):
        calls.append(1)
        return honest(*args, **kwargs)

    monkeypatch.setattr(hcps.open_system, "step_doubling", counting)
    res = gate_fidelity_open(preset_params, preset_schedule, DecoherenceParams(),
                             SpaceLayout(4), settings=OPEN_SETTINGS)
    assert res.converged
    assert len(calls) == 1


def test_open_fidelity_leg_converges_on_a_coarse_order_4_grid(preset_params, preset_schedule,
                                                              monkeypatch):
    # the interaction leg takes the oracle's order-4 step: 128 steps from the
    # 64-step start (a midpoint leg needs 2 048)
    grids = []
    honest = hcps.open_system.step_doubling

    def recording(*args, **kwargs):
        out = honest(*args, **kwargs)
        grids.append(out[2])
        return out

    monkeypatch.setattr(hcps.open_system, "step_doubling", recording)
    res = gate_fidelity_open(preset_params, preset_schedule, DecoherenceParams(),
                             SpaceLayout(4), settings=OPEN_SETTINGS)
    assert res.converged
    assert len(grids) == 1 and grids[0] <= 256



@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_sector_leg_matches_the_lab_basis_master_equation(preset_cfg, preset_params,
                                                         preset_schedule, scale):
    # a second route for the driven sequence, collapse operators included: the
    # pulses as exp of the dense d^2 x d^2 Liouvillian, the interaction leg by
    # evolve_master (Magnus-4 on the whole lab space, collapse operators
    # unmapped), the closed twin from the lab propagator; no QUBIT_HADAMARD,
    # no sector blocks.  Both legs converge on the same 512-step grid, where
    # they agree to about 6e-13 at scale 1 (loss 2.4e-3) and at scale 100
    # (loss 0.20); collapse operators mapped by the identity instead of
    # QUBIT_HADAMARD miss by 3.0e-3 and 0.23
    lay, sched = SpaceLayout(4), preset_schedule
    d = lay.total_dim
    dec = preset_cfg.decoherence.scaled(scale)
    collapse = collapse_ops(dec, lay)
    settings = PropagationSettings(0.0, sched.t_int, 256, 1e-7, max_refinements=6)
    got = gate_fidelity_open(preset_params, sched, dec, lay, settings=settings)
    assert got.converged

    pulses = [(h_charge_qubit(preset_params, lay).entries, sched.tau1),
              (h_nv(preset_params, lay).entries, sched.tau2)]
    h_fun = lambda t: h_eff(preset_params, lay, t)
    closed = evolve_propagator(h_fun, settings)
    assert closed.converged
    twin_map = closed.unitary.entries
    pulse_map = np.eye(d * d)
    for h, tau in pulses:
        twin_map = twin_map @ scipy.linalg.expm(-1j * tau * h)
        pulse_map = scipy.linalg.expm(tau * dense_liouvillian(h, collapse)) @ pulse_map
    want = []
    for psi in standard_input_states(lay):
        rho = (pulse_map @ np.outer(psi.amplitudes, psi.amplitudes.conj()).reshape(-1)
               ).reshape(d, d)
        res = evolve_master(h_fun, DensityMatrix(lay, 0.5 * (rho + rho.conj().T)), collapse,
                            settings)
        assert res.converged
        twin = twin_map @ psi.amplitudes
        want.append(np.vdot(twin, res.rho.entries @ twin).real)
    assert 1.0 - np.mean(want) > (0.1 if scale == 100.0 else 1e-3)
    assert np.abs(np.array(got.fidelity_per_input) - want).max() < 1e-11
