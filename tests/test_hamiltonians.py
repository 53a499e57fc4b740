import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcps.hamiltonians import (
    SystemParams,
    effective_rabi,
    ej_of_flux,
    h_charge_qubit,
    h_drive,
    h_eff,
    h_interaction,
    h_nv,
    h_T,
    h_total_lab,
)
from hcps.hilbert import (
    SLOT_CHARGE,
    SLOT_SPIN,
    SpaceLayout,
    TermOperator,
    basis_state,
    build_annihilation,
    build_number,
    build_spin_ops,
    commutator,
    hermiticity_defect,
    identity,
)
from hcps.propagation import PropagationSettings, evolve_state

from test_acceptance import _random_parameter_set

TWO_PI = 2.0 * math.pi


def make_params(**overrides):
    base = dict(E_c=1.0, n_g=0.5, E_J0=TWO_PI * 2.2, flux_ratio=0.0,
                D_gs=TWO_PI * 2.87, gamma_B=-TWO_PI * 2.87, omega_r=0.0,
                Omega_mw=TWO_PI * 20.0, omega=1.0, g=TWO_PI * 0.01971,
                G=TWO_PI * 0.011, eps=0.0, omega_d=1.0)
    base.update(overrides)
    return SystemParams(**base)


# ----------------------------------------------------------------------
# flux formula
# ----------------------------------------------------------------------

def test_ej_zero_flux():
    assert ej_of_flux(3.7, 0.0) == 3.7


def test_ej_half_flux_vanishes():
    assert abs(ej_of_flux(3.7, 0.5)) < 1e-15


def test_ej_third_flux_halves():
    # cos(pi/3) = 1/2 at the 2.2 GHz-scale working point
    assert ej_of_flux(TWO_PI * 2.2, 1.0 / 3.0) == pytest.approx(TWO_PI * 1.1, rel=1e-14)


def test_ej_even_and_two_periodic():
    rng = np.random.default_rng(3)
    for x in rng.uniform(-3, 3, size=25):
        assert ej_of_flux(1.3, x) == pytest.approx(ej_of_flux(1.3, -x), abs=1e-12)
        assert ej_of_flux(1.3, x) == pytest.approx(ej_of_flux(1.3, x + 2.0), abs=1e-12)


# ----------------------------------------------------------------------
# charge qubit
# ----------------------------------------------------------------------

def test_charge_qubit_at_degeneracy():
    lay = SpaceLayout(2)
    p = make_params()
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    want = (-0.5 * p.zeta) * sx
    assert (h_charge_qubit(p, lay) - want).norm_max() < 1e-12


def test_charge_qubit_fully_off():
    lay = SpaceLayout(2)
    p = make_params(flux_ratio=0.5)
    assert h_charge_qubit(p, lay).norm_max() < 1e-12


def test_charge_qubit_sz_coefficient():
    lay = SpaceLayout(2)
    p = make_params(n_g=0.0, E_c=1.0, E_J0=0.0)
    sz = build_spin_ops(lay, SLOT_CHARGE).z
    assert (h_charge_qubit(p, lay) - (-2.0) * sz).norm_max() < 1e-12


# ----------------------------------------------------------------------
# spin qubit
# ----------------------------------------------------------------------

def test_nv_resonant_reduction():
    lay = SpaceLayout(2)
    p = make_params()
    assert p.omega_0 == pytest.approx(p.omega_r)
    want = 0.5 * p.Omega_mw * build_spin_ops(lay, SLOT_SPIN).x
    assert (h_nv(p, lay) - want).norm_max() < 1e-12


def test_nv_detuned_projector():
    lay = SpaceLayout(2)
    delta = 0.37
    p = make_params(Omega_mw=0.0, gamma_B=-TWO_PI * 2.87 + delta)
    h = h_nv(p, lay).entries
    up = lay.index(0, 0, 0)
    assert h[up, up] == pytest.approx(delta, rel=1e-12)
    # identity on charge and resonator slots: 2*2 copies of the projector
    assert np.abs(h).sum() == pytest.approx(4 * delta, rel=1e-12)


def test_nv_hermitian():
    lay = SpaceLayout(2)
    assert h_nv(make_params(gamma_B=0.3), lay).hermiticity_defect() == 0.0


# ----------------------------------------------------------------------
# lab-frame total Hamiltonian
# ----------------------------------------------------------------------

def test_total_lab_uncoupled_spectrum():
    # eigenvalues enumerate k*omega - (+/- zeta/2) - (+/- xi/2)
    lay = SpaceLayout(3)
    p = make_params(g=0.0, G=0.0, omega=1.3)
    got = np.sort(np.linalg.eigvalsh(h_total_lab(p, lay, 0.7).entries))
    want = np.sort([k * p.omega - sq * p.zeta / 2 - ss * p.xi / 2
                    for k in range(3) for sq in (1, -1) for ss in (1, -1)])
    np.testing.assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
def test_total_lab_hermitian(t):
    lay = SpaceLayout(3)
    assert h_total_lab(make_params(omega_r=2.1), lay, t).hermiticity_defect() < 1e-12


def test_total_lab_coupling_at_time_zero():
    lay = SpaceLayout(3)
    p = make_params(omega_r=2.1)
    a = build_annihilation(lay)
    quad = a + a.dagger()
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    Sx = build_spin_ops(lay, SLOT_SPIN).x
    want = (p.omega * build_number(lay) - 0.5 * p.zeta * sx - 0.5 * p.xi * Sx
            + p.g * (quad @ sx) + p.G * (quad @ Sx))
    assert (h_total_lab(p, lay, 0.0) - want).norm_max() < 1e-12


# ----------------------------------------------------------------------
# interaction picture
# ----------------------------------------------------------------------

def test_interaction_at_time_zero():
    lay = SpaceLayout(3)
    p = make_params(omega_r=2.1)
    a = build_annihilation(lay)
    ops = build_spin_ops(lay, SLOT_SPIN)
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    want = p.g * ((a + a.dagger()) @ sx) + p.G * (a.dagger() @ ops.minus + a @ ops.plus)
    assert (h_interaction(p, lay, 0.0) - want).norm_max() < 1e-12


def test_interaction_spin_term_conserves_excitations():
    # counter = photon number + spin-up projector commutes with the spin part
    lay = SpaceLayout(4)
    p = make_params(g=0.0, omega_r=2.1)
    ops = build_spin_ops(lay, SLOT_SPIN)
    counter = build_number(lay) + 0.5 * (ops.z + identity(lay))
    for t in (0.0, 0.4, 2.3):
        assert commutator(h_interaction(p, lay, t), counter).norm_max() < 1e-12


def test_interaction_hermitian_random_times():
    lay = SpaceLayout(3)
    p = make_params(omega_r=0.8)
    rng = np.random.default_rng(5)
    for t in rng.uniform(0, 10, size=5):
        assert h_interaction(p, lay, t).hermiticity_defect() < 1e-12


# ----------------------------------------------------------------------
# drive and effective Rabi rate
# ----------------------------------------------------------------------

def test_drive_at_time_zero():
    lay = SpaceLayout(3)
    p = make_params(eps=0.9)
    a = build_annihilation(lay)
    assert (h_drive(p, lay, 0.0) - 0.9 * (a + a.dagger())).norm_max() < 1e-12


def test_effective_rabi_epsilon_equals_delta():
    p = make_params(G=0.123, eps=1.0)      # Delta = 1
    assert effective_rabi(p) == pytest.approx(0.123)


def test_effective_rabi_linear_in_drive():
    p = make_params(G=TWO_PI * 0.011, eps=10.0)
    assert effective_rabi(p) == pytest.approx(TWO_PI * 0.11, rel=1e-12)


def test_effective_rabi_rejects_zero_detuning():
    p = make_params(omega_r=1.0)           # Delta = 0
    with pytest.raises(ValueError):
        effective_rabi(p)


# ----------------------------------------------------------------------
# driven total and effective Hamiltonians
# ----------------------------------------------------------------------

@pytest.mark.parametrize("builder", [h_total_lab, h_interaction, h_drive, h_T, h_eff],
                         ids=["h_total_lab", "h_interaction", "h_drive", "h_T", "h_eff"])
def test_builders_form_their_entries_bit_for_bit(builder):
    # a builder's entries, formed on first read from its pairs, real scalars
    # over exactly Hermitian constant matrices, against H0 + (X + X') built
    # densely here from the formulas
    lay = SpaceLayout(5)
    p = make_params(omega_r=2.1, eps=0.7, omega_d=1.3)
    t = 0.83
    a = build_annihilation(lay).entries
    ad = a.conj().T
    sx = build_spin_ops(lay, SLOT_CHARGE).x.entries
    spin = build_spin_ops(lay, SLOT_SPIN)
    Sx = spin.x.entries
    interaction = ((p.g * np.exp(1j * p.omega * t)) * (ad @ sx)
                   + (p.G * np.exp(1j * p.Delta * t)) * (ad @ spin.minus.entries))
    h0, x = {
        h_total_lab: (p.omega * (ad @ a) - (0.5 * p.zeta) * sx - (0.5 * p.xi) * Sx,
                      p.g * (ad @ sx)
                      + (p.G * np.exp(1j * p.omega_r * t)) * ((a + ad) @ spin.plus.entries)),
        h_interaction: (None, interaction),
        h_drive: (None, (p.eps * np.exp(-1j * p.omega_d * t)) * ad),
        h_T: (effective_rabi(p) * Sx, interaction),
        h_eff: (None, (p.g * np.exp(1j * p.omega * t)) * (ad @ sx)
                + (0.5 * p.G * np.exp(1j * p.Delta * t)) * (ad @ Sx)),
    }[builder]
    want = x + x.conj().T
    if h0 is not None:
        want = h0 + want
    got = builder(p, lay, t)
    assert isinstance(got, TermOperator) and "entries" not in vars(got)
    assert all(not np.iscomplexobj(s) and hermiticity_defect(g) == 0 for s, g in got.pairs)
    assert np.array_equal(got.entries, want)
    assert not got.entries.flags.writeable


def test_h_T_reduces_to_interaction_without_drive():
    lay = SpaceLayout(3)
    p = make_params(eps=0.0, omega_r=2.1)
    for t in (0.0, 0.9):
        assert (h_T(p, lay, t) - h_interaction(p, lay, t)).norm_max() < 1e-13


def test_h_T_bare_drive_rotation():
    lay = SpaceLayout(2)
    p = make_params(g=0.0, G=1e-6, eps=2.0e6)   # Omega' = 2 with negligible couplings
    want = effective_rabi(p) * build_spin_ops(lay, SLOT_SPIN).x
    assert (h_T(p, lay, 0.3) - want).norm_max() < 1e-5


def test_h_eff_at_time_zero():
    lay = SpaceLayout(3)
    p = make_params(omega_r=2.1)
    a = build_annihilation(lay)
    quad = a + a.dagger()
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    Sx = build_spin_ops(lay, SLOT_SPIN).x
    want = p.g * (quad @ sx) + 0.5 * p.G * (quad @ Sx)
    assert (h_eff(p, lay, 0.0) - want).norm_max() < 1e-12


def test_h_eff_commutes_with_both_x_operators():
    lay = SpaceLayout(4)
    p = make_params(omega_r=0.4)
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    Sx = build_spin_ops(lay, SLOT_SPIN).x
    for t in (0.0, 0.7, 3.1):
        h = h_eff(p, lay, t)
        assert commutator(h, sx).norm_max() < 1e-12
        assert commutator(h, Sx).norm_max() < 1e-12
        assert commutator(h, sx @ Sx).norm_max() < 1e-12


def test_h_eff_displaced_oscillator_returns_to_vacuum():
    # g = 0: the spin x eigenstate drives a closed displacement loop,
    # back to vacuum after one full detuning period
    lay = SpaceLayout(12)
    p = make_params(g=0.0, omega_r=0.0)     # Delta = omega = 1
    plus = (basis_state(lay, 0, 0, 0).amplitudes + basis_state(lay, 1, 0, 0).amplitudes) / np.sqrt(2)
    psi0 = basis_state(lay, 0, 0, 0)
    psi0 = psi0.__class__(lay, plus)
    settings = PropagationSettings(t0=0.0, t1=TWO_PI / p.Delta, steps=512, tolerance=1e-9)
    res = evolve_state(lambda t: h_eff(p, lay, t), psi0, settings)
    assert res.converged
    pops = np.abs(res.state.amplitudes) ** 2
    vac = sum(pops[lay.index(s, c, 0)] for s in range(2) for c in range(2))
    assert 1.0 - vac < 1e-8


def test_params_reject_non_finite():
    with pytest.raises(ValueError):
        make_params(g=float("nan"))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(min_value=-100.0, max_value=100.0))
def test_builders_hermitian_on_random_parameter_sets(seed, t):
    # parameter sets drawn exactly as acceptance criterion 2 draws them
    p = _random_parameter_set(np.random.default_rng(seed))
    lay = SpaceLayout(5)
    for build in (h_total_lab, h_interaction, h_drive, h_T, h_eff):
        assert build(p, lay, t).hermiticity_defect() < 1e-12, build.__name__
    for op in (h_charge_qubit(p, lay), h_nv(p, lay)):
        assert op.hermiticity_defect() < 1e-12
