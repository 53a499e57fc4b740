"""Hamiltonian builders for the spin-qubit / charge-qubit / resonator system.

Every builder returns a Hermitian :class:`~hcps.hilbert.Operator` on the
composite space (or a scalar for pure parameter formulas).  All frequencies
are ANGULAR, in rad/ns, with hbar = 1; config-file unit tags are converted
once at load time (see :mod:`hcps.config`) so nothing here ever touches a
unit string.

The model, bottom up:

* charge qubit biased near its degeneracy point, Josephson energy tuned by
  an external flux:  H_q = -4 E_c (1/2 - n_g) sigma_z - (1/2) E_J(Phi) sigma_x
  with E_J(Phi) = E_J0 cos(pi Phi/Phi_0);
* spin qubit in the frame rotating at its microwave drive frequency:
  H_s = (omega_0 - omega_r)|up><up| + (Omega/2) S_x, resonantly reduced to
  (Omega/2) S_x;
* both qubits couple transversally to one resonator mode.  In the
  interaction picture after the rotating-wave approximation the qubit-mode
  couplings oscillate at omega (charge side) and Delta = omega - omega_r
  (spin side);
* a strong resonator drive enters only through the effective spin Rabi rate
  Omega' = G eps / Delta, and averaging over the fast Omega' rotation leaves
  the effective generator h_eff used for gate synthesis.

h_eff commutes with both sigma_x and S_x at all times, which is what makes
the propagator factorizable (see :mod:`hcps.wei_norman`).

Each time-dependent builder returns a :class:`~hcps.hilbert.TermOperator`,
real scalars over constant Hermitian matrices of one per-layout cache.  A
coupling c M + conj(c) M' (M one of a' sigma_x, a' S_x, a' S-, (a + a') S+,
a') is two pairs, Re c over M + M' and Im c over i (M - M'): for the charge
qubit, g cos(omega t) (a + a') sigma_x + g sin(omega t) i (a' - a) sigma_x.
The dense entries are formed only when read; the generic integrator of
:mod:`hcps.propagation` reads the pairs instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .hilbert import (
    Operator,
    SLOT_CHARGE,
    SLOT_SPIN,
    SpaceLayout,
    TermOperator,
    build_annihilation,
    build_spin_ops,
    identity,
)


def ej_of_flux(E_J0: float, flux_ratio: float) -> float:
    """Flux-tuned Josephson energy E_J0 * cos(pi * Phi/Phi_0).

    Even and 2-periodic in flux_ratio; zero at half-integer flux, which is
    the idle setting for unselected charge qubits.
    """
    return E_J0 * math.cos(math.pi * flux_ratio)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and frame conventions for one run (rad/ns, hbar=1).

    Attributes
    ----------
    E_c : float
        Charge-qubit charging energy.
    n_g : float
        Dimensionless gate charge; 1/2 is the degeneracy point.
    E_J0, flux_ratio : float
        Bare Josephson energy and Phi/Phi_0 through the qubit loop.
    D_gs, gamma_B : float
        Spin-qubit zero-field splitting and Zeeman shift (gamma*|B|); the
        qubit gap is omega_0 = D_gs + gamma_B.
    omega_r, Omega_mw : float
        Spin microwave drive frequency and Rabi rate Omega.
    omega : float
        Resonator frequency.
    g, G : float
        Charge-resonator and spin-resonator coupling strengths.
    eps, omega_d : float
        Resonator drive amplitude (constant over a run) and drive frequency.
        The drive enters the default pipeline only through the effective
        Rabi rate Omega' = G*eps/Delta.
    """

    E_c: float
    n_g: float
    E_J0: float
    flux_ratio: float
    D_gs: float
    gamma_B: float
    omega_r: float
    Omega_mw: float
    omega: float
    g: float
    G: float
    eps: float = 0.0
    omega_d: float = 0.0

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"SystemParams.{name} must be finite, got {value!r}")

    # -- derived quantities ---------------------------------------------

    @property
    def zeta(self) -> float:
        """Working Josephson energy E_J(Phi)."""
        return ej_of_flux(self.E_J0, self.flux_ratio)

    @property
    def xi(self) -> float:
        """Spin rotation rate, xi = -Omega."""
        return -self.Omega_mw

    @property
    def Delta(self) -> float:
        """Spin-side interaction-picture detuning, omega - omega_r."""
        return self.omega - self.omega_r

    @property
    def omega_0(self) -> float:
        """Spin qubit gap D_gs + gamma*|B|."""
        return self.D_gs + self.gamma_B

    def replace(self, **changes) -> "SystemParams":
        return replace(self, **changes)


def effective_rabi(params: SystemParams) -> float:
    """Effective spin Rabi rate Omega' = G * eps / Delta of the strong drive."""
    if params.Delta == 0.0:
        raise ValueError("effective Rabi rate undefined at Delta = 0")
    return params.G * params.eps / params.Delta


@lru_cache(maxsize=8)
def _constants(layout: SpaceLayout) -> dict:
    """Read-only constant matrices of one layout."""
    spin = build_spin_ops(layout, SLOT_SPIN)
    charge = build_spin_ops(layout, SLOT_CHARGE)
    a = build_annihilation(layout).entries
    mats = {"Sx": spin.x.entries, "up_proj": 0.5 * (spin.z + identity(layout)).entries,
            "sx": charge.x.entries, "sz": charge.z.entries, "n": a.conj().T @ a}
    for m in mats.values():
        m.setflags(write=False)
    return mats


@lru_cache(maxsize=40)
def _quadratures(layout: SpaceLayout, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Hermitian pair (M + M', i (M - M')) of the coupling product
    M named (a', a' sigma_x, a' S_x, a' S- or (a + a') S+), formed on first use
    and kept for five products on each of _constants' eight layouts."""
    spin = build_spin_ops(layout, SLOT_SPIN)
    a = build_annihilation(layout).entries
    ad = a.conj().T
    m = {"ad": ad, "ad_sx": ad @ build_spin_ops(layout, SLOT_CHARGE).x.entries,
         "ad_Sx": ad @ spin.x.entries, "ad_Sm": ad @ spin.minus.entries,
         "a_plus_ad_Sp": (a + ad) @ spin.plus.entries}[name]
    pair = (m + m.conj().T, 1j * (m - m.conj().T))
    for q in pair:
        q.setflags(write=False)
    return pair


def _coupling(layout: SpaceLayout, name: str, c: complex) -> tuple:
    """c M + conj(c) M' of the coupling product name, as the pairs
    (Re c, M + M') and (Im c, i (M - M'))."""
    sym, anti = _quadratures(layout, name)
    return (c.real, sym), (c.imag, anti)


def _interaction_pairs(params: SystemParams, layout: SpaceLayout, t: float) -> tuple:
    """h_interaction's pairs: g e^{i omega t} a' sigma_x + G e^{i Delta t} a' S-, plus h.c."""
    return (_coupling(layout, "ad_sx", params.g * np.exp(1j * params.omega * t))
            + _coupling(layout, "ad_Sm", params.G * np.exp(1j * params.Delta * t)))


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

def h_charge_qubit(params: SystemParams, layout: SpaceLayout) -> Operator:
    """Charge qubit alone: -4 E_c (1/2 - n_g) sigma_z - (zeta/2) sigma_x.

    At the degeneracy point n_g = 1/2 the sigma_z term vanishes identically
    and the qubit rotates purely about x.
    """
    m = _constants(layout)
    return Operator(layout, m["sz"] * complex(-4.0 * params.E_c * (0.5 - params.n_g))
                    - m["sx"] * complex(0.5 * params.zeta))


def h_nv(params: SystemParams, layout: SpaceLayout) -> Operator:
    """Spin qubit in its microwave rotating frame.

    (omega_0 - omega_r)|up><up| + (Omega/2) S_x; on resonance this is just
    (Omega/2) S_x.
    """
    m = _constants(layout)
    return Operator(layout, m["up_proj"] * complex(params.omega_0 - params.omega_r)
                    + m["Sx"] * complex(0.5 * params.Omega_mw))


def h_total_lab(params: SystemParams, layout: SpaceLayout, t: float) -> TermOperator:
    """Full lab-frame Hamiltonian of the coupled system at time t.

    omega a'a - (zeta/2) sigma_x - (xi/2) S_x + g (a + a') sigma_x
      + G (a + a') (S+ e^{i omega_r t} + S- e^{-i omega_r t})
    """
    m = _constants(layout)
    return TermOperator(layout, (
        (params.g, _quadratures(layout, "ad_sx")[0]),
        *_coupling(layout, "a_plus_ad_Sp", params.G * np.exp(1j * params.omega_r * t)),
        (params.omega, m["n"]), (-0.5 * params.zeta, m["sx"]), (-0.5 * params.xi, m["Sx"])))


def h_interaction(params: SystemParams, layout: SpaceLayout, t: float) -> TermOperator:
    """Interaction-picture Hamiltonian after the rotating-wave approximation.

    g (a' e^{i omega t} + a e^{-i omega t}) sigma_x
      + G (a' S- e^{i Delta t} + a S+ e^{-i Delta t})
    """
    return TermOperator(layout, _interaction_pairs(params, layout, t))


def h_drive(params: SystemParams, layout: SpaceLayout, t: float) -> TermOperator:
    """External resonator drive eps (a' e^{-i omega_d t} + a e^{i omega_d t}).

    Kept for validation runs; the default pipeline folds the drive into the
    effective Rabi rate Omega' instead of integrating it directly.
    """
    c = params.eps * np.exp(-1j * params.omega_d * t)
    return TermOperator(layout, _coupling(layout, "ad", c))


def h_T(params: SystemParams, layout: SpaceLayout, t: float) -> TermOperator:
    """Driven interaction Hamiltonian: h_interaction + Omega' S_x."""
    return TermOperator(layout, _interaction_pairs(params, layout, t)
                        + ((effective_rabi(params), _constants(layout)["Sx"]),))


def h_eff(params: SystemParams, layout: SpaceLayout, t: float) -> TermOperator:
    """Effective generator after averaging over the strong Omega' rotation.

    g (a' e^{i omega t} + a e^{-i omega t}) sigma_x
      + (G/2) (a' e^{i Delta t} + a e^{-i Delta t}) S_x

    Both qubit operators appear only through sigma_x and S_x, so h_eff
    commutes with each of them at every time and is block-diagonal in their
    joint eigenbasis; within one (s1, s2) eigensector it is a linearly
    driven oscillator; :func:`hcps.wei_norman.sector_amplitude` gives the
    drive of any stack of sectors.
    """
    return TermOperator(layout, (
        _coupling(layout, "ad_sx", params.g * np.exp(1j * params.omega * t))
        + _coupling(layout, "ad_Sx", 0.5 * params.G * np.exp(1j * params.Delta * t))))
