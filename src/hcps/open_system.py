"""Lindblad master-equation evolution for the gate sequence.

Decoherence enters through the standard dissipator set: energy relaxation
sigma_minus at rate 1/T1 and pure dephasing sigma_z/sqrt(2) at rate
1/T_phi, per qubit, with 1/T_phi = 1/T2 - 1/(2 T1), plus optional resonator
decay a at rate kappa.  With these normalizations a lone dephasing channel
decays an off-diagonal element as exp(-t/T_phi) and the T1 channel
contributes the remaining exp(-t/(2 T1)) of the total T2 law.

The integrator is a symmetric (Strang) split: a half step of the dissipator
(midpoint rule), a full unitary step exp(-i H(t_mid) dt) applied by
conjugation, and another dissipator half step.  Every piece preserves the
trace to rounding and the scheme is second order.  One leg runner applies
it to the single leg of :func:`evolve_master` and to each pulse of
:func:`gate_fidelity_open`, and judges the trace drift of both; its step
unitaries come from the generic midpoint generator of
:mod:`hcps.propagation` (evolve_master), a constant-Hamiltonian provider
(the qubit pulses) or the sector-block joint steps of :mod:`hcps.wei_norman`
(the interaction leg), and the step-doubling driver of
:mod:`hcps.propagation` refines each leg.  Density matrices never leave the
d x d representation (no superoperators), which keeps the default Fock
cutoff of 12 comfortable.

Dissipators are applied in the frame in which h_eff is written; frame
corrections to the collapse operators under the strong drive are out of
scope and the time constants are config inputs, so both the charge-qubit
and the spin-qubit coherence presets can be explored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .gates import PulseSchedule
from .hamiltonians import SystemParams, h_charge_qubit, h_nv
from .hilbert import (
    Operator, SLOT_CHARGE, SLOT_SPIN, SpaceLayout, StateVector, build_annihilation,
    build_spin_ops, expm_hermitian,
)
from .propagation import PropagationSettings, _check_hermitian, midpoint_steps, step_doubling
from .wei_norman import dressed_basis, dressed_transform, joint_step_unitaries

US_TO_NS = 1.0e3

TRACE_DRIFT_LIMIT = 1e-6


@dataclass(frozen=True)
class DecoherenceParams:
    """Coherence times in microseconds (gate dynamics run in ns internally).

    The spin qubit's relaxation time is orders of magnitude beyond every
    other scale (milliseconds to seconds), so it defaults to infinity; a
    rate twelve decades below the others adds stiffness and nothing else.
    """

    T1_charge_us: float = 1.5
    T2_charge_us: float = 2.05
    T2_spin_us: float = 350.0
    T1_spin_us: float = math.inf
    kappa_res: float = 0.0       # rad/ns

    def __post_init__(self):
        for name in ("T1_charge_us", "T2_charge_us", "T2_spin_us", "T1_spin_us", "kappa_res"):
            if getattr(self, name) < 0:
                raise ValueError(f"DecoherenceParams.{name} must be nonnegative")
        for label, t1, t2 in (("charge", self.T1_charge_us, self.T2_charge_us),
                              ("spin", self.T1_spin_us, self.T2_spin_us)):
            if t2 > 2.0 * t1:
                raise ValueError(
                    f"{label} qubit has T2 = {t2} us > 2*T1 = {2*t1} us; the pure "
                    "dephasing rate would be negative")

    def replace(self, **changes) -> "DecoherenceParams":
        return replace(self, **changes)

    def scaled(self, factor: float) -> "DecoherenceParams":
        """All decay rates multiplied by factor (times divided)."""
        if factor < 0:
            raise ValueError("rate scale factor must be nonnegative")
        if factor == 0.0:
            return DecoherenceParams(math.inf, math.inf, math.inf, math.inf, 0.0)
        return DecoherenceParams(
            T1_charge_us=self.T1_charge_us / factor,
            T2_charge_us=self.T2_charge_us / factor,
            T2_spin_us=self.T2_spin_us / factor,
            T1_spin_us=self.T1_spin_us / factor,
            kappa_res=self.kappa_res * factor,
        )


def pure_dephasing_rate(t1_us: float, t2_us: float) -> float:
    """1/T_phi = 1/T2 - 1/(2 T1), returned in 1/ns."""
    if t2_us == math.inf:
        inv_t2 = 0.0
    else:
        inv_t2 = 1.0 / t2_us
    inv_2t1 = 0.0 if t1_us == math.inf else 0.5 / t1_us
    rate_us = inv_t2 - inv_2t1
    if rate_us < -1e-15:
        raise ValueError(f"negative pure-dephasing rate from T1 = {t1_us}, T2 = {t2_us}")
    return max(0.0, rate_us) / US_TO_NS


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on the composite space; validated on construction."""

    layout: SpaceLayout
    entries: np.ndarray = field(repr=False)

    HERMITIAN_TOL = 1e-10
    TRACE_TOL = 1e-9
    EIGEN_FLOOR = -1e-9

    def __post_init__(self):
        entries = np.array(self.entries, dtype=np.complex128, copy=True)
        d = self.layout.total_dim
        if entries.shape != (d, d):
            raise ValueError(f"density matrix shape {entries.shape} does not match dim {d}")
        if np.abs(entries - entries.conj().T).max() > self.HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian to tolerance")
        if abs(entries.trace() - 1.0) > self.TRACE_TOL:
            raise ValueError(f"density matrix trace {entries.trace()} is not 1")
        if np.linalg.eigvalsh(entries).min() < self.EIGEN_FLOOR:
            raise ValueError("density matrix has an eigenvalue below the PSD floor")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        amp = psi.amplitudes
        return cls(psi.layout, np.outer(amp, amp.conj()))

    def trace_defect(self) -> float:
        return float(abs(self.entries.trace() - 1.0))


@dataclass(frozen=True)
class MasterResult:
    rho: DensityMatrix
    converged: bool
    trace_defect: float
    steps_used: int


def collapse_ops(dec: DecoherenceParams, layout: SpaceLayout
                 ) -> list[tuple[Operator, float]]:
    """(operator, rate 1/ns) pairs; zero-rate channels are omitted entirely."""
    charge = build_spin_ops(layout, SLOT_CHARGE)
    spin = build_spin_ops(layout, SLOT_SPIN)
    out: list[tuple[Operator, float]] = []

    inv = lambda t_us: 0.0 if t_us == math.inf else 1.0 / (t_us * US_TO_NS)
    pairs = [
        (charge.minus, inv(dec.T1_charge_us)),
        ((1.0 / math.sqrt(2.0)) * charge.z, pure_dephasing_rate(dec.T1_charge_us, dec.T2_charge_us)),
        (spin.minus, inv(dec.T1_spin_us)),
        ((1.0 / math.sqrt(2.0)) * spin.z, pure_dephasing_rate(dec.T1_spin_us, dec.T2_spin_us)),
        (build_annihilation(layout), dec.kappa_res),
    ]
    for op, rate in pairs:
        if rate > 0.0:
            out.append((op, float(rate)))
    return out


# ----------------------------------------------------------------------
# integrator
# ----------------------------------------------------------------------

def _dissipator(collapse: Sequence[tuple[np.ndarray, float]]):
    """Precompiled dissipator RHS; returns None when there are no channels."""
    if not collapse:
        return None
    scaled = [math.sqrt(rate) * np.asarray(l, dtype=np.complex128) for l, rate in collapse]
    lds = [l.conj().T for l in scaled]
    anticomm = sum(ld @ l for l, ld in zip(scaled, lds))

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = -0.5 * (anticomm @ rho + rho @ anticomm)
        for l, ld in zip(scaled, lds):
            out += l @ rho @ ld
        return out

    return rhs


def _leg_pass(step_unitaries: Iterable[np.ndarray], half: float, rhos: np.ndarray,
              psis: np.ndarray, dissipator) -> tuple[np.ndarray, np.ndarray]:
    """One Strang-split resolution of one leg; inputs stacked along the leading axis.

    Each step is a dissipator half step of length half (midpoint rule), the
    step unitary applied by conjugation, and another dissipator half step.
    The closed reference states psis ride along on exactly those factors, so
    the zero-rate limit reproduces the closed evolution identically rather
    than merely to tolerance.  The dissipator RHS broadcasts over the stack.
    """
    for u in step_unitaries:
        if dissipator is not None:
            rhos = rhos + half * dissipator(rhos + 0.5 * half * dissipator(rhos))
        rhos = u @ rhos @ u.conj().T
        psis = psis @ u.T
        if dissipator is not None:
            rhos = rhos + half * dissipator(rhos + 0.5 * half * dissipator(rhos))
    return rhos, psis


def _constant_steps(h: np.ndarray, duration: float):
    _check_hermitian(h, 0.0)

    def provider(steps: int):
        return itertools.repeat(expm_hermitian(h, -1j * (duration / steps)), steps)

    return provider


def _run_legs(legs, rhos: np.ndarray, psis: np.ndarray, dissipator,
              settings: PropagationSettings
              ) -> tuple[np.ndarray, np.ndarray, bool, float, int]:
    """Step-doubled Strang legs, (duration, step-unitary provider) pairs, in order.

    Each leg converges on its density matrices.  Returns the final stacks,
    whether every leg converged and the worst trace defect stayed within
    TRACE_DRIFT_LIMIT, that defect, and the finest grid any leg needed.
    """
    converged = True
    steps_max = 0
    for duration, provider in legs:
        (rhos, psis), leg_converged, steps = step_doubling(
            lambda steps: _leg_pass(provider(steps), 0.5 * duration / steps, rhos, psis,
                                    dissipator),
            lambda r: r[0], settings)
        converged &= leg_converged
        steps_max = max(steps_max, steps)
    traces = np.einsum("kii->k", rhos)
    trace_defect = float(np.abs(traces - 1.0).max())
    return rhos, psis, converged and trace_defect <= TRACE_DRIFT_LIMIT, trace_defect, steps_max


def evolve_master(h_fun: Callable[[float], Operator], rho0: DensityMatrix,
                  collapse: Sequence[tuple[Operator, float]],
                  settings: PropagationSettings) -> MasterResult:
    """Integrate d rho/dt = -i[H, rho] + sum_k rate_k D[L_k] rho.

    Step-doubled like the closed-system propagator; trace drift beyond 1e-6
    clears the converged flag rather than raising.
    """
    layout = rho0.layout
    t0, t1 = settings.t0, settings.t1

    def h_mat(t: float) -> np.ndarray:
        return h_fun(t).entries

    legs = [(t1 - t0, partial(midpoint_steps, h_mat, t0, t1))]
    dissipator = _dissipator([(op.entries, rate) for op, rate in collapse])
    no_states = np.zeros((0, layout.total_dim), dtype=np.complex128)
    rhos, _, converged, trace_defect, steps = _run_legs(
        legs, rho0.entries[None], no_states, dissipator, settings)

    rho = 0.5 * (rhos[0] + rhos[0].conj().T)    # strip rounding-level asymmetry
    return MasterResult(
        rho=DensityMatrix(layout, rho),
        converged=converged,
        trace_defect=trace_defect,
        steps_used=steps,
    )


# ----------------------------------------------------------------------
# full-sequence open-system fidelity
# ----------------------------------------------------------------------

def standard_input_states(layout: SpaceLayout) -> list[StateVector]:
    """The four dressed basis states plus two superpositions, resonator in vacuum.

    Superpositions: (gg + ee)/sqrt(2) and the uniform (gg + ge + eg + ee)/2.
    """
    n = layout.fock_cutoff
    v = dressed_basis()
    states = []

    def lift(qubit4: np.ndarray) -> StateVector:
        amp = np.zeros(layout.total_dim, dtype=np.complex128)
        amp[np.arange(4) * n] = qubit4
        return StateVector(layout, amp)

    for col in range(4):
        states.append(lift(v[:, col]))
    states.append(lift((v[:, 0] + v[:, 3]) / math.sqrt(2.0)))
    states.append(lift((v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) / 2.0))
    return states


@dataclass(frozen=True)
class OpenGateResult:
    fidelity_avg: float
    fidelity_per_input: tuple[float, ...]
    trace_defect: float
    converged: bool

    @property
    def fidelity_loss(self) -> float:
        return 1.0 - self.fidelity_avg


def _sequence_legs(params: SystemParams, schedule: PulseSchedule, layout: SpaceLayout,
                   trans: np.ndarray):
    """(duration, step-unitary provider) per pulse, in order, in the sector-block basis.

    The joint leg's step unitaries are cheap in the sector-block (dressed)
    basis; the two qubit Hamiltonians are conjugated into it by trans once.
    """
    return [
        (schedule.tau1, _constant_steps(trans @ h_charge_qubit(params, layout).entries @ trans,
                                        schedule.tau1)),
        (schedule.tau2, _constant_steps(trans @ h_nv(params, layout).entries @ trans,
                                        schedule.tau2)),
        (schedule.t_int,
         lambda steps: joint_step_unitaries(params, layout, schedule.t_int, steps)),
    ]


def gate_fidelity_open(params: SystemParams, schedule: PulseSchedule,
                       dec: DecoherenceParams, layout: SpaceLayout, *,
                       settings: PropagationSettings) -> OpenGateResult:
    """Average fidelity of the dissipative gate run against its closed twin.

    Each standard input is evolved through the three-pulse sequence under
    the Lindblad equation and scored as <psi_closed| rho |psi_closed>, where
    psi_closed follows the identical sequence with every rate at zero on the
    same step grid; with an empty dissipator set the two computations
    coincide exactly.  The whole sequence runs in the sector-block basis
    (inputs and collapse operators are conjugated into it once); fidelities
    and traces do not depend on the basis.
    """
    trans = dressed_transform(layout)     # real, symmetric and its own inverse
    dissipator = _dissipator([(trans @ op.entries @ trans, rate)
                              for op, rate in collapse_ops(dec, layout)])
    inputs = standard_input_states(layout)
    rhos = trans @ np.stack([DensityMatrix.from_state(s).entries for s in inputs]) @ trans
    psis = np.stack([s.amplitudes for s in inputs]) @ trans

    rhos, psis, converged, trace_defect, _ = _run_legs(
        _sequence_legs(params, schedule, layout, trans), rhos, psis, dissipator, settings)
    fids = tuple(float(np.real(np.vdot(psi, rho @ psi))) for psi, rho in zip(psis, rhos))
    return OpenGateResult(
        fidelity_avg=float(np.mean(fids)),
        fidelity_per_input=fids,
        trace_defect=trace_defect,
        converged=converged,
    )


LINDBLAD_CSV_HEADER = "scale_factor,fidelity_avg,trace_defect"


def write_lindblad_csv(path, rows: Sequence[tuple[float, float, float]]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LINDBLAD_CSV_HEADER + "\n")
        for scale, fid, defect in rows:
            fh.write(f"{scale:.17g},{fid:.17g},{defect:.17g}\n")
