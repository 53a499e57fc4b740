"""Three-step controlled-phase gate: composition, calibration and scoring.

The sequence is three commuting rotations,

    U1 = exp(i zeta sigma_x tau1 / 2)   charge qubit, Josephson rotation
    U2 = exp(i xi S_x tau2 / 2)         spin qubit, microwave rotation
    U3 = exp(-i A sigma_x S_x)          joint phase from the resonator bus

and under the phase conditions zeta*tau1/2 = xi*tau2/2 = A = eta (each mod
2 pi) it collapses to exp[i eta (sigma_x + S_x - sigma_x S_x)].  In the
dressed basis (joint x eigenbasis, order gg, ge, eg, ee with g the -1
eigenstate) that is diag(e^{-3i eta}, e^{i eta}, e^{i eta}, e^{i eta}), a
controlled-phase gate with corner phase e^{-4i eta} up to a global factor.

eta is therefore the whole game:

* e^{-4i eta} = -1, i.e. eta = pi/4 + k pi/2, gives the controlled-Z matrix
  diag(1, 1, 1, -1);
* the value this construction is usually quoted with, eta = pi/8
  (ETA_PAPER), gives corner phase -i instead, a controlled-S-dagger
  pattern.  Both values are computed and reported so the conflict is
  visible.

calibrate_eta adjudicates in closed form (the ideal form is diagonal, so its
overlap with a diagonal target is maximized exactly); compose_sequence builds
the gate with the numerically extracted joint phase A and scores it.  The corner
carrying the special phase is a labeling convention (gg here, ee in the
usual controlled-Z matrix); fidelity and phase distance are optimized over
the deterministic relabeling g <-> e on both qubits and the choice is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hamiltonians import SystemParams
from .hilbert import Operator, SLOT_CHARGE, SLOT_SPIN, SpaceLayout, build_spin_ops, unitarity_defect
from .propagation import PropagationSettings
from .wei_norman import (
    CommensurateTime,
    OracleResult,
    closed_form_A,
    coefficients_oracle,
    commensurate_time,
    dressed_basis,
    oracle_at_periods,  # not called here; perfbench's tracer patches this module's binding
    oracle_power,
)

TWO_PI = 2.0 * math.pi

ETA_PAPER = math.pi / 8.0   # the quoted eta; every pi/8 + m pi/2 has the same corner phase

CONDITION_TOL = 1e-6        # largest miss of a schedule phase condition

UNITARY_INPUT_TOL = 1e-6


class ScheduleConditionError(ValueError):
    """A phase condition of the composed sequence is violated beyond tolerance."""


class TruncationError(ArithmeticError):
    """The composed gate's vacuum block is not unitary: the Fock cutoff is too small."""


@dataclass(frozen=True)
class PulseSchedule:
    """Durations and phase bookkeeping for one gate run.

    The interaction leg, t_int long, repeats the disentangling window `periods` times.
    """

    tau1: float
    tau2: float
    eta: float
    window: CommensurateTime
    periods: int = 1

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.tau1, self.tau2, self.window.t)):
            raise ValueError("all schedule durations must be finite and positive")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")

    @property
    def t_int(self) -> float:
        return self.window.t * self.periods


class EtaCalibration(NamedTuple):
    eta_star: float
    fidelity_star: float
    relabeling: str
    eta_paper: float
    fidelity_paper: float


@dataclass(frozen=True)
class GateReport:
    """Synthesized two-qubit block, its score against the target, diagnostics,
    and the interaction-leg oracle it was scored with (its converged flag is the run's)."""

    synthesized: np.ndarray = field(repr=False)
    fidelity_avg: float
    phase_distance: float
    leakage: float
    eta_used: float
    eta_paper: float
    gate_time_ns: float
    relabeling: str
    discrepancy_notes: tuple[dict, ...]
    schedule: PulseSchedule
    fidelity_paper_eta: float
    top_level_population: float
    oracle: OracleResult = field(repr=False)


# ----------------------------------------------------------------------
# elementary unitaries
# ----------------------------------------------------------------------

def _rotation(g: np.ndarray, angle: float, layout: SpaceLayout) -> Operator:
    """exp(i angle G) = cos(angle) + i sin(angle) G for a G with G^2 = 1."""
    eye = np.eye(layout.total_dim)
    return Operator(layout, math.cos(angle) * eye + 1j * math.sin(angle) * g)


def u1(zeta: float, tau: float, layout: SpaceLayout) -> Operator:
    """Charge-qubit rotation exp(i zeta sigma_x tau / 2)."""
    sx = build_spin_ops(layout, SLOT_CHARGE).x.entries
    return _rotation(sx, 0.5 * zeta * tau, layout)


def u2(xi: float, tau: float, layout: SpaceLayout) -> Operator:
    """Spin-qubit rotation exp(i xi S_x tau / 2)."""
    Sx = build_spin_ops(layout, SLOT_SPIN).x.entries
    return _rotation(Sx, 0.5 * xi * tau, layout)


def u3(a_phase: float, layout: SpaceLayout) -> Operator:
    """Joint phase exp(-i A sigma_x S_x); equals cos A - i sin A sigma_x S_x."""
    sx = build_spin_ops(layout, SLOT_CHARGE).x.entries
    Sx = build_spin_ops(layout, SLOT_SPIN).x.entries
    return _rotation(Sx @ sx, -a_phase, layout)


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------

def eq_phase_form(eta: float) -> np.ndarray:
    """Ideal dressed-basis gate exp[i eta (sx + Sx - sx Sx)] = diag pattern."""
    return np.diag(np.exp(1j * eta * np.array([-3.0, 1.0, 1.0, 1.0])))


def ideal_cp_target() -> np.ndarray:
    """Controlled-Z pattern diag(1, 1, 1, -1)."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)


def controlled_minus_i_target() -> np.ndarray:
    """Controlled phase with -i corner, the gate the quoted eta branch realizes."""
    return np.diag([1.0, 1.0, 1.0, -1.0j]).astype(np.complex128)


TARGETS = {
    "cz": ideal_cp_target,
    "controlled_minus_i": controlled_minus_i_target,
}

_RELABEL = np.eye(4)[[3, 2, 1, 0]].astype(np.complex128)   # g <-> e on both qubits


@dataclass(frozen=True)
class GateOptions:
    """The config's `gate` section: synthesize_gate's target (a TARGETS key),
    eta (None calibrates it), and the bounds of its two searches, max_n on
    the disentangling time (commensurate_time) and max_periods on its repeats."""

    target: str = "cz"
    eta: float | None = None
    max_n: int = 8
    max_periods: int = 64

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; choose from {sorted(TARGETS)}")
        for name in ("max_n", "max_periods"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def relabel_corners(u: np.ndarray) -> np.ndarray:
    return _RELABEL @ u @ _RELABEL


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------

def _check_unitary(u: np.ndarray, name: str):
    defect = unitarity_defect(u)
    if defect >= UNITARY_INPUT_TOL:
        raise ValueError(f"{name} is not unitary to {UNITARY_INPUT_TOL} (defect {defect:.3e})")


def _overlap(u: np.ndarray, v: np.ndarray) -> complex:
    """Tr(V'U) of two unitaries, each checked to UNITARY_INPUT_TOL."""
    _check_unitary(u, "first argument")
    _check_unitary(v, "second argument")
    return np.trace(v.conj().T @ u)


def gate_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Average gate fidelity (|Tr(V'U)|^2 + d) / (d(d+1)); phase invariant."""
    d = u.shape[0]
    return float((abs(_overlap(u, v)) ** 2 + d) / (d * (d + 1)))


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance min over phi of ||U - e^{i phi} V||.

    The optimal phase is e^{i phi} = Tr(V'U)/|Tr(V'U)| (1 when the trace
    vanishes), and the norm is taken directly: the equal value
    sqrt(2d - 2|Tr(V'U)|) cancels and keeps only about half the digits.
    """
    tr = _overlap(u, v)
    phase = tr / abs(tr) if tr != 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def _best_relabeling(u: np.ndarray, target: np.ndarray) -> tuple[float, float, str]:
    """(fidelity, phase_distance, label) optimized over the corner relabeling."""
    fid_id = gate_fidelity(u, target)
    fid_sw = gate_fidelity(relabel_corners(u), target)
    if fid_sw > fid_id:
        return fid_sw, phase_distance(relabel_corners(u), target), "swap_ge"
    return fid_id, phase_distance(u, target), "identity"


def vacuum_block(u_full: Operator) -> tuple[np.ndarray, float]:
    """4x4 two-qubit block at resonator vacuum, plus worst-case leakage.

    Leakage of a column is the population the corresponding vacuum input
    loses to nonzero Fock states; the maximum over the four inputs is
    returned.
    """
    n = u_full.layout.fock_cutoff
    idx = np.arange(4) * n     # (spin, charge) x |vac>
    block = u_full.entries[np.ix_(idx, idx)]
    leakage = float(max(0.0, 1.0 - (np.abs(block) ** 2).sum(axis=0).min()))
    return block, leakage


def top_level_population(u_full: Operator) -> float:
    """Worst population at the highest retained Fock level over vacuum inputs.

    The truncation proxy every pipeline run reports: if the evolution from
    the gate-relevant inputs reaches the top of the ladder, the cutoff is
    too small to trust.
    """
    n = u_full.layout.fock_cutoff
    cols = np.arange(4) * n
    rows = np.arange(4) * n + (n - 1)
    return float((np.abs(u_full.entries[np.ix_(rows, cols)]) ** 2).sum(axis=0).max())


# ----------------------------------------------------------------------
# eta calibration
# ----------------------------------------------------------------------

def calibrate_eta(target: np.ndarray) -> EtaCalibration:
    """The eta whose ideal form best matches the target, in closed form.

    The ideal form is diagonal, so with the special phase on dressed corner
    c (entry 0, or entry 3 after the g <-> e relabeling) Tr(V'U) equals
    e^{i eta}(a e^{-4i eta} + b), where a is the conjugate of the target's
    corner entry and b the sum of the conjugates of its other three diagonal
    entries.  Its modulus peaks at |a| + |b| when 4 eta = arg a - arg b, so
    eta* = ((arg a - arg b)/4) mod pi/2 on whichever corner gives the larger
    |a| + |b| (swap_ge on a tie).  The quoted eta = pi/8 is evaluated side
    by side for comparison.
    """
    diag = np.conj(np.diag(np.asarray(target, dtype=np.complex128)))
    candidates = []
    for corner, relabeling in ((0, "identity"), (3, "swap_ge")):
        a, b = diag[corner], np.delete(diag, corner).sum()
        eta = (np.angle(a) - np.angle(b)) / 4.0 % (math.pi / 2.0)
        candidates.append((abs(a) + abs(b), eta, relabeling))
    identity, swap = candidates
    _, eta_star, relabeling = swap if swap[0] >= identity[0] else identity
    u_star = eq_phase_form(eta_star)
    if relabeling == "swap_ge":
        u_star = relabel_corners(u_star)

    u_paper = eq_phase_form(ETA_PAPER)
    fid_paper = max(gate_fidelity(u_paper, target),
                    gate_fidelity(relabel_corners(u_paper), target))
    return EtaCalibration(eta_star=float(eta_star),
                          fidelity_star=gate_fidelity(u_star, target),
                          relabeling=relabeling, eta_paper=ETA_PAPER,
                          fidelity_paper=fid_paper)


# ----------------------------------------------------------------------
# schedule construction and composition
# ----------------------------------------------------------------------

def wrap_angle(x: float, period: float = TWO_PI) -> float:
    """Wrap into [-period/2, period/2)."""
    return (x + 0.5 * period) % period - 0.5 * period


def duration_for_phase(coef: float, eta: float) -> float:
    """Smallest tau > 0 with coef * tau / 2 = eta (mod 2 pi).

    Exploits 2 pi periodicity of the accumulated phase, so a negative coef
    (for example xi = -Omega) still admits a positive duration.
    """
    if coef == 0.0:
        raise ValueError("cannot accumulate a phase with a zero rotation rate")
    period = 2.0 * TWO_PI / abs(coef)
    tau = (2.0 * eta / coef) % period
    if tau <= 0.0:
        tau += period
    return tau


def schedule_for_eta(params: SystemParams, eta: float, comm: CommensurateTime,
                     periods: int = 1) -> PulseSchedule:
    """Durations realizing the phase conditions for a given eta.

    The two qubit rotations get independent durations; the single shared
    duration of the idealized description would force zeta = xi, which
    realistic parameter sets violate.
    """
    return PulseSchedule(
        tau1=duration_for_phase(params.zeta, eta),
        tau2=duration_for_phase(params.xi, eta),
        eta=eta,
        window=comm,
        periods=periods,
    )


def _condition_report(params: SystemParams, schedule: PulseSchedule,
                      oracle_A: float) -> list[tuple[str, float]]:
    return [
        ("zeta*tau1/2 = eta (mod 2pi)",
         abs(wrap_angle(params.zeta * schedule.tau1 / 2.0 - schedule.eta))),
        ("xi*tau2/2 = eta (mod 2pi)",
         abs(wrap_angle(params.xi * schedule.tau2 / 2.0 - schedule.eta))),
        ("A(t_int) = eta",
         abs(wrap_angle(oracle_A - schedule.eta))),
    ]


def compose_sequence(schedule: PulseSchedule, params: SystemParams, layout: SpaceLayout, *,
                     oracle: OracleResult,
                     target: np.ndarray | None = None,
                     calibration: EtaCalibration | None = None,
                     strict: bool = True) -> GateReport:
    """Compose U1 U2 U3, dress, and score against the controlled-phase target.

    U3 is the oracle's factorized propagator, built from its coefficients
    when it was scored, so the oracle must be extracted at schedule.t_int;
    leakage is measured on the brute-force propagator underlying the
    oracle.  With strict=True a phase condition violated by more than
    CONDITION_TOL raises
    ScheduleConditionError naming the equality and the miss; with
    strict=False it is demoted to a discrepancy note and the gate is scored
    anyway (used to audit externally imposed eta values).  A vacuum block
    that is not unitary to UNITARY_INPUT_TOL raises TruncationError: the
    cutoff cannot hold the resonator excursion.
    """
    target = ideal_cp_target() if target is None else np.asarray(target, dtype=np.complex128)

    notes: list[dict] = []
    failures = [(name, miss) for name, miss in
                _condition_report(params, schedule, oracle.coeffs.A) if miss > CONDITION_TOL]
    if failures:
        detail = "; ".join(f"{name} violated by {miss:.3e}" for name, miss in failures)
        if strict:
            raise ScheduleConditionError(detail)
        notes.append({"code": "schedule_condition_violated", "detail": detail})

    u_seq = u1(params.zeta, schedule.tau1, layout) \
        @ u2(params.xi, schedule.tau2, layout) \
        @ Operator(layout, oracle.factorized_unitary)
    block, _ = vacuum_block(u_seq)
    numeric_op = Operator(layout, oracle.numeric_unitary)
    _, leakage = vacuum_block(numeric_op)
    top_pop = top_level_population(numeric_op)

    v = dressed_basis()
    dressed = v.conj().T @ block @ v
    defect = unitarity_defect(dressed)
    if defect >= UNITARY_INPUT_TOL:
        raise TruncationError(
            f"the composed gate's vacuum block is not unitary to {UNITARY_INPUT_TOL} "
            f"(defect {defect:.3e}); the resonator does not return to vacuum within "
            f"Fock cutoff {layout.fock_cutoff}")
    fidelity, distance, relabeling = _best_relabeling(dressed, target)

    calibration = calibration or calibrate_eta(target)

    a_closed = closed_form_A(params, schedule.t_int)
    if abs(a_closed) < 1e-9 and abs(oracle.coeffs.A) > 1e-6:
        notes.append({
            "code": "closed_form_A_vanishes",
            "detail": (f"closed-form A({schedule.t_int:.6g} ns) = {a_closed:.3e} while the "
                       f"extracted joint phase is {oracle.coeffs.A:.9g}; the closed form is "
                       "dimensionally a rate and yields zero at every disentangling time, "
                       "so gate synthesis rests on the numerically extracted phase"),
        })
    if calibration.fidelity_paper < 0.999:
        notes.append({
            "code": "quoted_eta_misses_target",
            "detail": (f"eta = pi/8 + m pi/2 = {calibration.eta_paper:.9g} scores ideal-form "
                       f"fidelity {calibration.fidelity_paper:.6f} against this target "
                       f"(corner phase -i, not -1); calibrated eta* = "
                       f"{calibration.eta_star:.9g} scores {calibration.fidelity_star:.6f}"),
        })
    if abs(oracle.coeffs.A) < 1e-6 and schedule.t_int > 0:
        notes.append({
            "code": "no_entangling_phase",
            "detail": ("the joint phase does not accumulate at disentangling times unless "
                       "Delta = omega; with these parameters the sequence cannot entangle"),
        })
    if oracle.flagged:
        notes.append({
            "code": "factorization_residual_flagged",
            "detail": f"oracle residual {oracle.residual:.3e} above threshold",
        })

    return GateReport(
        synthesized=dressed,
        fidelity_avg=fidelity,
        phase_distance=distance,
        leakage=leakage,
        eta_used=schedule.eta,
        eta_paper=calibration.eta_paper,
        gate_time_ns=schedule.tau1 + schedule.tau2 + schedule.t_int,
        relabeling=relabeling,
        discrepancy_notes=tuple(notes),
        schedule=schedule,
        fidelity_paper_eta=calibration.fidelity_paper,
        top_level_population=top_pop,
        oracle=oracle,
    )


def _pick_periods(a_base: float, eta_target: float, max_periods: int,
                  grid_period: float) -> int:
    """Integer period count whose accumulated phase best matches the target.

    grid_period is the equivalence period of the target phase: pi/2 when any
    corner branch of the controlled-phase pattern is acceptable (projective
    equivalence), 2 pi when the exact eta value must be met.
    """
    if a_base == 0.0:
        return 1
    best_k, best_miss = 1, float("inf")
    for k in range(1, max_periods + 1):
        miss = abs(wrap_angle(k * a_base - eta_target, grid_period))
        if miss < best_miss - 1e-15:
            best_k, best_miss = k, miss
    return best_k


def synthesize_gate(params: SystemParams, layout: SpaceLayout,
                    options: GateOptions = GateOptions(), *,
                    settings: PropagationSettings | None = None,
                    commensurability_tol: float = 1e-9) -> GateReport:
    """End-to-end pipeline: disentangling time, oracle phase, composition.

    With options.eta = None the schedule phase is the accumulated joint phase
    at the best integer number of disentangling periods (up to
    options.max_periods), judged against the calibrated eta* modulo the pi/2
    equivalence of the target pattern.  A forced eta fixes the qubit rotations
    to that value and the run is scored as-is, letting condition violations
    surface in the report.  Given a config's gate, propagation and
    commensurability_tol, this is the gate that `hcps gate` builds.
    """
    target = TARGETS[options.target]()
    comm = commensurate_time(params.omega, params.Delta, max_n=options.max_n,
                             tol=commensurability_tol)
    calibration = calibrate_eta(target)

    window = coefficients_oracle(params, comm.t, layout.fock_cutoff, settings=settings)
    eta = options.eta
    if eta is None:
        periods = _pick_periods(window.coeffs.A, calibration.eta_star, options.max_periods,
                                grid_period=math.pi / 2.0)
    else:
        periods = _pick_periods(window.coeffs.A, eta, options.max_periods, grid_period=TWO_PI)
    oracle = oracle_power(window, periods)
    eta_used = oracle.coeffs.A if eta is None else float(eta)

    schedule = schedule_for_eta(params, eta_used, comm, periods)
    return compose_sequence(schedule, params, layout, target=target, oracle=oracle,
                            calibration=calibration, strict=eta is None)
