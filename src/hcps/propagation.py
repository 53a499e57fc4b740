"""Time-ordered propagation of time-dependent Hamiltonians.

This module is the brute-force oracle the analytic machinery is checked
against, so it stays deliberately simple: piecewise-constant midpoint
exponentials

    U(t1, t0) = prod_k exp(-i H(t_k^mid) dt)

which are second-order accurate, with step-doubling until two successive
resolutions agree to the requested max-norm tolerance.  No cleverness that
could share a failure mode with the factorized propagator it is meant to
audit.

:func:`midpoint_steps` yields the checked midpoint factors of a uniform
grid; propagators, states and the generic master-equation leg of
:mod:`hcps.open_system` run on them.  Each factor is
:func:`hcps.hilbert.expm_hermitian` of the sample, which on these grids'
small steps is a Taylor polynomial with its truncation error below unit
roundoff: unitary to rounding, not by construction, so the unitarity
defect of a product grows with its step count (about 3e-13 over 4 096
steps at d = 80).  :func:`step_doubling` is the one refinement driver,
shared by every integrator in the package.  The sector oracle of
:mod:`hcps.wei_norman` and the open-system interaction leg step with that
module's order-4 commutator-free Magnus rule instead, so this midpoint
integrator checks them with a different method; they run on the same
driver with their own fixed-grid passes.

Each run is single-threaded and deterministic; independent runs may execute
in parallel with no shared mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, TypeVar

import numpy as np

from .hilbert import Operator, StateVector, expm_hermitian

SAMPLE_HERMITIAN_TOL = 1e-10

T = TypeVar("T")


class NonHermitianSampleError(ValueError):
    """A sampled Hamiltonian was not Hermitian to tolerance."""


@dataclass(frozen=True)
class PropagationSettings:
    """Integration window and convergence control.

    steps is the initial grid; the grid is doubled until two successive
    propagators differ by less than tolerance in entrywise max-norm, up to
    max_refinements doublings.
    """

    t0: float
    t1: float
    steps: int = 256
    tolerance: float = 1e-8
    max_refinements: int = 12

    def __post_init__(self):
        if not (self.t1 > self.t0):
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")

    def replace(self, **changes) -> "PropagationSettings":
        return replace(self, **changes)


@dataclass(frozen=True)
class PropagatorResult:
    unitary: Operator
    unitarity_defect: float
    converged: bool
    steps_used: int


@dataclass(frozen=True)
class StateResult:
    state: StateVector
    converged: bool
    steps_used: int


# ----------------------------------------------------------------------
# raw cores (plain ndarrays; used on full-space and sector-block problems)
# ----------------------------------------------------------------------

def _check_hermitian(h: np.ndarray, t: float):
    if not (np.isfinite(h).all() and np.abs(h - h.conj().T).max() < SAMPLE_HERMITIAN_TOL):
        raise NonHermitianSampleError(
            f"Hamiltonian sample at t={t} is not finite and Hermitian")


def midpoint_steps(h_mat: Callable[[float], np.ndarray], t0: float, t1: float,
                   steps: int) -> Iterator[np.ndarray]:
    """Midpoint step unitaries exp(-i H(t_mid) dt) of a uniform grid on [t0, t1].

    Every sample is checked to be finite and Hermitian before it is
    exponentiated.
    """
    dt = (t1 - t0) / steps
    for k in range(steps):
        tm = t0 + (k + 0.5) * dt
        h = np.asarray(h_mat(tm), dtype=np.complex128)
        _check_hermitian(h, tm)
        yield expm_hermitian(h, -1j * dt)


def step_doubling(run: Callable[[int], T], final: Callable[[T], np.ndarray],
                  settings: PropagationSettings, *,
                  steps: int | None = None) -> tuple[T, bool, int]:
    """Run run(steps) on doubling grids until two resolutions agree.

    Two successive results agree when their final arrays, final(result),
    differ by less than settings.tolerance in entrywise max-norm; at most
    settings.max_refinements doublings are tried.  Returns the finest result,
    whether it converged, and its step count.  steps overrides the initial
    grid settings.steps.
    """
    steps = settings.steps if steps is None else steps
    result = run(steps)
    converged = False
    for _ in range(settings.max_refinements):
        finer = run(2 * steps)
        diff = float(np.abs(final(finer) - final(result)).max())
        result, steps = finer, 2 * steps
        if diff < settings.tolerance:
            converged = True
            break
    return result, converged, steps


def _evolve(h_mat: Callable[[float], np.ndarray], start: np.ndarray,
            settings: PropagationSettings) -> tuple[np.ndarray, bool, int]:
    """Step-doubled midpoint product U(t1, t0) @ start, start a propagator or a state."""
    def run(steps: int) -> np.ndarray:
        out = start
        for step in midpoint_steps(h_mat, settings.t0, settings.t1, steps):
            out = step @ out
        return out

    return step_doubling(run, lambda out: out, settings)


# ----------------------------------------------------------------------
# typed wrappers
# ----------------------------------------------------------------------

def evolve_propagator(h_fun: Callable[[float], Operator],
                      settings: PropagationSettings) -> PropagatorResult:
    """Propagator U(t1, t0) for a time-dependent Hermitian generator.

    Non-convergence is reported through the converged flag, not raised; a
    non-finite or non-Hermitian sample raises NonHermitianSampleError.
    """
    layout = h_fun(settings.t0).layout
    u, converged, steps = _evolve(lambda t: h_fun(t).entries,
                                  np.eye(layout.total_dim, dtype=np.complex128), settings)
    op = Operator(layout, u)
    return PropagatorResult(
        unitary=op,
        unitarity_defect=op.unitarity_defect(),
        converged=converged,
        steps_used=steps,
    )


def evolve_state(h_fun: Callable[[float], Operator], psi0: StateVector,
                 settings: PropagationSettings) -> StateResult:
    """Evolve a normalized state; non-convergence is reported, not raised."""
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {psi0.norm()} is not 1")

    psi, converged, steps = _evolve(lambda t: h_fun(t).entries, psi0.amplitudes, settings)
    return StateResult(state=StateVector(psi0.layout, psi), converged=converged,
                       steps_used=steps)


def frame_rotate(u: Operator, generator: Operator, angle_fun: Callable[[float], float],
                 t: float) -> Operator:
    """Rotate a propagator into the frame exp(+i angle(t) generator).

    Used to compare dynamics generated with and without a co-rotating term:
    exp(+i angle_fun(t) G) @ U.
    """
    if not generator.is_hermitian(SAMPLE_HERMITIAN_TOL):
        raise ValueError("frame generator must be Hermitian")
    rot = expm_hermitian(generator.entries, 1j * float(angle_fun(t)))
    return Operator(u.layout, rot @ u.entries)


def write_trajectory_csv(path, times: np.ndarray, trajectory: np.ndarray):
    """Trajectory CSV: t_ns, then one (re, im) column pair per basis index."""
    n = trajectory.shape[1]
    header = ["t_ns"]
    for j in range(n):
        header += [f"re_amp_{j}", f"im_amp_{j}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(times, trajectory):
            cells = [f"{t:.17g}"]
            for amp in row:
                cells += [f"{amp.real:.17g}", f"{amp.imag:.17g}"]
            fh.write(",".join(cells) + "\n")
