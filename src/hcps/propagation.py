"""Time-ordered propagation of time-dependent Hamiltonians.

This module is the brute-force oracle the analytic machinery is checked
against, so it stays deliberately simple: one exponential per step of the
two-node Gauss-Legendre Magnus integrator of order 4 (Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 151 (2009), sec. 5),

    U(t1, t0) = prod_k exp(-i dt K_k),
    K_k = (h1 + h2)/2 - i (sqrt(3)/12) dt [h2, h1],

with h1, h2 the Hamiltonian at the Gauss nodes t_k + (1/2 -+ sqrt(3)/6) dt,
and step-doubling until two successive resolutions agree to the requested
max-norm tolerance.

Each pass steps every connected component of the samples' coupling graph
on its own (h_eff, which never connects states of different excitation
parity (-1)^(n+s+c), as two blocks of 2N states).  The split is exact: when
h1 and h2 are block-diagonal, so are K and every power of it, and the
exponential of K is the blocks' exponentials.  It is read from the exact
zeros of the first step's two samples in the lab basis, never assumed from
the model, so it shares nothing with the sigma_x / S_x sectors of the
factorized propagator this integrator audits.

Every sample is read by one reader, as real scalars over Hermitian
matrices (H0) and complex scalars over matrices (X): a
:class:`hcps.hilbert.TermOperator`, which every time-dependent builder of
:mod:`hcps.hamiltonians` returns, by its own pairs, any other sample h (an
Operator or an array) as H0 = 1 h.  Each matrix is gathered into block
stacks and checked (finite; Hermitian in H0) once for as long as the
samples hand it over again, the scalars per sample (finite; real in H0),
and the sample is formed on the blocks by hermitian_sum of
:mod:`hcps.hilbert`, bit for bit the blocks of its dense entries.  A nonzero
or non-finite entry outside the blocks, of a sample or of a matrix, restarts
the pass on the whole space, one (1, d, d) stack, where the later passes
stay, so the result is the whole-space one for any Hamiltonian.

:func:`magnus4_steps` yields the checked step factors of a uniform grid,
one stack per component size; propagators multiply them per block, a state
is U applied once, and the master-equation leg of :mod:`hcps.open_system`, which
needs the dense step, runs them on the whole space.  Each factor is
:func:`hcps.hilbert.expm_hermitian` of dt K_k, which on these grids' small
steps is a Taylor polynomial with its truncation error below unit
roundoff: unitary to rounding, not by construction, so the unitarity
defect of a product grows with its step count (about 8e-14 over 1 024
steps at d = 80).  :func:`step_doubling` is the one refinement driver,
shared by every integrator in the package.  The sector oracle of
:mod:`hcps.wei_norman` and the open-system interaction leg step with that
module's order-4 commutator-free Magnus rule instead (two exponentials per
step, no commutator, on sector blocks), so this integrator checks them
with a different scheme; they run on the same driver with their own
fixed-grid passes.

Runs share no mutable state and may execute in parallel, but no run is
single-threaded: numpy's BLAS starts a thread per core by default, so parallel
runs compete for the cores (OPENBLAS_NUM_THREADS=1 keeps a run to one).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, TypeVar

import numpy as np

from .hilbert import (
    Operator, StateVector, TermOperator, expm_hermitian, hermiticity_defect, hermitian_sum,
    unitarity_defect,
)

SAMPLE_HERMITIAN_TOL = 1e-10

# two-node Gauss-Legendre sample points of a unit step, shared with the
# sector CF4 rule of hcps.wei_norman, and the Magnus-4 commutator weight
GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_MAGNUS4_COMMUTATOR = math.sqrt(3.0) / 12.0

T = TypeVar("T")


class NonHermitianSampleError(ValueError):
    """A sampled Hamiltonian was not Hermitian to tolerance."""


@dataclass(frozen=True)
class PropagationSettings:
    """Convergence control, and the window [t0, t1] of the integrators that
    take one; the config's `propagation` section parses into it.

    steps is the initial grid; the grid is doubled until two successive
    results differ by less than tolerance in entrywise max-norm, up to
    max_refinements doublings.  Only evolve_propagator, evolve_state and
    open_system.evolve_master read the window, through window(); a config
    sets none (t1 = None).
    """

    t0: float = 0.0
    t1: float | None = None
    steps: int = 512
    tolerance: float = 1e-8
    max_refinements: int = 12

    def __post_init__(self):
        if self.t1 is not None and not (self.t1 > self.t0):
            raise ValueError(f"need t1 > t0, got [{self.t0}, {self.t1}]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be > 0")
        if self.max_refinements < 0:
            raise ValueError("max_refinements must be >= 0")

    def replace(self, **changes) -> "PropagationSettings":
        return replace(self, **changes)

    def window(self) -> tuple[float, float]:
        if self.t1 is None:
            raise ValueError("propagation settings without an integration window (t1 is None)")
        return self.t0, self.t1


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
    if not hermiticity_defect(h) < SAMPLE_HERMITIAN_TOL:
        raise NonHermitianSampleError(
            f"Hamiltonian sample at t={t} is not finite and Hermitian")


def _check_finite(m: np.ndarray, t: float):
    if not np.isfinite(m).all():
        raise NonHermitianSampleError(f"Hamiltonian term matrix at t={t} is not finite")


def _coupling_blocks(*samples: np.ndarray) -> list[np.ndarray]:
    """Connected components of the coupling graph of the samples (i ~ j when an
    entry (i, j) or (j, i) of any sample is nonzero), as index arrays stacked
    by component size: one (count, size) array per size, ascending, each row
    one component's indices in ascending order."""
    coupled = np.logical_or.reduce([h != 0 for h in samples])
    coupled |= coupled.T
    label = np.full(coupled.shape[0], -1)
    components = []
    for root in range(label.size):
        if label[root] >= 0:
            continue
        frontier = [root]
        while len(frontier):             # breadth-first, one layer at a time
            label[frontier] = root
            frontier = np.flatnonzero(coupled[frontier].any(axis=0) & (label < 0))
        components.append(np.flatnonzero(label == root))
    sizes = sorted({len(c) for c in components})
    return [np.array([c for c in components if len(c) == n]) for n in sizes]


class _BlockCoupling(Exception):
    """A matrix of a sample has a nonzero or non-finite entry outside the
    blocks it is stepped on."""


def magnus4_steps(h_fun: Callable[[float], Operator | np.ndarray], t0: float, t1: float,
                  steps: int, blocks: list[np.ndarray]) -> Iterator[list[np.ndarray]]:
    """Order-4 Magnus step unitaries exp(-i dt K) of a uniform grid on [t0, t1],
    on the diagonal blocks of the space named by blocks.

    K = (h1 + h2)/2 - i (sqrt(3)/12) dt [h2, h1] from the samples h_fun(t) at
    the two Gauss nodes of each step; [h2, h1] = X - X' with X = h2 h1 is
    exactly anti-Hermitian, so K is Hermitian.  blocks holds index stacks, one
    (count, size) array per component size as _coupling_blocks returns them,
    [np.arange(d)[None]] for the whole space; each step yields one
    (count, size, size) stack of factors per index stack.

    Every sample is read as its pairs (h0, terms): a TermOperator's own, any
    other sample h (an Operator or an array) as H0 = 1 h.  Each matrix is
    gathered into its block stacks and checked (finite; Hermitian in H0) once
    for as long as the samples hand over the same, unchanged object, the
    scalars per sample (finite; real in H0), and the sample is formed on the
    blocks by hermitian_sum.  _BlockCoupling is raised on a nonzero or
    non-finite entry outside the blocks, NonHermitianSampleError when a check
    fails or K overflows.  Past these checks h1 and h2 are block-diagonal, so
    K and its powers are too: the factors are the whole-space step's blocks.
    """
    dt = (t1 - t0) / steps
    weight = -2j * _MAGNUS4_COMMUTATOR * dt
    d = sum(idx.size for idx in blocks)
    flat = [idx[:, :, None] * d + idx[:, None, :] for idx in blocks]
    outside = np.ones(d * d, dtype=bool)
    for f in flat:
        outside[f] = False
    outside = np.flatnonzero(outside)

    def gather(m: np.ndarray, check: Callable[[np.ndarray, float], None],
               t: float) -> list[np.ndarray]:
        m = np.asarray(m, dtype=np.complex128).ravel()
        if m.take(outside).any():        # NaN and inf are nonzero too
            raise _BlockCoupling
        stacks = [m.take(f) for f in flat]
        for b in stacks:
            check(b, t)
        return stacks

    known = {}       # (id, check) -> (matrix, its checked stacks), of the last sample

    def on_blocks(t: float) -> list[np.ndarray]:
        nonlocal known
        h = h_fun(t)
        h0, terms = ((h.h0, h.terms) if isinstance(h, TermOperator)
                     else (((1.0, h.entries if isinstance(h, Operator) else h),), ()))
        if not (all(cmath.isfinite(c) for c, _ in terms)
                and all(cmath.isfinite(r) and not r.imag for r, _ in h0)):
            raise NonHermitianSampleError(
                f"Hamiltonian sample at t={t} has a non-finite scalar or a complex h0 scalar")
        mats = [(m, _check_finite) for _, m in terms] + [(n, _check_hermitian) for _, n in h0]
        known = {(id(m), check): known.get((id(m), check)) or (m, gather(m, check, t))
                 for m, check in mats}
        h0 = [[(r, b) for b in known[id(n), _check_hermitian][1]] for r, n in h0]
        terms = [[(c, b) for b in known[id(m), _check_finite][1]] for c, m in terms]
        return [hermitian_sum([s[i] for s in h0], [s[i] for s in terms])
                for i in range(len(flat))]

    for k in range(steps):
        start = t0 + k * dt
        h1, h2 = (on_blocks(start + c * dt) for c in GAUSS_NODES)
        factors = []
        for b1, b2 in zip(h1, h2):
            two_k = b2 @ b1              # 2K, built in place on X
            two_k -= two_k.conj().swapaxes(-1, -2)
            two_k *= weight
            two_k += b1
            two_k += b2
            try:
                factors.append(expm_hermitian(two_k, -0.5j * dt))
            except ValueError as err:    # finite scalars and matrices that overflowed
                raise NonHermitianSampleError(f"Magnus step at t={start} is not finite") from err
        yield factors


def step_doubling(run: Callable[[int], T], final: Callable[[T], np.ndarray],
                  settings: PropagationSettings) -> tuple[T, bool, int]:
    """Run run(steps) on doubling grids from settings.steps until two resolutions agree.

    Two successive results agree when their final arrays, final(result),
    differ by less than settings.tolerance in entrywise max-norm; at most
    settings.max_refinements doublings are tried.  Returns the finest result,
    whether it converged, and its step count.  A caller that needs a finer
    initial grid passes settings.replace(steps=...).
    """
    steps = settings.steps
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


def _evolve(h_fun: Callable[[float], Operator],
            settings: PropagationSettings) -> tuple[Operator, bool, int]:
    """Step-doubled Magnus-4 propagator U(t1, t0) of h_fun on settings.window().

    Each pass steps the components of the first step's two samples
    (_coupling_blocks; the pass checks them like every other sample) on their
    own and scatters their products into U; a sample that couples two of them
    restarts the pass on the whole space, where every later pass stays.
    """
    t0, t1 = settings.window()
    first = [h_fun(t0 + c * (t1 - t0) / settings.steps) for c in GAUSS_NODES]
    layout = first[0].layout
    d = layout.total_dim
    blocks = _coupling_blocks(*(h.entries for h in first))

    def product(steps: int) -> list[np.ndarray]:
        prods = None
        for factors in magnus4_steps(h_fun, t0, t1, steps, blocks):
            prods = factors if prods is None else [f @ p for f, p in zip(factors, prods)]
        return prods

    def run(steps: int) -> np.ndarray:
        nonlocal blocks
        try:
            prods = product(steps)
        except _BlockCoupling:
            blocks = [np.arange(d)[None]]
            prods = product(steps)
        u = np.zeros((d, d), dtype=np.complex128)
        for idx, p in zip(blocks, prods):
            u[idx[:, :, None], idx[:, None, :]] = p
        return u

    u, converged, steps = step_doubling(run, lambda u: u, settings)
    return Operator(layout, u), converged, steps


# ----------------------------------------------------------------------
# typed wrappers
# ----------------------------------------------------------------------

def evolve_propagator(h_fun: Callable[[float], Operator],
                      settings: PropagationSettings) -> PropagatorResult:
    """Propagator U(t1, t0) for a time-dependent Hermitian generator.

    Non-convergence is reported through the converged flag, not raised; a
    non-finite or non-Hermitian sample raises NonHermitianSampleError.
    """
    u, converged, steps = _evolve(h_fun, settings)
    return PropagatorResult(unitary=u, unitarity_defect=unitarity_defect(u.entries),
                            converged=converged, steps_used=steps)


def evolve_state(h_fun: Callable[[float], Operator], psi0: StateVector,
                 settings: PropagationSettings) -> StateResult:
    """Evolve a normalized state: evolve_propagator's U applied once to psi0,
    so converged and steps_used are the propagator's; non-convergence is
    reported, not raised."""
    if abs(psi0.norm() - 1.0) > 1e-9:
        raise ValueError(f"initial state norm {psi0.norm()} is not 1")
    u, converged, steps = _evolve(h_fun, settings)
    return StateResult(state=u @ psi0, converged=converged, steps_used=steps)


def frame_rotate(u: Operator, generator: Operator, angle_fun: Callable[[float], float],
                 t: float) -> Operator:
    """Rotate a propagator into the frame exp(+i angle(t) generator).

    Used to compare dynamics generated with and without a co-rotating term:
    exp(+i angle_fun(t) G) @ U; G must be finite and Hermitian.
    """
    if not hermiticity_defect(generator.entries) < SAMPLE_HERMITIAN_TOL:
        raise ValueError("frame generator must be Hermitian")
    rot = expm_hermitian(generator.entries, 1j * float(angle_fun(t)))
    return Operator(u.layout, rot @ u.entries)
