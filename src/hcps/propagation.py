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
zeros of the first step's two samples' matrices in the lab basis, a pair
whose scalar is zero there included, never assumed from the model, so it
shares nothing with the sigma_x / S_x sectors of the factorized propagator
this integrator audits.

Every sample is read by one reader, as real scalars over constant Hermitian
matrices, sum_a s_a G_a: a :class:`hcps.hilbert.TermOperator`, which every
time-dependent builder of :mod:`hcps.hamiltonians` returns, by its own
pairs, any other sample h (an Operator or an array) as ((1.0, h),).  The
scalars are checked per sample; the matrices are gathered into block stacks
and checked once per table of them and their commutators i[G_a, G_b], kept
for as long as the samples hand over the same matrices, and the 2K of a
chunk of steps is one real product of the scalars with that table
(:func:`magnus4_steps`), so K is Hermitian to rounding.  A nonzero or
non-finite entry outside the blocks of a matrix restarts the pass on the
whole space, one (1, d, d) stack, where the later passes stay, so the
result is the whole-space one for any Hamiltonian.

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
    NonFiniteError, Operator, StateVector, TermOperator, expm_hermitian, hermiticity_defect,
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


def _sample_pairs(h) -> tuple:
    """A sample's pairs: a TermOperator's own, any other sample h (an Operator
    or an array) as ((1.0, h),)."""
    if isinstance(h, TermOperator):
        return h.pairs
    return ((1.0, h.entries if isinstance(h, Operator) else h),)


def _coupling_blocks(*matrices: np.ndarray) -> list[np.ndarray]:
    """Connected components of the coupling graph of the matrices (i ~ j when an
    entry (i, j) or (j, i) of any of them is nonzero), as index arrays stacked
    by component size: one (count, size) array per size, ascending, each row
    one component's indices in ascending order."""
    coupled = np.logical_or.reduce([m != 0 for m in matrices])
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


# the 2K stacks of consecutive steps on one table are one product of at most
# this many complex entries (steps x block entries, 512 KB): 10 steps of h_eff
# at N = 20, few enough that the peak memory does not move
_CHUNK_ENTRIES = 1 << 15


def magnus4_steps(h_fun: Callable[[float], Operator | np.ndarray], t0: float, t1: float,
                  steps: int, blocks: list[np.ndarray]) -> Iterator[list[np.ndarray]]:
    """Order-4 Magnus step unitaries exp(-i dt K) of a uniform grid on [t0, t1],
    on the diagonal blocks of the space named by blocks.

    K = (h1 + h2)/2 - i (sqrt(3)/12) dt [h2, h1] from the samples h_fun(t) at
    the two Gauss nodes of each step.  blocks holds index stacks, one
    (count, size) array per component size as _coupling_blocks returns them,
    [np.arange(d)[None]] for the whole space; each step yields one
    (count, size, size) stack of factors per index stack.

    Every sample is read as its pairs, sum_a s_a G_a: a TermOperator's own,
    any other sample h (an Operator or an array) as ((1.0, h),).  The scalars
    are checked per sample (finite, real).  A step's generators are the
    distinct matrices of its two samples, by identity, each gathered into
    block stacks and checked (finite, Hermitian); its table holds their
    stacks, then those of every i[G_a, G_b] = i (X - X'), X = G_a G_b, a < b
    (h_eff: 4 + 6 rows), and is kept while the steps hand over the same
    matrices in the same order (fresh plain samples: (h1, h2, i[h1, h2])
    per step).  Then

        2K = sum_a sigma_a G_a + sum_{a<b} w_ab i[G_a, G_b],
        sigma_a = s_a(t1) + s_a(t2),
        w_ab = -(sqrt(3)/6) dt (s_a(t2) s_b(t1) - s_b(t2) s_a(t1)),

    every row Hermitian and every coefficient real, one real product of a
    chunk's coefficients (at most _CHUNK_ENTRIES entries of 2K) with the table.

    _BlockCoupling is raised on a nonzero or non-finite entry outside the
    blocks, NonHermitianSampleError when a check fails or K overflows.  Past
    these checks every generator is block-diagonal, so K and its powers are
    too: the factors are the whole-space step's blocks.
    """
    dt = (t1 - t0) / steps
    weight = -2.0 * _MAGNUS4_COMMUTATOR * dt
    d = sum(idx.size for idx in blocks)
    flat = [idx[:, :, None] * d + idx[:, None, :] for idx in blocks]
    outside = np.ones(d * d, dtype=bool)
    for f in flat:
        outside[f] = False
    outside = np.flatnonzero(outside)
    per_chunk = max(1, _CHUNK_ENTRIES // sum(f.size for f in flat))

    def gather(m: np.ndarray, t: float) -> list[np.ndarray]:
        m = np.asarray(m, dtype=np.complex128).ravel()
        if m.take(outside).any():        # NaN and inf are nonzero too
            raise _BlockCoupling
        stacks = [m.take(f) for f in flat]
        for b in stacks:
            _check_hermitian(b, t)
        return stacks

    def sample(t: float) -> tuple:
        """The pairs of the sample at t, its scalars checked."""
        pairs = _sample_pairs(h_fun(t))
        if not all(cmath.isfinite(s) and not s.imag for s, _ in pairs):
            raise NonHermitianSampleError(
                f"Hamiltonian sample at t={t} has a non-finite or complex scalar")
        return pairs

    def table(pair: list[tuple], times: list[float]) -> tuple:
        """The table of a step's two samples at times: per sample the
        (scalars, generators) matrix that adds each of its scalars into its
        generator's column, and per index stack the real view, (rows,
        2 entries), of the generators' stacks and then their commutator rows."""
        gens = {}
        for pairs, t in zip(pair, times):
            for _, g in pairs:
                gens.setdefault(id(g), (len(gens), g, t))
        n = len(gens)
        scatter = [np.eye(n)[[gens[id(g)][0] for _, g in pairs]] for pairs in pair]
        a, b = np.triu_indices(n, 1)
        outs = [np.empty((n + len(a), *f.shape), dtype=np.complex128) for f in flat]
        for j, g, t in gens.values():
            for out, stack in zip(outs, gather(g, t)):
                out[j] = stack
        rows = []
        for out in outs:
            for row, j, k in zip(out[n:], a, b):
                x = out[j] @ out[k]
                np.subtract(x, x.conj().swapaxes(-1, -2), out=row)
                row *= 1j
            rows.append(out.reshape(len(out), -1).view(np.float64))
        return scatter, rows

    def chunk_factors(scatter: list[np.ndarray], rows: list[np.ndarray],
                      chunk: list[tuple]) -> Iterator[list[np.ndarray]]:
        """The factors of the chunk's steps, (start, scalars at t1, at t2)
        each, on one table."""
        starts, *scalars = zip(*chunk)
        # an overflow leaves a K that is not finite, which expm_hermitian rejects
        with np.errstate(over="ignore", invalid="ignore"):
            s1, s2 = (np.array(x) @ p for x, p in zip(scalars, scatter))
            a, b = np.triu_indices(s1.shape[1], 1)
            coef = np.concatenate([s1 + s2, weight * (s2[:, a] * s1[:, b] - s2[:, b] * s1[:, a])],
                                  axis=1)
            two_k = [(coef @ r).view(np.complex128).reshape(len(starts), *f.shape)
                     for r, f in zip(rows, flat)]
        for start, *step in zip(starts, *two_k):
            try:
                factors = [expm_hermitian(k, -0.5j * dt) for k in step]
            except ValueError as err:    # finite scalars and matrices that overflowed
                raise NonHermitianSampleError(f"Magnus step at t={start} is not finite") from err
            yield factors

    key, chunk = None, []
    for k in range(steps):
        start = t0 + k * dt
        times = [start + c * dt for c in GAUSS_NODES]
        pair = [sample(t) for t in times]
        step_key = [tuple(id(g) for _, g in pairs) for pairs in pair]
        if chunk and (step_key != key or len(chunk) == per_chunk):
            yield from chunk_factors(scatter, rows, chunk)
            chunk = []
        if step_key != key:
            scatter, rows = table(pair, times)
            key, held = step_key, pair       # held keeps the key's matrices alive
        chunk.append((start, *([s.real for s, _ in pairs] for pairs in pair)))
    yield from chunk_factors(scatter, rows, chunk)


def step_doubling(run: Callable[[int], T], final: Callable[[T], np.ndarray],
                  settings: PropagationSettings, *, stage: str
                  ) -> tuple[T, bool, int]:
    """Run run(steps) on doubling grids from settings.steps until two resolutions agree.

    Two successive results agree when their final arrays, final(result),
    differ by less than settings.tolerance in entrywise max-norm; at most
    settings.max_refinements doublings are tried.  Returns the finest result,
    whether it converged, and its step count.  A caller that needs a finer
    initial grid passes settings.replace(steps=...).  A difference that is
    not finite can never agree, so it raises NonFiniteError naming the
    caller's stage and both grids, at the comparison that meets it.
    """
    steps = settings.steps
    result = run(steps)
    converged = False
    for _ in range(settings.max_refinements):
        finer = run(2 * steps)
        with np.errstate(invalid="ignore"):
            diff = float(np.abs(final(finer) - final(result)).max())
        if not math.isfinite(diff):
            raise NonFiniteError(f"{stage}: the {steps}- and {2 * steps}-step passes differ "
                                 f"by {diff}, which is not finite")
        result, steps = finer, 2 * steps
        if diff < settings.tolerance:
            converged = True
            break
    return result, converged, steps


def _evolve(h_fun: Callable[[float], Operator],
            settings: PropagationSettings) -> tuple[Operator, bool, int]:
    """Step-doubled Magnus-4 propagator U(t1, t0) of h_fun on settings.window().

    Each pass steps the components of the first step's two samples'
    matrices (_coupling_blocks over a TermOperator's pair matrices, a plain
    sample's entries; the pass checks them like every other sample) on their
    own and scatters their products into U, so a pair whose scalar is zero
    there still counts.  A later matrix that couples two of them
    restarts the pass on the whole space, where every later pass stays.
    """
    t0, t1 = settings.window()
    first = [h_fun(t0 + c * (t1 - t0) / settings.steps) for c in GAUSS_NODES]
    layout = first[0].layout
    d = layout.total_dim
    blocks = _coupling_blocks(*(m for h in first for _, m in _sample_pairs(h)))

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

    u, converged, steps = step_doubling(run, lambda u: u, settings, stage="Magnus-4 propagator")
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
    if not abs(psi0.norm() - 1.0) <= 1e-9:      # NaN fails too
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
