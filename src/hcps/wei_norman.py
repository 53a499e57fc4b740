"""Factorized propagator for the effective gate generator.

Because h_eff commutes with sigma_x (charge) and S_x (spin) at every time,
the generators {sigma_x S_x, a sigma_x, a' sigma_x, a S_x, a' S_x, 1} close
under commutation and the time-ordered propagator factorizes as

    U(t) = e^{-iA sx Sx} e^{-iB a sx} e^{-iB* a' sx}
           e^{-iC a Sx} e^{-iC* a' Sx} e^{-iD}

with scalar coefficients A(t) real and B, C, D complex (Im D absorbs the
normalization of the non-unitary single-factor exponentials).

Two coefficient routes are provided and deliberately kept independent:

* :func:`coefficients_closed_form` evaluates the literal closed-form
  expressions for A, B, C, D.  B, C and D are exact.  The closed-form A is
  NOT: it is dimensionally a rate rather than a phase, and it evaluates to
  exactly zero at every disentangling time, where the whole point of the
  sequence is a nonzero accumulated sx*Sx phase.  It is evaluated verbatim,
  never corrected.

* :func:`coefficients_oracle` extracts all four coefficients from the
  brute-force numerical propagator.  Within one joint (sx, Sx) eigensector
  h_eff is a linearly driven oscillator, so the sector propagator is a
  displacement times a phase; displacement amplitudes give B and C, sector
  phases (unwrapped along a checkpoint grid) give A and D.  The residual
  ||U_factorized - U_numeric||_max over a truncation-trusted window of
  input columns is reported alongside.

The oracle route has one of each moving part.  One kernel builds the sector
factors exp(-i dt (f a' + f' a)) (the (a + a') eigensystem dressed by
number-operator phases), and one step rule, an order-4 commutator-free
Magnus step of two such factors (:func:`_cf4_steps`), drives both the
step-doubled, checkpointed sector propagation and the open-system joint
leg (:func:`joint_step_unitaries`).  Only sectors (1, 1) and (1, -1), the
PROPAGATED pair, are propagated; sector (-s, -c) is driven by -f, so its
propagator is the parity image P U(s, c) P, P = (-1)^n_hat.  The pair is one
complex array throughout: (2, C, N, N) over a pass's C checkpoints, (2, N, N)
at one time; :func:`_sector_blocks` adds the images in SECTORS order, and
QUBIT_HADAMARD on the qubit index takes blocks to the lab basis.  The
six-factor product is built on all four sectors, where sx and Sx are
scalars (an independent check of the images).  :func:`coefficients_oracle`
and :func:`oracle_grid` share one extraction pass over their times and the
last one's checkpoint grid; h_eff is periodic, U(kT + s) = U(s) U(T)^k, so
:func:`oracle_power` and :func:`oracle_trajectory` repeat one window's pair.

Gate synthesis consumes only the oracle route; the closed-form route exists
so the disagreement on A is measured and reported, not papered over.

The disentangling times are the commensurate times t = 2 pi n/omega
= 2 pi p/Delta at which B and C vanish and the resonator factors out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .hamiltonians import SystemParams
from .hilbert import Operator, SpaceLayout, expm_matrix, ladder_matrix
from .propagation import GAUSS_NODES, PropagationSettings, step_doubling

TWO_PI = 2.0 * math.pi

# Joint eigensector order: (spin S_x eigenvalue, charge sigma_x eigenvalue)
SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
PROPAGATED = SECTORS[:2]    # the last two are their sign flips, in reverse order

RESIDUAL_THRESHOLD = 1e-5   # windowed factorization residual above which a result is flagged

# lab (spin x charge) <-> SECTORS; entries exactly +-1/2, so self-inverse exactly
QUBIT_HADAMARD = 0.5 * np.kron([[1.0, 1.0], [1.0, -1.0]], [[1.0, 1.0], [1.0, -1.0]])
QUBIT_HADAMARD.setflags(write=False)

TRAJECTORY_SAMPLES = 512    # oracle_trajectory's least row count after t = 0


class CommensurabilityError(ValueError):
    """No commensurate time found; carries the best rational approximation."""

    def __init__(self, message: str, best_n: int, best_p: int, mismatch: float):
        super().__init__(message)
        self.best_n = best_n
        self.best_p = best_p
        self.mismatch = mismatch


@dataclass(frozen=True)
class WNCoefficients:
    """Factorization coefficients at one time; all four vanish at t = 0."""

    A: float
    B: complex
    C: complex
    D: complex
    t: float


class CommensurateTime(NamedTuple):
    t: float
    n: int
    p: int


@dataclass(frozen=True)
class OracleResult:
    """Numerically extracted coefficients plus extraction diagnostics.

    residual is the max-norm difference between the factorized and the
    brute-force propagator over columns whose resonator index is at most
    fock_window (the truncation-trusted inputs); residual_full is the same
    over all columns and is a truncation diagnostic only, since the top of
    a truncated Fock ladder cannot agree between the two constructions.
    sector_unitaries is the (2, N, N) PROPAGATED pair at coeffs.t;
    numeric_unitary is assembled from it and its parity images, and
    :func:`oracle_power` raises it.  factorized_unitary is the six-factor
    product of coeffs the residuals were scored with.  window_unitaries is
    the (2, C, N, N) pair at window_times, the C checkpoints of its pass up
    to coeffs.t (a view of the pass's array); an :func:`oracle_power` result
    keeps its base window's.
    """

    coeffs: WNCoefficients
    residual: float
    residual_full: float
    flagged: bool
    fock_window: int
    converged: bool
    steps_used: int
    numeric_unitary: np.ndarray = field(repr=False)
    factorized_unitary: np.ndarray = field(repr=False)
    sector_unitaries: np.ndarray = field(repr=False)
    window_times: np.ndarray = field(repr=False)
    window_unitaries: np.ndarray = field(repr=False)


class CoefficientRow(NamedTuple):
    """One row of the coefficient table the coeffs pipeline writes.

    converged is the step-doubling flag of the propagation the row was read
    from; it is not written to the CSV.
    """

    t: float
    coeffs: WNCoefficients
    residual: float
    converged: bool


# ----------------------------------------------------------------------
# closed-form route
# ----------------------------------------------------------------------

def _require_nonzero_frequencies(params: SystemParams):
    if params.omega == 0.0:
        raise ValueError("closed-form coefficients undefined at omega = 0")
    if params.Delta == 0.0:
        raise ValueError("closed-form coefficients undefined at Delta = 0")


def closed_form_A(params: SystemParams, t: float) -> float:
    """Literal closed-form A(t) = (gG/omega)[cos(Delta t) - cos((omega-Delta) t)].

    Evaluates to zero at every commensurate time (both cosines are 1 there),
    so it cannot be the accumulated entangling phase; see module docstring.
    """
    _require_nonzero_frequencies(params)
    w, d = params.omega, params.Delta
    return params.g * params.G / w * (math.cos(d * t) - math.cos((w - d) * t))


def coefficients_closed_form(params: SystemParams, t: float) -> WNCoefficients:
    """Literal evaluation of the closed-form coefficient set, no correction."""
    _require_nonzero_frequencies(params)
    w, d, g, G = params.omega, params.Delta, params.g, params.G
    B = 1j * g / w * (np.exp(-1j * w * t) - 1.0)
    C = 1j * G / (2.0 * d) * (np.exp(-1j * d * t) - 1.0)
    D = (g**2 / w) * ((np.exp(1j * w * t) - 1.0) / (1j * w) - t) \
        + (G**2 / (4.0 * d)) * ((np.exp(1j * d * t) - 1.0) / (1j * d) - t)
    return WNCoefficients(A=closed_form_A(params, t), B=complex(B), C=complex(C),
                          D=complex(D), t=t)


# ----------------------------------------------------------------------
# commensurate (disentangling) times
# ----------------------------------------------------------------------

def commensurate_time(omega: float, Delta: float, max_n: int = 64,
                      tol: float = 1e-9) -> CommensurateTime:
    """Smallest t > 0 with omega t = 2 pi n and Delta t = 2 pi p, n <= max_n.

    Raises CommensurabilityError with the best rational approximation found
    when no integer pair witnesses commensurability within tol.
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if Delta == 0.0:
        raise ValueError("Delta must be nonzero")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if not tol > 0.0:
        raise ValueError(f"commensurability tol must be > 0, got {tol}")
    best = None
    for n in range(1, max_n + 1):
        t = TWO_PI * n / omega
        x = Delta * t / TWO_PI
        p = round(x)
        mismatch = abs(x - p)
        if p == 0:
            continue
        if best is None or mismatch < best[2]:
            best = (n, p, mismatch)
        if mismatch < tol:
            return CommensurateTime(t=t, n=n, p=p)
    if best is None:
        raise CommensurabilityError(
            f"|Delta| = {abs(Delta)} completes no full cycle within n <= {max_n} "
            f"periods of omega = {omega}", 0, 0, float("inf"))
    n, p, mismatch = best
    raise CommensurabilityError(
        f"no commensurate time for omega = {omega}, Delta = {Delta} within "
        f"n <= {max_n} (tol {tol}); best approximation n = {n}, p = {p} "
        f"misses an integer cycle count by {mismatch:.3e}",
        n, p, mismatch)


# ----------------------------------------------------------------------
# oracle route: sector propagation and coefficient extraction
# ----------------------------------------------------------------------

def sector_amplitude(params: SystemParams, spin_sign: int, charge_sign: int
                     ) -> Callable[[float], complex]:
    """Drive amplitude f(t) of the (spin_sign, charge_sign) eigensector.

    In that sector h_eff reduces to f(t) a' + conj(f(t)) a with
    f(t) = charge_sign * g e^{i omega t} + spin_sign * (G/2) e^{i Delta t}.
    """
    g, G, w, d = params.g, params.G, params.omega, params.Delta

    def f(t: float) -> complex:
        return charge_sign * g * np.exp(1j * w * t) + spin_sign * 0.5 * G * np.exp(1j * d * t)

    return f


_CHUNK_ENTRIES = 2_000_000   # cap on factors*n*n per vectorized block

# order-4 commutator-free Magnus step: sample weights a_+, a_- at GAUSS_NODES
_CF4_PLUS = 0.25 + math.sqrt(3.0) / 6.0
_CF4_MINUS = 0.25 - math.sqrt(3.0) / 6.0


def _sector_step_factors(n: int) -> Callable[[np.ndarray, float], np.ndarray]:
    """Builder of stacked sector factors exp(-i dt (f a' + conj(f) a)).

    Writing f = |f| e^{i theta}, f a' + conj(f) a = |f| R'(theta) (a + a') R(theta)
    with R = e^{-i theta n_hat}, so each factor is the one (a + a') eigensystem
    dressed by number-operator phases:

        exp(-i H dt) = R' V exp(-i |f| L dt) V' R

    The returned function maps an array of K drive amplitudes f to the
    (K, n, n) stack of those factors, one per amplitude.  a + a' is real
    symmetric, so V is real, and the cores V exp(-i |f_k| L dt) V' of all K
    factors come from one real product: V times the (n, K, n) array
    c[l, k, j] = exp(-i |f_k| L_l dt) V[j, l], read as real numbers.  R' and
    R are diagonal, so they are n phases e^{i theta_k j} per factor, applied
    in place as a row and a column scaling of that product's (n, K, n)
    result.  The stack returned is its (K, n, n) view, strided, not a copy.
    """
    a = ladder_matrix(n)
    lam, v = np.linalg.eigh((a + a.T).real)
    nums = np.arange(n)

    def factors(f: np.ndarray, dt: float) -> np.ndarray:
        f = np.asarray(f, dtype=np.complex128)
        # C order: with K = 1 the broadcast would otherwise follow v.T's layout
        c = np.multiply(np.exp(-1j * dt * np.outer(lam, np.abs(f)))[:, :, None],
                        v.T[:, None, :], order="C")
        out = (v @ c.reshape(n, -1).view(np.float64)).view(np.complex128).reshape(n, -1, n)
        phase = np.exp(1j * np.outer(np.angle(f), nums))   # e^{i theta_k j}, (K, n)
        out *= phase.T[:, :, None]
        out *= phase.conj()[None, :, :]
        return out.transpose(1, 0, 2)

    return factors


def _cf4_steps(f_fun: Callable, factors: Callable, starts: np.ndarray,
               dt: float) -> np.ndarray:
    """Order-4 commutator-free Magnus step unitaries of one sector,
    H(t) = f a' + conj(f) a, one per step start time.

    With f sampled at the Gauss points t + c_1,2 dt of each step, giving
    f_1 and f_2, one step is the two-exponential product

        exp(-i dt H[a_- f_1 + a_+ f_2]) exp(-i dt H[a_+ f_1 + a_- f_2]),

    a_+- = 1/4 +- sqrt(3)/6, right factor applied first.  Every such
    combination of samples is again a sector Hamiltonian, so both factors
    of every step come from one call of factors, a
    :func:`_sector_step_factors` builder.  This is the one step rule of
    the module: the oracle's snapshots and the open-system joint leg both
    take it.
    """
    f1, f2 = (f_fun(starts + c * dt) for c in GAUSS_NODES)
    amps = np.empty(2 * len(starts), dtype=np.complex128)
    amps[0::2] = _CF4_PLUS * f1 + _CF4_MINUS * f2
    amps[1::2] = _CF4_MINUS * f1 + _CF4_PLUS * f2
    mats = factors(amps, dt)
    return mats[1::2] @ mats[0::2]


def _cf4_chunks(f_fun: Callable, factors: Callable, t0: float, dt: float, steps: int,
                per_chunk: int) -> Iterator[np.ndarray]:
    """The :func:`_cf4_steps` unitaries of `steps` uniform steps from t0, in
    order, as stacks of at most per_chunk steps: the one chunk loop over them."""
    for done in range(0, steps, per_chunk):
        count = min(steps - done, per_chunk)
        yield _cf4_steps(f_fun, factors, t0 + (done + np.arange(count)) * dt, dt)


def _sector_snapshots(f_fun: Callable, times: Sequence[float], n: int,
                      steps_total: int) -> np.ndarray:
    """Fixed-grid snapshots of one sector on :func:`_cf4_steps`, a (C, N, N)
    array: entry k is the propagator from 0 to times[k].

    The step unitaries are built in vectorized chunks and pairwise-reduced
    in step order.  The generic integrator steps with the Magnus-4 rule
    of :mod:`hcps.propagation` (one exponential with a commutator term), so
    the two are independent schemes.  Checkpoint k ends at step
    round(steps_total * t_k / span), so the segments sum to steps_total (a
    segment is never shorter than one step).
    """
    span = times[-1]
    factors = _sector_step_factors(n)
    per_chunk = max(1, _CHUNK_ENTRIES // (2 * n * n))   # two n x n factors per step

    snapshots = np.empty((len(times), n, n), dtype=np.complex128)
    u = np.eye(n, dtype=np.complex128)
    prev = 0.0
    taken = 0
    for tk, snap in zip(times, snapshots):
        seg_steps = max(1, round(steps_total * tk / span) - taken)
        taken += seg_steps
        dt = (tk - prev) / seg_steps
        for mats in _cf4_chunks(f_fun, factors, prev, dt, seg_steps, per_chunk):
            # ordered pairwise product of the chunk, then fold into u
            while mats.shape[0] > 1:
                m = mats.shape[0] // 2
                head = np.matmul(mats[1:2 * m:2], mats[0:2 * m:2])
                mats = np.concatenate([head, mats[2 * m:]]) if mats.shape[0] % 2 else head
            u = mats[0] @ u
        snap[...] = u
        prev = tk
    return snapshots


def _parity_image(u: np.ndarray) -> np.ndarray:
    """P u P with P = (-1)^n_hat, over the last two axes of a stack.

    Applied to a propagator of sector (s, c) it gives that of (-s, -c),
    whose drive is -f: P a P = -a, so P H(f) P = H(-f) at every time.
    """
    n = u.shape[-1]
    return u * (-1.0) ** np.add.outer(np.arange(n), np.arange(n))


def _sector_blocks(pair) -> list[np.ndarray]:
    """The four SECTORS blocks, in order, from the PROPAGATED pair (a (2, ...)
    stack, or two equal-shape stacks): pair[0], pair[1] and their parity images."""
    return [pair[0], pair[1], _parity_image(pair[1]), _parity_image(pair[0])]


def sector_states(psi: np.ndarray) -> np.ndarray:
    """QUBIT_HADAMARD on the qubit index of full-space states (psi's last axis):
    lab to sector-block basis and, as the matrix is its own inverse, back."""
    psi = np.asarray(psi)
    return (QUBIT_HADAMARD @ psi.reshape(-1, 4, psi.shape[-1] // 4)).reshape(psi.shape)


def dressed_basis() -> np.ndarray:
    """Columns map dressed order (gg, ge, eg, ee) to lab (spin x charge) coords.

    g = (|up> - |down>)/sqrt(2) is the -1 eigenstate of the x operator on
    each qubit, e the +1 eigenstate; first letter is the spin qubit.  SECTORS
    runs from ee to gg, so these are QUBIT_HADAMARD's columns reversed.
    """
    return QUBIT_HADAMARD[:, ::-1].astype(np.complex128)


def joint_step_unitaries(params: SystemParams, layout: SpaceLayout, duration: float,
                         steps: int):
    """Uniform-grid step unitaries of h_eff, yielded in order as (4, N, N)
    stacks of their SECTORS blocks, the diagonal blocks in the sector-block basis.

    Each is the :func:`_cf4_steps` step (the oracle's rule) of the two
    PROPAGATED sectors followed by their parity images.  Its one consumer,
    the open-system interaction leg, conjugates block by block in this basis
    and maps its inputs into it once, by :func:`sector_states`.
    """
    n = layout.fock_cutoff
    factors = _sector_step_factors(n)
    # a chunk's (4, N, N) step blocks are kept to about 4 MB
    per_chunk = max(1, _CHUNK_ENTRIES // (32 * n * n))
    pp, pm = (_cf4_chunks(sector_amplitude(params, ss, sc), factors, 0.0, duration / steps,
                          steps, per_chunk) for ss, sc in PROPAGATED)
    # not zip: its reused result tuple would hold each chunk while the next is built
    for _ in range(0, steps, per_chunk):
        yield from np.stack(_sector_blocks((next(pp), next(pm))), axis=1)


def _default_fock_window(fock_cutoff: int) -> int:
    return max(1, min(6, fock_cutoff // 4))


def _oscillations(params: SystemParams, t: float) -> int:
    """Drive oscillations in [0, t], rounded up; sizes the checkpoint and step grids."""
    return math.ceil(abs(t) * (abs(params.omega) + abs(params.Delta)) / TWO_PI)


def _vacuum_amplitudes(snaps: np.ndarray) -> np.ndarray:
    """<0|U|0> of each snapshot, snaps[..., 0, 0]; RuntimeError when one is too
    small to read a phase and a displacement from."""
    c0 = snaps[..., 0, 0]
    if np.abs(c0).min() < 1e-6:
        raise RuntimeError("vacuum survival amplitude too small for phase extraction; "
                           "displacement exceeds the extraction method's domain")
    return c0


def _extract(snapshots: np.ndarray, times: Sequence[float], start=(0.0, 0.0)
             ) -> list[WNCoefficients]:
    """Coefficients at every checkpoint of a (2, C, N, N) PROPAGATED pair.

    For a driven oscillator each sector propagator is e^{i phi} D(alpha), so
    <0|U|0> = e^{i phi} e^{-|alpha|^2 / 2} and <1|U|0> / <0|U|0> = alpha.
    alpha(sector) = -i*charge_sign*B' - i*spin_sign*C' (primes = conjugates)
    and phi = -Re D + (Im(B'C) - A) s_spin s_charge, so the charge-odd and
    charge-even parts of (1, 1) and (1, -1) fix all four; the parity images
    carry the opposite displacements and the same phases.  Each sector's
    phases are unwrapped along its C checkpoints from its entry of start.
    """
    c0 = _vacuum_amplitudes(snapshots)
    a_pp, a_pm = snapshots[..., 1, 0] / c0
    p_pp, p_pm = np.unwrap(np.concatenate((np.reshape(start, (2, 1)), np.angle(c0)),
                                          axis=1))[:, 1:]
    B, C = np.conj(0.5j * (a_pp - a_pm)), np.conj(0.5j * (a_pp + a_pm))
    A = np.imag(np.conj(B) * C) - 0.5 * (p_pp - p_pm)
    D = -0.5 * (p_pp + p_pm) + 0.5j * (np.abs(B)**2 + np.abs(C)**2)
    return [WNCoefficients(float(a), complex(b), complex(c), complex(d), float(tk))
            for a, b, c, d, tk in zip(A, B, C, D, times)]


def _assemble_lab_unitary(blocks) -> np.ndarray:
    """The lab-basis matrix with the given four blocks of SECTORS, in order: entry
    ((p, a), (q, b)) is sum_i H[p, i] blocks[i][a, b] H[i, q], H = QUBIT_HADAMARD."""
    u = np.einsum("pi,iab,iq->paqb", QUBIT_HADAMARD, blocks, QUBIT_HADAMARD)
    return u.reshape(4 * u.shape[1], -1)


def _oracle_result(coeffs: WNCoefficients, pair: np.ndarray, converged: bool, steps: int,
                   window_times: np.ndarray, window_pair: np.ndarray) -> OracleResult:
    """coeffs scored against the (2, N, N) PROPAGATED pair they were read from:
    the numeric and factorized lab propagators, and the windowed and full
    residuals between them.  The window's (2, C', N, N) checkpoints ride along."""
    layout = SpaceLayout(pair.shape[-1])
    fock_window = _default_fock_window(layout.fock_cutoff)
    numeric = _assemble_lab_unitary(_sector_blocks(pair))
    factorized = factorized_propagator(coeffs, layout).entries
    diff = np.abs(factorized - numeric)
    cols = [q * layout.fock_cutoff + k for q in range(4) for k in range(fock_window + 1)]
    residual = float(diff[:, cols].max())
    return OracleResult(coeffs=coeffs, residual=residual, residual_full=float(diff.max()),
                        flagged=residual > RESIDUAL_THRESHOLD, fock_window=fock_window,
                        converged=converged, steps_used=steps, numeric_unitary=numeric,
                        factorized_unitary=factorized, sector_unitaries=pair,
                        window_times=window_times, window_unitaries=window_pair)


def _propagate_sectors(params: SystemParams, times: Sequence[float], fock_cutoff: int,
                       settings: PropagationSettings
                       ) -> tuple[np.ndarray, bool, int]:
    """The PROPAGATED pair at the checkpoints, each sector step-doubled on its own.

    Returns the (2, C, N, N) array whose entry [i, k] is sector PROPAGATED[i]
    from 0 to times[k], whether both converged, and the finer final grid.
    Each kernel pass is checked by _vacuum_amplitudes as it ends, so a
    displacement too large to extract raises before the grid is refined.
    """
    def checked(snaps: np.ndarray) -> np.ndarray:
        _vacuum_amplitudes(snaps)
        return snaps

    pair = np.empty((len(PROPAGATED), len(times), fock_cutoff, fock_cutoff), dtype=np.complex128)
    converged_all, steps_max = True, 0
    grid = settings.replace(steps=max(settings.steps, len(times)))
    for out, key in zip(pair, PROPAGATED):
        f = sector_amplitude(params, *key)
        out[...], converged, steps = step_doubling(
            lambda steps: checked(_sector_snapshots(f, times, fock_cutoff, steps)),
            lambda snaps: snaps[-1], grid, stage=f"sector oracle {key}")
        converged_all &= converged
        steps_max = max(steps_max, steps)
    return pair, converged_all, steps_max


def _pass_times(times) -> np.ndarray:
    """The sorted times of one oracle pass; ValueError when there is none, or
    naming the first that is not finite and positive."""
    times = np.sort(np.asarray(times, dtype=float).reshape(-1))
    if times.size == 0:
        raise ValueError("oracle extraction needs at least one time")
    bad = times[~(np.isfinite(times) & (times > 0.0))]
    if bad.size:
        raise ValueError(f"oracle extraction needs finite times t > 0, got t = {bad[0]}")
    return times


def _oracle_pass(params: SystemParams, times: np.ndarray, fock_cutoff: int,
                 settings: PropagationSettings | None) -> Iterator[OracleResult]:
    """The oracle at each of the :func:`_pass_times` times, from one propagation.

    The sectors are propagated on the union of the times and the last one's
    checkpoint grid, so however sparse the times, the phases behind A and D
    are unwrapped along that grid.  Each result keeps views of the pass's
    (2, C, N, N) array: its time's pair and the checkpoints up to it.
    SpaceLayout's ValueError rejects a cutoff below 2 before any propagation.
    """
    SpaceLayout(fock_cutoff)
    t_end = float(times[-1])
    oscillations = _oscillations(params, t_end)
    grid = np.union1d(times, np.linspace(0.0, t_end, max(48, 8 * oscillations) + 1)[1:])
    if settings is None:
        settings = PropagationSettings(steps=max(256, 64 * oscillations))
    pair, converged, steps = _propagate_sectors(params, grid, fock_cutoff, settings)
    extracted = _extract(pair, grid)
    for i in np.searchsorted(grid, times):
        yield _oracle_result(extracted[i], pair[:, i], converged, steps, grid[:i + 1],
                             pair[:, :i + 1])


def coefficients_oracle(params: SystemParams, t: float, fock_cutoff: int = 20, *,
                        settings: PropagationSettings | None = None) -> OracleResult:
    """Extract (A, B, C, D) at time t from the brute-force propagator.

    A residual above RESIDUAL_THRESHOLD flags the result but the
    coefficients are still returned.  t must be finite and positive.
    """
    (result,) = _oracle_pass(params, _pass_times([t]), fock_cutoff, settings)
    return result


def oracle_grid(params: SystemParams, times: Sequence[float], fock_cutoff: int = 20, *,
                settings: PropagationSettings | None = None) -> list[CoefficientRow]:
    """Coefficient extraction along a whole time grid in one propagation pass.

    Much cheaper than calling coefficients_oracle per point; used by the
    coeffs pipeline and the closed-form comparison tests.  It is
    coefficients_oracle's pass with a row read at each of the given times,
    which must be at least one, each finite and positive; rows are sorted by t.
    """
    return [CoefficientRow(t=res.coeffs.t, coeffs=res.coeffs, residual=res.residual,
                           converged=res.converged)
            for res in _oracle_pass(params, _pass_times(times), fock_cutoff, settings)]


def oracle_power(base: OracleResult, periods: int) -> OracleResult:
    """The oracle after `periods` repetitions of a base disentangling window.

    h_eff is periodic with the base commensurate time, so U(k t) = U(t)^k:
    the (2, N, N) pair is raised to the k-th power and all four coefficients
    are read from that power by :func:`_extract`.  Each sector's phase is
    unwrapped from k times the base window's, which only picks its 2 pi
    branch.  The result keeps the base window's checkpoints.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    powered = np.linalg.matrix_power(base.sector_unitaries, periods)
    b = base.coeffs
    cross = np.imag(np.conj(b.B) * b.C) - b.A
    start = [periods * (s * c * cross - b.D.real) for s, c in PROPAGATED]
    (coeffs,) = _extract(powered[:, None], [b.t * periods], start)
    return _oracle_result(coeffs, powered, base.converged, base.steps_used,
                          base.window_times, base.window_unitaries)


def oracle_at_periods(params: SystemParams, base: CommensurateTime, periods: int,
                      fock_cutoff: int = 20, *,
                      settings: PropagationSettings | None = None) -> OracleResult:
    """Oracle coefficients at an integer multiple of the base disentangling time.

    The base window is extracted once, then raised to the period count by
    :func:`oracle_power`, which checks the period count.
    """
    window = coefficients_oracle(params, base.t, fock_cutoff, settings=settings)
    return oracle_power(window, periods)


def oracle_trajectory(oracle: OracleResult, psi0: np.ndarray, periods: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Lab-basis states U(t) psi0 over `periods` repetitions of the oracle's window T.

    Nothing is propagated.  Of the C uniformly spaced checkpoints of the
    window, every (C/m)-th is taken, m the least divisor of C with
    periods * m >= TRAJECTORY_SAMPLES (m = C when there is none), and
    U(jT + s) = U(s) U(T)^j applies their blocks to the last state of period
    j - 1.  Returns the 1 + periods * m times from 0 to periods * T and the
    states as rows.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    c = len(oracle.window_times)
    m = next((d for d in range(1, c + 1) if c % d == 0 and periods * d >= TRAJECTORY_SAMPLES), c)
    blocks = np.stack(_sector_blocks(oracle.window_unitaries[:, c // m - 1::c // m]))
    phis = [sector_states(psi0).reshape(4, -1)]
    for _ in range(periods):
        phis.extend(np.einsum("imab,ib->mia", blocks, phis[-1]))
    states = sector_states(np.reshape(phis[1:], (-1, psi0.size)))
    times = np.linspace(0.0, oracle.window_times[-1] * periods, periods * m + 1)
    return times, np.concatenate([np.reshape(psi0, (1, -1)), states])


# ----------------------------------------------------------------------
# factorized propagator
# ----------------------------------------------------------------------

def factorized_propagator(coeffs: WNCoefficients, layout: SpaceLayout) -> Operator:
    """The six-factor product, leftmost factor applied last, built per sector.

    On sector (s, c), sx = c and Sx = s: the block is e^{-i(D + A s c)}
    e^{-icB a} e^{-icB* a'} e^{-isC a} e^{-isC* a'}, from n x n ladder
    exponentials (exact on the truncated ladder), two per sign of B and of C.
    No block is a parity image, so the residual still tests the numeric side's.
    """
    a = ladder_matrix(layout.fock_cutoff)
    ladder = lambda z: expm_matrix(a, -1j * z) @ expm_matrix(a.T, -1j * np.conj(z))
    charge = {c: ladder(c * coeffs.B) for c in (1, -1)}
    spin = {s: ladder(s * coeffs.C) for s in (1, -1)}
    blocks = [np.exp(-1j * (coeffs.D + coeffs.A * s * c)) * charge[c] @ spin[s]
              for s, c in SECTORS]
    return Operator(layout, _assemble_lab_unitary(blocks))
