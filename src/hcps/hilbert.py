"""Composite Hilbert space and dense operator algebra.

The simulated system is a fixed three-slot tensor product:

    slot 0 : spin qubit (two levels, basis order (up, down) = (|-1>, |0>))
    slot 1 : charge qubit (two levels, basis order (up, down) = (|up>, |dn>))
    slot 2 : resonator mode, truncated to Fock states |0> ... |N-1>

Basis ordering is row-major over (spin, charge, fock) with the Fock index
fastest-varying, so a full-space index is ``(nv*2 + sc)*N + k``.  Everything
is dense complex128; at the dimensions this package targets (total_dim of a
few hundred) sparsity buys nothing.

All container types are immutable after construction and all operations are
pure functions, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

SLOT_SPIN = 0
SLOT_CHARGE = 1
SLOT_RESONATOR = 2


class NonFiniteError(ArithmeticError):
    """A computed result that is not finite, though its inputs were: an
    overflow or a NaN met in the arithmetic."""


# every exponential scales theta = ||scale * mat||_1 down to this before its Taylor sum
TAYLOR_MAX_NORM = 0.5
UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class SpaceLayout:
    """Dimension bookkeeping for the composite space.

    Parameters
    ----------
    fock_cutoff : int
        Number of retained Fock states, at least 2.  The truncation level is
        a run parameter; convergence in it must be demonstrated (see the
        ``validate`` pipeline), never assumed.
    """

    fock_cutoff: int

    def __post_init__(self):
        if not isinstance(self.fock_cutoff, (int, np.integer)) or self.fock_cutoff < 2:
            raise ValueError(f"fock_cutoff must be an integer >= 2, got {self.fock_cutoff!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2, 2, int(self.fock_cutoff))

    @property
    def total_dim(self) -> int:
        return 4 * int(self.fock_cutoff)

    def index(self, spin: int, charge: int, fock: int) -> int:
        """Flat basis index of |spin, charge, fock>."""
        n = int(self.fock_cutoff)
        if spin not in (0, 1) or charge not in (0, 1) or not (0 <= fock < n):
            raise ValueError(f"basis label ({spin}, {charge}, {fock}) out of range for {self}")
        return (spin * 2 + charge) * n + fock


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Operator:
    """Dense operator on the composite space, immutable after construction."""

    layout: SpaceLayout
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = _as_readonly(self.entries)
        d = self.layout.total_dim
        if entries.shape != (d, d):
            raise ValueError(f"operator shape {entries.shape} does not match layout dim {d}")
        object.__setattr__(self, "entries", entries)

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Operator):
            self._check_layout(other)
            return Operator(self.layout, self.entries @ other.entries)
        if isinstance(other, StateVector):
            if other.layout != self.layout:
                raise ValueError("operator and state live on different layouts")
            return StateVector(self.layout, self.entries @ other.amplitudes)
        return NotImplemented

    def __add__(self, other):
        self._check_layout(other)
        return Operator(self.layout, self.entries + other.entries)

    def __sub__(self, other):
        self._check_layout(other)
        return Operator(self.layout, self.entries - other.entries)

    def __neg__(self):
        return Operator(self.layout, -self.entries)

    def __mul__(self, scalar):
        return Operator(self.layout, self.entries * complex(scalar))

    __rmul__ = __mul__

    def _check_layout(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if other.layout != self.layout:
            raise ValueError("operators live on different layouts")

    def dagger(self) -> "Operator":
        return Operator(self.layout, self.entries.conj().T)

    # -- diagnostics ---------------------------------------------------

    def norm_max(self) -> float:
        """Entrywise max-norm, the default distance used by the integrators."""
        return float(np.abs(self.entries).max()) if self.entries.size else 0.0

    def hermiticity_defect(self) -> float:
        return hermiticity_defect(self.entries)


class TermOperator(Operator):
    """sum_a s_a G_a: an Operator given by its pairs, real scalars s_a over
    constant read-only Hermitian matrices G_a (at least one pair), its entries
    formed on first read."""

    def __init__(self, layout: SpaceLayout, pairs: tuple[tuple[float, np.ndarray], ...]):
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def entries(self) -> np.ndarray:
        """The pairs' sum, in order.  It is exactly Hermitian: a real s times a
        Hermitian G is, entry by entry in IEEE arithmetic, and so is a sum of
        such matrices."""
        (s, g), *rest = self.pairs
        h = s * g
        for s, g in rest:
            h += s * g
        h.setflags(write=False)
        return h


@dataclass(frozen=True)
class StateVector:
    """Pure state on the composite space."""

    layout: SpaceLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = _as_readonly(self.amplitudes).reshape(-1)
        if amp.shape != (self.layout.total_dim,):
            raise ValueError(
                f"state length {amp.shape[0]} does not match layout dim {self.layout.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.layout != self.layout:
            raise ValueError("states live on different layouts")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity_to(self, other: "StateVector") -> float:
        return float(abs(self.overlap(other)) ** 2)


class SpinOps(NamedTuple):
    x: Operator
    z: Operator
    plus: Operator
    minus: Operator


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)   # |up><down|
_SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)  # |down><up|


def identity(layout: SpaceLayout) -> Operator:
    return Operator(layout, np.eye(layout.total_dim, dtype=np.complex128))


def ladder_matrix(n: int) -> np.ndarray:
    """Truncated annihilation matrix, <k-1|a|k> = sqrt(k)."""
    a = np.zeros((n, n), dtype=np.complex128)
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return a


def embed(block: np.ndarray, slot: int, layout: SpaceLayout) -> Operator:
    """Embed a single-slot matrix into the full space, identity elsewhere."""
    if slot not in (SLOT_SPIN, SLOT_CHARGE, SLOT_RESONATOR):
        raise ValueError(f"invalid slot id {slot!r}")
    factors = [np.eye(d, dtype=np.complex128) for d in layout.dims]
    factors[slot] = block
    return tensor(*factors, layout)


def tensor(spin_block: np.ndarray, charge_block: np.ndarray, res_block: np.ndarray,
           layout: SpaceLayout) -> Operator:
    """Kronecker product of per-slot matrices in the fixed slot order."""
    dims = layout.dims
    blocks = (spin_block, charge_block, res_block)
    for i, b in enumerate(blocks):
        b = np.asarray(b)
        if b.shape != (dims[i], dims[i]):
            raise ValueError(f"block {i} has shape {b.shape}, expected square of dim {dims[i]}")
    return Operator(layout, np.kron(np.kron(blocks[0], blocks[1]), blocks[2]))


def build_annihilation(layout: SpaceLayout) -> Operator:
    """Resonator annihilation operator tensored with identities on both qubits."""
    return embed(ladder_matrix(layout.fock_cutoff), SLOT_RESONATOR, layout)


def build_number(layout: SpaceLayout) -> Operator:
    """Photon number operator a^dag a."""
    a = ladder_matrix(layout.fock_cutoff)
    return embed(a.conj().T @ a, SLOT_RESONATOR, layout)


def build_spin_ops(layout: SpaceLayout, slot: int) -> SpinOps:
    """Pauli-style operators (x, z, plus, minus) embedded at a qubit slot.

    Convention: basis order (up, down), sigma_z = diag(+1, -1), sigma_x has
    off-diagonal ones, sigma_plus = |up><down|.
    """
    if slot not in (SLOT_SPIN, SLOT_CHARGE):
        raise ValueError(f"slot {slot!r} is not a qubit slot (0 or 1)")
    return SpinOps(
        x=embed(_SIGMA_X, slot, layout),
        z=embed(_SIGMA_Z, slot, layout),
        plus=embed(_SIGMA_PLUS, slot, layout),
        minus=embed(_SIGMA_MINUS, slot, layout),
    )


def basis_state(layout: SpaceLayout, spin: int, charge: int, fock: int) -> StateVector:
    amp = np.zeros(layout.total_dim, dtype=np.complex128)
    amp[layout.index(spin, charge, fock)] = 1.0
    return StateVector(layout, amp)


def vacuum_projector(layout: SpaceLayout) -> Operator:
    """Projector onto the resonator vacuum (identity on both qubits)."""
    p = np.zeros((layout.fock_cutoff, layout.fock_cutoff), dtype=np.complex128)
    p[0, 0] = 1.0
    return embed(p, SLOT_RESONATOR, layout)


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def unitarity_defect(u: np.ndarray) -> float:
    """max |u'u - 1| of a raw square array."""
    u = np.asarray(u)
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def hermiticity_defect(a: np.ndarray) -> float:
    """max |a - a'| of a raw square array, or the largest over a (k, n, n) stack;
    NaN or inf when an entry is not finite, so it fails every `defect < tol`
    (inf - inf gives NaN here, without a warning)."""
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):
        return float(np.abs(a - a.conj().swapaxes(-1, -2)).max())


# ----------------------------------------------------------------------
# matrix exponential
# ----------------------------------------------------------------------

def _taylor_degree(theta: float) -> int:
    """Smallest m with theta^(m+1) / (m+1)! <= 2^-53, the Taylor truncation bound."""
    m, term = 0, theta
    while term > UNIT_ROUNDOFF:
        m += 1
        term *= theta / (m + 1)
    return m


def _expm_taylor(a: np.ndarray, m: int) -> np.ndarray:
    """I + a + ... + a^m / m! by Paterson-Stockmeyer (SIAM J. Comput. 2, 60
    (1973); Higham, Functions of Matrices, sec. 4.2), of one (n, n) matrix or
    of each matrix of a (k, n, n) stack.

    The powers a^2 ... a^s are formed once and the sum is Horner's rule in
    a^s over the blocks B_j = sum_{i<s} a^i / (js+i)!; the top block takes
    every term from a^(js) up to a^m / m!, so when s divides m the last
    term folds into the block below it.  That is s - 1 + (m-1)//s matrix
    products, s chosen to make it least (3 at m = 6, 5 at m = 12, where
    Horner's rule in a takes m - 1).  Each block is added into the running
    sum in place.
    """
    if not m:
        out = np.zeros_like(a)
        _add_to_diagonals(out, 1.0)
        return out
    s = min(range(1, m + 1), key=lambda b: b - 1 + (m - 1) // b)
    coef = [1.0 / math.factorial(k) for k in range(m + 1)]
    powers = [None, a]
    for _ in range(s - 1):
        powers.append(powers[-1] @ a)
    top = (m - 1) // s * s
    out = coef[m] * powers[m - top]
    for lo in range(top, -1, -s):
        if lo < top:
            out = out @ powers[s]
        for i in range(min(s, m - lo) - 1, 0, -1):
            out += coef[lo + i] * powers[i]
        _add_to_diagonals(out, coef[lo])
    return out


def _add_to_diagonals(a: np.ndarray, c: float):
    """a += c I in place, on an (n, n) matrix or on each matrix of a (k, n, n) stack."""
    if a.ndim == 2:
        a.flat[:: a.shape[0] + 1] += c
    else:
        np.einsum("...ii->...i", a)[...] += c    # a writable view of the diagonals


def _expm_scaled(mat: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * mat) by scaling and squaring (Higham, SIMAX 26, 1179 (2005)),
    of one (n, n) matrix or of each matrix of a (k, n, n) stack.

    theta = ||scale * mat||_1 is halved s times to at most TAYLOR_MAX_NORM,
    the Taylor series of 2^-s scale * mat is summed by _expm_taylor to the
    degree _taylor_degree(theta), whose truncation error is below unit
    roundoff (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), and
    the sum is squared s times.  A stack shares one degree and one s, from
    the largest 1-norm in it: each matrix is then summed at least as finely
    as it would be alone, and the stack of a block-diagonal matrix's diagonal
    blocks has that matrix's theta exactly.  A theta that is not finite raises ValueError.
    """
    theta, s = abs(scale) * float(np.abs(mat).sum(axis=-2).max()), 0
    if not np.isfinite(theta):
        raise ValueError("matrix exponential of non-finite input")
    while theta > TAYLOR_MAX_NORM:
        theta, s = theta / 2, s + 1
    out = _expm_taylor(scale * 2.0 ** -s * mat, _taylor_degree(theta))
    for _ in range(s):
        out = out @ out
    return out


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) of a Hermitian (n, n) array or (k, n, n) stack, the hot
    path: only theta's finiteness is checked.  At theta <= TAYLOR_MAX_NORM, as
    the propagators' converged Magnus-4 steps are, it is one Taylor sum; with
    an imaginary scale the result is unitary to rounding."""
    return _expm_scaled(h, scale)


def expm_matrix(mat: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * mat) of any square array; _expm_scaled rejects non-finite
    input, as theta is finite only when every entry and the scale are.  A
    result that is not finite (its squaring overflowed) raises
    NonFiniteError, without numpy's overflow warnings."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _expm_scaled(mat, complex(scale))
    if not np.isfinite(out).all():
        raise NonFiniteError(f"matrix exponential of a {len(mat)} x {len(mat)} matrix "
                             f"with 1-norm {abs(scale) * np.abs(mat).sum(axis=0).max():.3e} "
                             "is not finite")
    return out


def matrix_exponential(op: Operator, scale: complex = 1.0) -> Operator:
    """exp(scale * op) as an Operator; see expm_matrix."""
    return Operator(op.layout, expm_matrix(op.entries, scale))
