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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

SLOT_SPIN = 0
SLOT_CHARGE = 1
SLOT_RESONATOR = 2

HERMITIAN_TOL = 1e-12

# expm_hermitian sums a Taylor series when ||scale * h||_1 is at most this,
# the measured crossover with eigh at d = 32 and 80 on one BLAS thread
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
        return float(np.abs(self.entries - self.entries.conj().T).max())

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermiticity_defect() < tol

    def unitarity_defect(self) -> float:
        d = self.layout.total_dim
        return float(np.abs(self.entries.conj().T @ self.entries - np.eye(d)).max())


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

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.layout, self.amplitudes / n)

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
    """I + a + ... + a^m / m! by Horner's rule, I + a (I + a/2 (... (I + a/m)))."""
    diag = np.s_[:: a.shape[0] + 1]
    out = a / m if m else np.zeros_like(a)
    out.flat[diag] += 1.0
    for k in range(m - 1, 0, -1):
        out = a @ out
        out *= 1.0 / k
        out.flat[diag] += 1.0
    return out


def expm_hermitian(h: np.ndarray, scale: complex) -> np.ndarray:
    """exp(scale * h) of a Hermitian array.

    The caller guarantees Hermiticity; nothing is checked.  A small step,
    theta = ||scale * h||_1 at most TAYLOR_MAX_NORM (a midpoint step of the
    propagators is one), sums the Taylor series by Horner's rule to the
    degree _taylor_degree(theta), whose truncation error is below unit
    roundoff (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)); no
    scaling and squaring.  Every other input, non-finite ones included,
    goes through the eigendecomposition.  With an imaginary scale both
    branches are unitary to rounding.
    """
    theta = abs(scale) * float(np.abs(h).sum(axis=0).max())
    if theta <= TAYLOR_MAX_NORM:
        return _expm_taylor(scale * h, _taylor_degree(theta))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


def expm_matrix(mat: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * mat) on a raw square array.

    Hermitian inputs go through :func:`expm_hermitian`, which keeps
    exp(-i t H) numerically unitary; everything else falls back to the
    scaling-and-squaring Pade routine.  Relative accuracy is at the
    1e-13 level for ||scale * mat|| up to about 10.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)) or not np.isfinite(scale):
        raise ValueError("matrix exponential of non-finite input")
    scale = complex(scale)
    if np.abs(mat - mat.conj().T).max() < HERMITIAN_TOL:
        return expm_hermitian(mat, scale)
    return scipy.linalg.expm(scale * mat)


def matrix_exponential(op: Operator, scale: complex = 1.0) -> Operator:
    """exp(scale * op) as an Operator; see expm_matrix for method choice."""
    return Operator(op.layout, expm_matrix(op.entries, scale))
