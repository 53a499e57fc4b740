"""Lindblad master-equation evolution for the gate sequence.

Decoherence enters through the standard dissipator set: energy relaxation
sigma_minus at rate 1/T1 and pure dephasing sigma_z/sqrt(2) at rate
1/T_phi, per qubit, with 1/T_phi = 1/T2 - 1/(2 T1), plus optional resonator
decay a at rate kappa.  With these normalizations a lone dephasing channel
decays an off-diagonal element as exp(-t/T_phi) and the T1 channel
contributes the remaining exp(-t/(2 T1)) of the total T2 law.

Every collapse operator and both qubit-pulse Hamiltonians act on the qubits
alone or on the resonator alone (so does the change to the sector-block
basis, QUBIT_HADAMARD on the qubit index), so the dissipator is a sum of
two commuting constant maps: a 16 x 16 superoperator on the qubit index
pair of rho and, with resonator decay, an N^2 x N^2 one on its Fock pair,
each exponentiated exactly.  A qubit pulse is one such map, exp(tau L) with
its Hamiltonian in L, and takes no steps.  No d^2 x d^2 matrix is formed.

The one stepped leg, :func:`_strang_leg`, is a Strang split, second order
and trace-preserving to rounding: exact dissipator half-step map, unitary
step by conjugation, half-step map, with the two half maps between
consecutive steps fused into one full-step map, refined by the
step-doubling driver of :mod:`hcps.propagation`.  Each step unitary comes
as a (B, S, S) stack of its diagonal blocks, d = B S:
:func:`hcps.wei_norman.joint_step_unitaries` gives the gate's interaction
leg its four sector blocks (the oracle's order-4 commutator-free Magnus
step), and :func:`hcps.propagation.magnus4_steps` gives :func:`evolve_master`
one dense block (the generic order-4 Magnus step).  Every rho is
Hermitian, so the leg stores and steps only the P = B(B + 1)/2 upper block
pairs (b, b') with b <= b' (10 of 16 at B = 4, the whole matrix at B = 1)
and reads each lower pair as the adjoint of its upper one,
x[(b', b)]_a = adj(x[(b, b')]_a).  The stored stack is (B^2, S, m, S):
entry [p, i, a, i'] = rho_a[(b, i), (b', i')] for the p-th pair, the
diagonal pairs first and the strictly-upper ones as one slice after them,
followed by room for the lower pairs, which one conjugating copy fills
before each qubit map.  The conjugation u_b x adj(u_b') of the stored
pairs is then one batched matrix product on each side, on reshapes that
copy nothing, and so is the qubit map, cut to its P output rows, when
B = 4 (it copies once when B = 1); the Fock map acts inside each pair.  A
Hermitian stack enters this layout once (:func:`_block_layout`) and
leaves it once (:func:`_stacked_layout`).

Dissipators are applied in the frame in which h_eff is written; frame
corrections to the collapse operators under the strong drive are out of
scope and the time constants are config inputs, so both the charge-qubit
and the spin-qubit coherence presets can be explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .gates import PulseSchedule
from .hamiltonians import SystemParams, h_charge_qubit, h_nv
from .hilbert import (
    Operator, SLOT_CHARGE, SLOT_SPIN, SpaceLayout, StateVector, build_annihilation,
    build_spin_ops, expm_hermitian, expm_matrix, hermiticity_defect,
)
from .propagation import PropagationSettings, _check_hermitian, magnus4_steps, step_doubling
from .wei_norman import QUBIT_HADAMARD, dressed_basis, joint_step_unitaries, sector_states

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
        # written so that NaN fails each test
        for name in ("T1_charge_us", "T2_charge_us", "T2_spin_us", "T1_spin_us"):
            if not getattr(self, name) > 0:
                raise ValueError(f"DecoherenceParams.{name} must be > 0 (inf for none), "
                                 f"got {getattr(self, name)!r}")
        if not 0 <= self.kappa_res < math.inf:
            raise ValueError(f"DecoherenceParams.kappa_res must be finite and >= 0, "
                             f"got {self.kappa_res!r}")
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
        if not 0 <= factor < math.inf:
            raise ValueError(f"rate scale factor must be finite and >= 0, got {factor!r}")
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
        # written as not (defect <= tol) so that NaN fails them too
        if not hermiticity_defect(entries) <= self.HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian to tolerance")
        if not abs(entries.trace() - 1.0) <= self.TRACE_TOL:
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

def _local_factors(ops: Sequence[tuple[Operator, float]], n: int, basis: np.ndarray):
    """(qubit, Fock) lists of (factor, value) from (operator, value) pairs.

    :func:`hcps.hilbert.embed` builds every local operator as an exact
    Kronecker product in the lab basis, so Q kron 1_N and 1_4 kron F are
    recognized by equality; an operator on both factors raises ValueError.
    Qubit factors are conjugated by basis (real symmetric, its own inverse).
    """
    qubit, fock = [], []
    for op, value in ops:
        q, f = op.entries[::n, ::n], op.entries[:n, :n]
        if np.array_equal(op.entries, np.kron(q, np.eye(n))):
            qubit.append((basis @ q @ basis, value))
        elif np.array_equal(op.entries, np.kron(np.eye(4), f)):
            fock.append((f, value))
        else:
            raise ValueError("operator acts on both the qubits and the resonator")
    return qubit, fock


def _liouvillian(dim: int, collapse: Sequence[tuple[np.ndarray, float]],
                 h: np.ndarray | None = None) -> np.ndarray | None:
    """Row-major matrix of rho -> -i[h, rho] + sum_k rate_k D[L_k] rho on one factor.

    Row-major vectorization maps A rho B to (A kron B^T) vec(rho).  None,
    the identity map's stand-in, when there is neither h nor a channel.
    """
    if h is None and not collapse:
        return None
    eye = np.eye(dim)
    out = np.zeros((dim * dim,) * 2, dtype=np.complex128)
    if h is not None:
        out += -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l, rate in collapse:
        ldl = l.conj().T @ l
        out += rate * (np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))
    return out


def _pair_blocks(blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column blocks (b, b') of the B^2 pairs in the stored order: the
    B diagonal pairs, the strictly-upper pairs b < b' row by row, and then
    the lower pair (b', b) of each strictly-upper one, in the same order.
    The first P = B(B + 1)/2 are the stored pairs."""
    upper_rows, upper_cols = np.triu_indices(blocks, 1)
    diag = np.arange(blocks)
    return (np.concatenate([diag, upper_rows, upper_cols]),
            np.concatenate([diag, upper_cols, upper_rows]))


def _stored_pairs(blocks: int) -> int:
    return blocks * (blocks + 1) // 2


def _exact_maps(generators: tuple, t: float, blocks: int) -> tuple:
    """exp(t G) of the (qubit, Fock) generators, None (the identity) kept as
    it is.  The 16 x 16 qubit map is cut to the stack of `blocks` blocks:
    its rows for the stored pairs, and its columns for all B^2 pairs in the
    stored order (:func:`_pair_blocks`), each pair with its qubit index pair
    inside the block (rho, rho'), rho < 4 / B."""
    qubit, fock = (None if g is None else expm_matrix(g, t) for g in generators)
    if qubit is not None:
        r = 4 // blocks
        rows, cols = _pair_blocks(blocks)
        inner = np.arange(r)
        order = ((rows[:, None, None] * r + inner[:, None]) * 4
                 + cols[:, None, None] * r + inner).reshape(-1)
        qubit = qubit[np.ix_(order[:_stored_pairs(blocks) * r * r], order)]
    return qubit, fock


def _block_layout(rhos: np.ndarray, blocks: int) -> np.ndarray:
    """The stored stack of a Hermitian (m, d, d) stack, S = d / B: a
    (B^2, S, m, S) array whose first P = B(B + 1)/2 entries are the upper
    pairs of :func:`_pair_blocks`, entry [p, i, a, i'] = rhos[a, b S + i,
    b' S + i'] for the pair (b, b') of p.  The other B(B - 1)/2 entries hold
    no data: they are room for the lower pairs, which :func:`_lower_pairs`
    writes as adjoints, x[(b', b)]_a = adj(x[(b, b')]_a).  A stack that is
    not Hermitian to DensityMatrix.HERMITIAN_TOL raises ValueError.
    """
    defect = hermiticity_defect(rhos)
    if not defect <= DensityMatrix.HERMITIAN_TOL:
        raise ValueError("the open leg steps Hermitian density matrices only; "
                         f"this stack's Hermiticity defect is {defect:.3e}")
    m, d, _ = rhos.shape
    s = d // blocks
    rows, cols = _pair_blocks(blocks)
    pairs = _stored_pairs(blocks)
    x = np.empty((blocks * blocks, s, m, s), dtype=np.complex128)
    upper = rhos.reshape(m, blocks, s, blocks, s)[:, rows[:pairs], :, cols[:pairs], :]
    x[:pairs] = upper.transpose(0, 2, 1, 3)
    return x


def _lower_pairs(x: np.ndarray):
    """Write the lower pairs of a stored stack into its room, each the
    adjoint of its strictly-upper pair, by one conjugating copy."""
    blocks = math.isqrt(len(x))
    np.conjugate(x[blocks:_stored_pairs(blocks)].transpose(0, 3, 2, 1),
                 out=x[_stored_pairs(blocks):])


def _stacked_layout(x: np.ndarray) -> np.ndarray:
    """The (m, d, d) stack of a stored stack; inverse of :func:`_block_layout`,
    with the lower pairs rebuilt as adjoints (in the stack's room)."""
    blocks = math.isqrt(len(x))
    _, s, m, _ = x.shape
    rows, cols = _pair_blocks(blocks)
    _lower_pairs(x)
    out = np.empty((m, blocks, s, blocks, s), dtype=np.complex128)
    out[:, rows, :, cols, :] = x.transpose(0, 2, 1, 3)
    return out.reshape(m, blocks * s, blocks * s)


def _apply_maps(x: np.ndarray, n: int, qubit_map, fock_map) -> np.ndarray:
    """The stored pairs of x after a qubit-pair and a Fock-pair superoperator
    (None: identity), as a (P, S, m, S) stack: x[:P] itself when both are
    the identity, a new array otherwise.

    Seen as (B^2, S/N, N, m, S/N, N), the qubit index is (b, S/N axis) and
    the Fock index the N axis, on each side.  The qubit map, cut by
    :func:`_exact_maps`, is one (P S^2/N^2) x 16 product on all B^2 pairs
    with the qubit pair gathered in front, after :func:`_lower_pairs` has
    filled x's room: a view when B = 4, one copy when B = 1.  The Fock map
    acts inside each stored pair; the two maps commute.
    """
    blocks = math.isqrt(len(x))
    pairs = _stored_pairs(blocks)
    if qubit_map is None and fock_map is None:
        return x[:pairs]
    _, s, m, _ = x.shape
    r = s // n
    v = x[:pairs].reshape(pairs, r, n, m, r, n)
    if qubit_map is not None:
        _lower_pairs(x)
        q = qubit_map @ x.reshape(-1, r, n, m, r, n).transpose(0, 1, 4, 2, 3, 5).reshape(
            len(x) * r * r, -1)
        v = q.reshape(pairs, r, r, n, m, n).transpose(0, 1, 3, 4, 2, 5)
    if fock_map is not None:
        v = np.tensordot(v, fock_map.reshape((n,) * 4), ([2, 5], [2, 3]))
        v = v.transpose(0, 1, 4, 2, 3, 5)
    return v.reshape(pairs, s, m, s)


def _strang_leg(provider: Callable[[int], Iterable[np.ndarray]], duration: float,
                x: np.ndarray, psis: np.ndarray, n: int, dissipators: tuple,
                settings: PropagationSettings
                ) -> tuple[np.ndarray, np.ndarray, bool, float, int]:
    """The one stepped leg: step-doubled Strang passes over provider(steps).

    provider yields each step unitary as the (B, S, S) stack of its diagonal
    blocks, and x is the stored stack of :func:`_block_layout`: only the
    P = B(B + 1)/2 upper block pairs of each density matrix are stepped,
    and a lower pair is read as the adjoint of its upper one.  Each step is
    the exact dissipator half-step map, the step unitary u by conjugation,
    and the half-step map again.  The trailing half of one step and the
    leading half of the next are one constant map, so a pass applies the
    half map, then the full-step map between consecutive unitaries, and the
    half map after the last one.  u_b x adj(u_b') over the stored pairs
    is one batched product on each side; the right one writes into the
    pass's own stack, whose room then takes the lower pairs for the next
    qubit map (the first map writes x's room, which holds no data).  The
    closed twins psis, a (m, d) stack, ride on the same u as (B, m, S), one
    product per block.  The trace defect is read from the diagonal pairs,
    and step doubling compares the stored pairs, whose max-norm is the
    whole stack's.  Returns the final stacks, whether the leg converged
    with a trace defect within TRACE_DRIFT_LIMIT, that defect, and the grid
    used.

    The inputs must be Hermitian.  An average gate fidelity, which needs the
    channel on a basis of the qubit operators, should feed the d^2
    Hermitian basis elements (|i><i|, |i><j| + |j><i| and
    i(|i><j| - |j><i|)), not the matrix units |i><j|, which are not
    Hermitian: on this stack the d^2 cost about what the d(d + 1)/2 units
    i <= j would cost on the full one.
    """
    blocks, s, m, _ = math.isqrt(len(x)), *x.shape[1:]
    pairs = _stored_pairs(blocks)
    rows, cols = (c[:pairs] for c in _pair_blocks(blocks))
    twins = psis.reshape(len(psis), blocks, s).swapaxes(0, 1)

    def run(steps: int):
        half, full = (_exact_maps(dissipators, k * duration / steps, blocks) for k in (0.5, 1.0))
        r = np.empty_like(x)        # the pass's stack: x starts every pass
        stored = r[:pairs].reshape(pairs, s * m, s)
        y, p, gap = x, twins, half
        for ub in provider(steps):
            left = ub[rows] @ _apply_maps(y, n, *gap).reshape(pairs, s, m * s)
            np.matmul(left.reshape(pairs, s * m, s), ub[cols].conj().swapaxes(-1, -2),
                      out=stored)
            y, p, gap = r, p @ ub.swapaxes(-1, -2), full
        r[:pairs] = _apply_maps(r, n, *half)
        return r, p.swapaxes(0, 1).reshape(psis.shape)

    (r, p), converged, steps = step_doubling(run, lambda out: out[0][:pairs], settings,
                                             stage="open-system Strang leg")
    trace_defect = float(np.abs(np.einsum("biai->a", r[:blocks]) - 1.0).max())
    return r, p, converged and trace_defect <= TRACE_DRIFT_LIMIT, trace_defect, steps


def evolve_master(h_fun: Callable[[float], Operator], rho0: DensityMatrix,
                  collapse: Sequence[tuple[Operator, float]],
                  settings: PropagationSettings) -> MasterResult:
    """Integrate d rho/dt = -i[H, rho] + sum_k rate_k D[L_k] rho.

    Step-doubled like the closed-system propagator over settings.window();
    trace drift beyond 1e-6 clears the converged flag rather than raising.
    A collapse operator on both the qubits and the resonator raises ValueError.
    """
    t0, t1 = settings.window()
    layout = rho0.layout
    n = layout.fock_cutoff
    qubit, fock = _local_factors(collapse, n, np.eye(4))
    d = layout.total_dim
    no_states = np.zeros((0, d), dtype=np.complex128)
    whole_space = [np.arange(d)[None]]      # one block: each step is a (1, d, d) stack

    def step_unitaries(steps: int):
        for (u,) in magnus4_steps(h_fun, t0, t1, steps, whole_space):
            yield u

    x, _, converged, trace_defect, steps = _strang_leg(
        step_unitaries, t1 - t0, _block_layout(rho0.entries[None], 1), no_states, n,
        (_liouvillian(4, qubit), _liouvillian(n, fock)), settings)

    rho = _stacked_layout(x)[0]
    rho = 0.5 * (rho + rho.conj().T)    # strip rounding-level asymmetry
    return MasterResult(rho=DensityMatrix(layout, rho), converged=converged,
                        trace_defect=trace_defect, steps_used=steps)


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


def gate_fidelity_open(params: SystemParams, schedule: PulseSchedule,
                       dec: DecoherenceParams, layout: SpaceLayout, *,
                       settings: PropagationSettings) -> OpenGateResult:
    """Average fidelity of the dissipative gate run against its closed twin.

    Each standard input is evolved through the three-pulse sequence under
    the Lindblad equation and scored as <psi_closed| rho |psi_closed>, where
    psi_closed follows the sequence with every rate at zero: exp(-i tau h)
    for a qubit pulse, whose rho map is exact, and the interaction leg's step
    unitaries.  With an empty dissipator set the two agree to rounding.  The
    sequence runs in the sector-block basis (input states are mapped into it
    once by :func:`hcps.wei_norman.sector_states`, qubit factors by
    QUBIT_HADAMARD, and each rho starts as psi psi'); fidelities and traces
    do not depend on it.
    """
    n = layout.fock_cutoff
    qubit, fock = _local_factors(collapse_ops(dec, layout), n, QUBIT_HADAMARD)
    dissipators = (_liouvillian(4, qubit), _liouvillian(n, fock))
    psis = sector_states(np.stack([s.amplitudes for s in standard_input_states(layout)]))
    x = _block_layout(psis[:, :, None] * psis[:, None, :].conj(), 4)

    pulses, on_resonator = _local_factors(
        [(h_charge_qubit(params, layout), schedule.tau1), (h_nv(params, layout), schedule.tau2)],
        n, QUBIT_HADAMARD)
    if on_resonator:
        raise ValueError("a qubit pulse Hamiltonian acts on the resonator")
    for h, tau in pulses:
        _check_hermitian(h, 0.0)
        maps = _exact_maps((_liouvillian(4, qubit, h), dissipators[1]), tau, 4)
        x[:_stored_pairs(4)] = _apply_maps(x, n, *maps)
        psis = (expm_hermitian(h, -1j * tau) @ psis.reshape(-1, 4, n)).reshape(psis.shape)

    x, psis, converged, trace_defect, _ = _strang_leg(
        lambda steps: joint_step_unitaries(params, layout, schedule.t_int, steps),
        schedule.t_int, x, psis, n, dissipators, settings)
    fids = tuple(float(np.real(np.vdot(psi, rho @ psi)))
                 for psi, rho in zip(psis, _stacked_layout(x)))
    return OpenGateResult(fidelity_avg=float(np.mean(fids)), fidelity_per_input=fids,
                          trace_defect=trace_defect, converged=converged)
