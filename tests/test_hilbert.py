import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hcps import hilbert
from hcps.config import paper_preset
from hcps.hamiltonians import h_eff
from hcps.hilbert import (
    Operator,
    SLOT_CHARGE,
    SLOT_RESONATOR,
    SLOT_SPIN,
    SpaceLayout,
    basis_state,
    build_annihilation,
    build_number,
    build_spin_ops,
    commutator,
    embed,
    expm_hermitian,
    hermiticity_defect,
    identity,
    ladder_matrix,
    matrix_exponential,
    tensor,
    unitarity_defect,
    vacuum_projector,
)

from test_propagation import _parity_classes


def test_layout_dims():
    lay = SpaceLayout(5)
    assert lay.total_dim == 20
    assert lay.dims == (2, 2, 5)
    assert lay.index(1, 0, 3) == 2 * 5 + 3


def test_layout_rejects_small_cutoff():
    with pytest.raises(ValueError):
        SpaceLayout(1)


def test_layout_rejects_bad_labels():
    lay = SpaceLayout(3)
    with pytest.raises(ValueError):
        lay.index(2, 0, 0)
    with pytest.raises(ValueError):
        lay.index(0, 0, 3)


def test_ladder_smallest_cutoff():
    a = ladder_matrix(2)
    assert a[0, 1] == 1.0
    assert np.count_nonzero(a) == 1


def test_ladder_entry_sqrt3():
    a = ladder_matrix(4)
    assert a[2, 3] == pytest.approx(np.sqrt(3.0), abs=1e-15)


def test_ladder_commutator_identity_below_cutoff():
    # direct matrix-multiplication oracle: [a, a+] = 1 except the top level
    n = 7
    lay = SpaceLayout(n)
    a = build_annihilation(lay)
    comm = commutator(a, a.dagger()).entries
    eye = np.eye(lay.total_dim)
    keep = [lay.index(s, c, k) for s in range(2) for c in range(2) for k in range(n - 1)]
    assert np.abs(comm[np.ix_(keep, keep)] - eye[np.ix_(keep, keep)]).max() < 1e-13


def test_spin_ops_square_to_identity():
    lay = SpaceLayout(3)
    for slot in (SLOT_SPIN, SLOT_CHARGE):
        sx = build_spin_ops(lay, slot).x
        assert (sx @ sx - identity(lay)).norm_max() < 1e-15


def test_spin_ops_distinct_slots_commute():
    lay = SpaceLayout(3)
    a = build_spin_ops(lay, SLOT_SPIN).x
    b = build_spin_ops(lay, SLOT_CHARGE).x
    assert commutator(a, b).norm_max() == 0.0


def test_ladder_completeness_on_qubit():
    lay = SpaceLayout(2)
    ops = build_spin_ops(lay, SLOT_CHARGE)
    anti = ops.plus @ ops.minus + ops.minus @ ops.plus
    assert (anti - identity(lay)).norm_max() < 1e-15


def test_spin_ops_invalid_slot():
    with pytest.raises(ValueError):
        build_spin_ops(SpaceLayout(2), SLOT_RESONATOR)


def test_embed_identity_is_identity():
    lay = SpaceLayout(4)
    assert (embed(np.eye(2), SLOT_SPIN, lay) - identity(lay)).norm_max() == 0.0


def test_embed_dimension_mismatch():
    with pytest.raises(ValueError):
        embed(np.eye(3), SLOT_SPIN, SpaceLayout(4))


def test_tensor_matches_explicit_kron():
    rng = np.random.default_rng(11)
    lay = SpaceLayout(2)
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 2, 2)]
    got = tensor(*blocks, lay).entries
    want = np.kron(np.kron(blocks[0], blocks[1]), blocks[2])
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_hermiticity_defect_is_max_entry_of_a_minus_its_adjoint():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 2] = 0.25j
    assert hermiticity_defect(a) == 0.25
    assert Operator(SpaceLayout(2), np.diag(np.arange(8.0))).hermiticity_defect() == 0.0


def test_hermiticity_defect_of_a_stack_is_the_largest_per_matrix_defect():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[0, 0, 1] = 0.25
    stack[2, 1, 0] = 0.5j
    assert [hermiticity_defect(a) for a in stack] == [0.25, 0.0, 0.5]
    assert hermiticity_defect(stack) == 0.5
    stack[1, 1, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(hermiticity_defect(stack))


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "-1j*inf"])
@pytest.mark.parametrize("where", [(1, 1), (0, 2), slice(None)],
                         ids=["diagonal", "off_diagonal", "everywhere"])
def test_hermiticity_defect_of_a_non_finite_entry_fails_without_warning(value, where):
    # NaN or inf, never a number a tolerance accepts; inf - inf must not warn
    a = np.eye(3, dtype=complex)
    a[where] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        defect = hermiticity_defect(a)
    assert not defect < 1.0


def test_dagger_involution():
    rng = np.random.default_rng(7)
    lay = SpaceLayout(2)
    m = Operator(lay, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    assert (m.dagger().dagger() - m).norm_max() == 0.0


def test_operator_entries_immutable():
    lay = SpaceLayout(2)
    op = identity(lay)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 2.0


def test_expm_zero_is_identity():
    lay = SpaceLayout(3)
    zero = Operator(lay, np.zeros((12, 12)))
    assert (matrix_exponential(zero) - identity(lay)).norm_max() < 1e-15


def test_expm_pauli_rotation():
    # exp(-i theta sx) = cos(theta) - i sin(theta) sx at theta = pi/3
    lay = SpaceLayout(2)
    sx = build_spin_ops(lay, SLOT_CHARGE).x
    theta = np.pi / 3
    got = matrix_exponential(sx, -1j * theta)
    want = np.cos(theta) * identity(lay) + (-1j * np.sin(theta)) * sx
    assert (got - want).norm_max() < 1e-14


def test_expm_anti_hermitian_is_unitary():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m - m.conj().T
    u = matrix_exponential(Operator(SpaceLayout(2), m))
    assert unitarity_defect(u.entries) < 1e-12


def test_expm_rejects_non_finite():
    m = np.zeros((8, 8))
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exponential(Operator(SpaceLayout(2), m))
    # both raw entries, on a non-finite entry and on a non-finite scale
    for entry in (expm_hermitian, hilbert.expm_matrix):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                entry(np.diag([1.0, bad, 3.0]).astype(np.complex128), -0.1j)
            with pytest.raises(ValueError, match="non-finite"):
                entry(np.eye(3, dtype=np.complex128), bad)


def test_expm_matrix_raises_on_a_result_that_is_not_finite_without_warning():
    # finite input whose squarings overflow, as a 1e300 rate scale makes of a
    # Liouvillian: numpy warned and the NaN map went on into the leg
    m = np.diag([1e300, -1.0]).astype(np.complex128)
    m[0, 1] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hilbert.NonFiniteError, match="not finite"):
            hilbert.expm_matrix(m, 0.5)
    assert issubclass(hilbert.NonFiniteError, ArithmeticError)


def test_basis_state_and_vacuum_projector():
    lay = SpaceLayout(3)
    psi = basis_state(lay, 1, 0, 2)
    assert psi.norm() == 1.0
    assert psi.amplitudes[lay.index(1, 0, 2)] == 1.0
    proj = vacuum_projector(lay)
    assert (proj @ proj - proj).norm_max() < 1e-15
    assert np.real(np.trace(proj.entries)) == pytest.approx(4.0)


def test_number_operator_spectrum():
    lay = SpaceLayout(4)
    n_op = build_number(lay)
    vals = np.sort(np.linalg.eigvalsh(n_op.entries))
    np.testing.assert_allclose(vals, np.repeat([0, 1, 2, 3], 4), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       t=st.floats(min_value=-2.0, max_value=2.0))
def test_expm_hermitian_matches_scipy_and_is_unitary(n, seed, t):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (m + m.conj().T)
    u = expm_hermitian(h, -1j * t)
    assert np.abs(u - scipy.linalg.expm(-1j * t * h)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-13


@pytest.mark.parametrize("d", [4, 32, 80])
@pytest.mark.parametrize("theta", [1e-6, 2e-3, 0.016, 0.99 * hilbert.TAYLOR_MAX_NORM,
                                   1.01 * hilbert.TAYLOR_MAX_NORM, 5.0, 50.0])
def test_expm_hermitian_both_branches(d, theta, monkeypatch):
    # theta = ||scale * h||_1 picks the branch: a Taylor polynomial at or
    # below TAYLOR_MAX_NORM, scaling and squaring of one above it; no
    # eigendecomposition at any theta
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (m + m.conj().T)
    t = theta / np.abs(h).sum(axis=0).max()
    eigh_calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or eigh(a))
    u = expm_hermitian(h, -1j * t)
    taylor = theta <= hilbert.TAYLOR_MAX_NORM
    assert not eigh_calls
    assert np.abs(u - scipy.linalg.expm(-1j * t * h)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-13
    if taylor:
        # the degree is the smallest that meets the truncation bound
        m = hilbert._taylor_degree(theta)
        bound = lambda k: theta ** (k + 1) / math.factorial(k + 1)
        assert bound(m) <= 2.0 ** -53 < bound(m - 1)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / np.abs(want).max())


@pytest.mark.parametrize("z", [1e-3, 2.0, 5.0])
def test_expm_matrix_of_the_ladder_matches_scipy(z):
    # the nilpotent a and a^dag of the six-factor product at N = 20; at
    # z = 2 and 5 theta exceeds TAYLOR_MAX_NORM, so the squaring runs
    a, scale = ladder_matrix(20), -1j * z
    for mat in (a, a.T):
        assert (abs(scale) * np.abs(mat).sum(axis=0).max() > hilbert.TAYLOR_MAX_NORM) == (z > 1)
        got = hilbert.expm_matrix(mat, scale)
        assert _relative_error(got, scipy.linalg.expm(scale * mat)) < 1e-13


def test_expm_matrix_of_a_random_non_normal_matrix_matches_scipy():
    rng = np.random.default_rng(16)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    assert np.abs(m @ m.conj().T - m.conj().T @ m).max() > 1.0
    got = hilbert.expm_matrix(m, 0.5)
    assert _relative_error(got, scipy.linalg.expm(0.5 * m)) < 1e-13


def _explicit_taylor_sum(a: np.ndarray, m: int) -> np.ndarray:
    term = np.eye(a.shape[0], dtype=a.dtype)
    total = term.copy()
    for k in range(1, m + 1):
        term = term @ a / k
        total += term
    return total


@pytest.mark.parametrize("d", [4, 25, 80])
def test_expm_taylor_is_the_truncated_series(d):
    # the Paterson-Stockmeyer sum against the partial sum built term by
    # term, over degrees with a folded top block (s divides m), a partial
    # one, and the trivial m = 0 and m = 1
    rng = np.random.default_rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a *= hilbert.TAYLOR_MAX_NORM / np.abs(a).sum(axis=0).max()
    for m in range(17):
        got = hilbert._expm_taylor(a, m)
        assert got.dtype == a.dtype
        assert _relative_error(got, _explicit_taylor_sum(a, m)) < 1e-14, m
    assert np.array_equal(hilbert._expm_taylor(a, 0), np.eye(d))


class _MatmulCounter(np.ndarray):
    calls = 0

    def __matmul__(self, other):
        _MatmulCounter.calls += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        _MatmulCounter.calls += 1
        return super().__rmatmul__(other)


@pytest.mark.parametrize("m, products", [(1, 0), (2, 1), (6, 3), (9, 4), (12, 5), (13, 6)])
def test_expm_taylor_product_count(m, products):
    # Paterson-Stockmeyer: s - 1 powers and (m-1)//s Horner steps in a^s,
    # against m - 1 products for Horner's rule in a
    a = (0.01 * np.arange(64.0).reshape(8, 8)).astype(np.complex128).view(_MatmulCounter)
    _MatmulCounter.calls = 0
    got = hilbert._expm_taylor(a, m)
    assert _MatmulCounter.calls == products
    assert _relative_error(np.asarray(got), _explicit_taylor_sum(np.asarray(a), m)) < 1e-14



def _h_eff_and_parity_blocks() -> tuple[np.ndarray, np.ndarray]:
    # h_eff on the preset at N = 20 and its two 40 x 40 excitation-parity blocks
    lay = SpaceLayout(20)
    h = h_eff(paper_preset().system, lay, 0.3).entries
    parity = _parity_classes(lay)
    idx = np.stack([np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)])
    return h, h[idx[:, :, None], idx[:, None, :]]


def _stack_case(name: str) -> tuple[np.ndarray, complex]:
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
    scales = np.array([0.1, 1.0, 10.0])[:, None, None]
    return {"h_eff_grid_step": lambda: (_h_eff_and_parity_blocks()[1], -2j * math.pi / 1024),
            "h_eff_squared": lambda: (_h_eff_and_parity_blocks()[1], -0.8j),
            "hermitian": lambda: (0.5 * (m + m.conj().swapaxes(-1, -2)) * scales, -0.3j),
            "non_normal": lambda: (0.2 * m * scales, 0.5)}[name]()


_STACK_CASES = ["h_eff_grid_step", "h_eff_squared", "hermitian", "non_normal"]


def test_parity_blocks_share_the_dense_theta():
    h, blocks = _h_eff_and_parity_blocks()
    assert np.abs(blocks).sum(axis=-2).max() == np.abs(h).sum(axis=0).max()


@pytest.mark.parametrize("name", _STACK_CASES)
def test_expm_of_a_stack_matches_scipy_slice_by_slice(name):
    # one degree and one scaling from the largest 1-norm in the stack; each
    # slice still matches its own exponential
    stack, scale = _stack_case(name)
    got = hilbert._expm_scaled(stack, scale)
    assert got.shape == stack.shape
    for g, mat in zip(got, stack):
        assert _relative_error(g, scipy.linalg.expm(scale * mat)) < 1e-13


@pytest.mark.parametrize("name", _STACK_CASES)
def test_expm_of_a_one_matrix_stack_is_the_matrix_call(name):
    stack, scale = _stack_case(name)
    for mat in stack:
        assert np.array_equal(hilbert._expm_scaled(mat[None], scale)[0],
                              hilbert._expm_scaled(mat, scale))
    # the Taylor sums alone, at every degree, m = 0 included
    a = 0.01 * stack[0]
    for m in range(14):
        assert np.array_equal(hilbert._expm_taylor(a[None], m)[0], hilbert._expm_taylor(a, m))
