import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from hcps import hilbert
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
    identity,
    ladder_matrix,
    matrix_exponential,
    tensor,
    vacuum_projector,
)


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
    assert u.unitarity_defect() < 1e-12


def test_expm_rejects_non_finite():
    m = np.zeros((8, 8))
    m[0, 0] = np.inf
    with pytest.raises(ValueError):
        matrix_exponential(Operator(SpaceLayout(2), m))


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
    # below TAYLOR_MAX_NORM, the eigendecomposition above it
    rng = np.random.default_rng(d)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (m + m.conj().T)
    t = theta / np.abs(h).sum(axis=0).max()
    eigh_calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(1) or eigh(a))
    u = expm_hermitian(h, -1j * t)
    taylor = theta <= hilbert.TAYLOR_MAX_NORM
    assert len(eigh_calls) == (0 if taylor else 1)
    assert np.abs(u - scipy.linalg.expm(-1j * t * h)).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-13
    if taylor:
        # the degree is the smallest that meets the truncation bound
        m = hilbert._taylor_degree(theta)
        bound = lambda k: theta ** (k + 1) / math.factorial(k + 1)
        assert bound(m) <= 2.0 ** -53 < bound(m - 1)
