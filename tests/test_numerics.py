import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanstruct.numerics import (
    MatrixSubspace,
    NotNearProjection,
    Tolerances,
    cluster_values,
    KERNEL_FOLD_ROWS,
    hs_inner,
    kernel_basis,
    kernel_coefficients,
    random_unitary,
    round_projector,
    spectral_projector,
    subspace_distance,
    subspace_intersection,
    transfer_of,
    unvec,
    vec,
)
from chanstruct.channel import from_kraus
from tests.conftest import I2, X, Z


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(eq_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(rank_tol=-1e-9)


def test_vec_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(unvec(vec(A), 3), A)
    # column stacking: vec(M X N) = kron(N.T, M) vec(X)
    M = rng.standard_normal((3, 3))
    N = rng.standard_normal((3, 3))
    assert np.allclose(np.kron(N.T, M) @ vec(A), vec(M @ A @ N))


def test_hs_inner_examples():
    assert hs_inner(I2, I2) == pytest.approx(2)
    assert hs_inner(I2, X) == pytest.approx(0)
    A = np.diag([1.0, 2.0])
    assert hs_inner(A, A) == pytest.approx(5)


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert hs_inner(A, B) == pytest.approx(np.conj(hs_inner(B, A)))
    assert hs_inner(A, A).real > 0


def test_kernel_basis_zero_map():
    sub = kernel_basis(np.zeros((4, 4)))
    assert sub.dim == 4


def test_kernel_basis_identity_map():
    sub = kernel_basis(np.eye(4))
    assert sub.dim == 0


def test_kernel_basis_commutation_map():
    # kernel of X -> [diag(1,2), X] is the diagonal matrices
    S = np.diag([1.0, 2.0])
    L = np.kron(np.eye(2), S) - np.kron(S.T, np.eye(2))
    sub = kernel_basis(L)
    assert sub.dim == 2
    for b in sub.basis:
        assert np.allclose(b, np.diag(np.diag(b)))


def test_kernel_coefficients_folded_blocks():
    # rows spread over several folds give the kernel of the whole matrix
    rng = np.random.default_rng(4)
    k, rank = 10, 7
    L = rng.standard_normal((3 * KERNEL_FOLD_ROWS, rank)) @ \
        rng.standard_normal((rank, k))
    coeff = kernel_coefficients(np.array_split(L, 60), k)
    assert coeff.shape == (k, k - rank)
    assert np.allclose(coeff.conj().T @ coeff, np.eye(k - rank))
    assert np.linalg.norm(L @ coeff) < 1e-9 * np.linalg.norm(L)


def test_transfer_of_matches_kraus_transfer():
    rng = np.random.default_rng(6)
    c = from_kraus([np.sqrt(p) * random_unitary(3, rng) for p in (0.3, 0.7)])
    assert np.allclose(transfer_of(c.apply, 3), c.transfer, atol=1e-14)


def test_gram_orthonormal():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((3, 3)) for _ in range(5)]
    sub = MatrixSubspace.from_span(mats)
    G = np.array([[hs_inner(a, b) for b in sub.basis] for a in sub.basis])
    assert np.allclose(G, np.eye(sub.dim), atol=1e-10)


def test_round_projector_examples():
    P = round_projector(np.diag([1.0000000003, -2e-10]))
    assert np.allclose(P, np.diag([1.0, 0.0]))
    assert np.allclose(round_projector(np.eye(3)), np.eye(3))
    with pytest.raises(NotNearProjection):
        round_projector(np.diag([0.5, 0.5]))


def test_round_projector_exact():
    rng = np.random.default_rng(3)
    U = random_unitary(4, rng)
    P0 = U[:, :2] @ U[:, :2].conj().T
    P = round_projector(P0 + 1e-10 * np.eye(4))
    assert np.linalg.norm(P @ P - P) < 1e-14
    assert np.linalg.norm(P - P.conj().T) < 1e-14


def test_subspace_distance_examples():
    s_i = MatrixSubspace.from_span([I2])
    s_x = MatrixSubspace.from_span([X])
    s_iz = MatrixSubspace.from_span([I2, Z])
    full = MatrixSubspace.from_span([np.eye(2), X, Z, np.array([[0, -1j], [1j, 0]])])
    assert subspace_distance(s_i, s_i) == pytest.approx(0, abs=1e-12)
    assert subspace_distance(s_i, s_x) == pytest.approx(1, abs=1e-12)
    assert subspace_distance(full, s_iz) == pytest.approx(1, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_subspace_distance_symmetry_triangle(seed):
    rng = np.random.default_rng(seed)
    subs = [MatrixSubspace.from_span(
        [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
         for _ in range(rng.integers(1, 4))]) for _ in range(3)]
    d01 = subspace_distance(subs[0], subs[1])
    d10 = subspace_distance(subs[1], subs[0])
    d02 = subspace_distance(subs[0], subs[2])
    d12 = subspace_distance(subs[1], subs[2])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-10


def test_subspace_intersection():
    s1 = MatrixSubspace.from_span([I2, X])
    s2 = MatrixSubspace.from_span([I2, Z])
    inter = subspace_intersection(s1, s2)
    assert inter.dim == 1
    assert subspace_distance(inter, MatrixSubspace.from_span([I2])) < 1e-8


def test_cluster_values():
    vals = [1.0, 1.0 + 1e-12, -1.0, 1j]
    clusters = cluster_values(vals, 1e-8)
    assert len(clusters) == 3


def test_spectral_projector_diagonalizable():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((5, 5)) + 0.1 * np.eye(5)
    lams = np.array([1.0, 1.0, 0.5, 0.2, -0.3])
    M = V @ np.diag(lams) @ np.linalg.inv(V)
    P = spectral_projector(M, lambda lam: abs(lam - 1) < 1e-6)
    assert np.linalg.norm(P @ P - P) < 1e-8
    assert np.linalg.norm(M @ P - P) < 1e-8
    assert abs(np.trace(P) - 2) < 1e-8
