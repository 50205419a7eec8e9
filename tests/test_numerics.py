import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

from chanstruct.cli import _choi_min_eig
from chanstruct.numerics import (
    MatrixSubspace,
    NotNearProjection,
    Tolerances,
    blockwise_norm,
    cluster_values,
    commutator_norm,
    dagger,
    KERNEL_FOLD_ROWS,
    gram_kernel,
    kernel_coefficients,
    kraus_transfer,
    lowrank_norm,
    random_unitary,
    round_projector,
    sorted_schur,
    span_basis,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.channel import from_kraus
from tests.test_acceptance import _choi_min_eig as dense_choi_min_eig
from tests.conftest import (
    I2,
    X,
    Z,
    apply_block_expectation,
    block_stacks,
    dense_gram_kernel,
    dense_of_split,
    dense_sorted_schur,
    expectation_onto,
    generated_algebra,
    kernel_basis,
    kron_transfer,
    subspace_intersection,
    transfer_of,
    transfer_of_units,
)


def test_tolerances_positive():
    with pytest.raises(ValueError):
        Tolerances(eq_tol=0.0)


def test_tolerance_levels_are_multiples_of_eq_tol():
    # eq_tol is the one settable value; every other level scales with it
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["eq_tol"]
    for x in (1e-8, 3e-7, 1e-4):
        t = Tolerances(eq_tol=x)
        assert (t.rank_tol, t.peripheral_band, t.derived_tol, t.check_tol,
                t.cycle_tol) == (x / 10, 10 * x, 10 * x, 100 * x, 1e3 * x)
    # the defaults are the fixed values these levels replace
    t = Tolerances()
    assert (t.eq_tol, t.rank_tol, t.peripheral_band, t.derived_tol,
            t.check_tol, t.cycle_tol) == (1e-8, 1e-9, 1e-7, 1e-7, 1e-6, 1e-5)


def test_vec_roundtrip():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(unvec(vec(A), 3), A)
    # column stacking: vec(M X N) = kron(N.T, M) vec(X)
    M = rng.standard_normal((3, 3))
    N = rng.standard_normal((3, 3))
    assert np.allclose(np.kron(N.T, M) @ vec(A), vec(M @ A @ N))


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
    # fewer rows than columns: the rows' null space, the rest of C^k
    short = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    coeff = kernel_coefficients(np.array_split(short, 2), k)
    assert coeff.shape == (k, k - 3)
    assert np.allclose(coeff.conj().T @ coeff, np.eye(k - 3))
    assert np.linalg.norm(short @ coeff) < 1e-12
    assert kernel_coefficients([np.zeros((0, k))], k).shape == (k, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.05, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_kraus_transfer_is_the_transfer_of_the_kraus_pair(dim, K, density,
                                                         seed):
    # the split of x -> sum_k X_k* x Y_k for sparse stacks, made dense,
    # against one call of the map on the matrix units and the Kronecker
    # sum; the pair ([X, Y], [X, -Y]) is the difference of two channels
    rng = np.random.default_rng(seed)
    X, Y = ((rng.standard_normal((K, dim, dim))
             + 1j * rng.standard_normal((K, dim, dim)))
            * (rng.random((K, dim, dim)) < density) for _ in range(2))
    T = dense_of_split(kraus_transfer(X, Y))
    ref = transfer_of(lambda E: sum(dagger(A) @ E @ B for A, B in zip(X, Y)),
                      dim)
    scale = 1e-14 * max(1.0, np.abs(ref).max())
    assert np.abs(T - ref).max() <= scale
    assert np.abs(T - sum(np.kron(B.T, dagger(A))
                          for A, B in zip(X, Y))).max() <= scale
    diff = dense_of_split(kraus_transfer(np.concatenate([X, Y]),
                                         np.concatenate([X, -Y])))
    ref = transfer_of(lambda E: sum(dagger(A) @ E @ A - dagger(B) @ E @ B
                                    for A, B in zip(X, Y)), dim)
    assert np.abs(diff - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def test_transfer_of_matches_kraus_transfer():
    rng = np.random.default_rng(6)
    c = from_kraus([np.sqrt(p) * random_unitary(3, rng) for p in (0.3, 0.7)])
    assert np.allclose(transfer_of(c.apply, 3), kron_transfer(c), atol=1e-14)
    # rectangular Kraus operators, as in a reduced channel: B(C^2) -> B(C^3)
    Ls = rng.standard_normal((3, 2, 3)) + 1j * rng.standard_normal((3, 2, 3))

    def xi(E):
        return sum(L.conj().T @ E @ L for L in Ls)
    T = transfer_of(xi, 2)
    assert T.shape == (9, 4)
    assert np.allclose(T, transfer_of_units(xi, 2), atol=1e-14)
    assert np.allclose(T, sum(np.kron(L.T, L.conj().T) for L in Ls),
                       atol=1e-13)
    # a block expectation onto M_2 (x) I_2 + C I_2, with a state per block
    alg = generated_algebra([block_diag(np.kron(G, I2), np.zeros((2, 2)))
                             for G in (X, Z)])
    states = [np.array([[0.7, 0.1j], [-0.1j, 0.3]]), np.diag([0.4, 0.6])]
    E = expectation_onto(alg, states)
    assert E.structure.n_blocks == 2
    assert np.allclose(E.transfer, transfer_of_units(
        lambda A: apply_block_expectation(E.structure, states, A), 6),
        atol=1e-14)


def test_numerically_zero_stack_spans_nothing():
    # one rule with kernel_coefficients: sigma > rank_tol * max(sigma_max, 1)
    assert span_basis([1e-17 * X]).shape == (0, 2, 2)
    assert MatrixSubspace.from_span([1e-300 * X]).dim == 0
    assert span_basis([1e-3 * X]).shape == (1, 2, 2)


def test_gram_orthonormal():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((3, 3)) for _ in range(5)]
    sub = MatrixSubspace.from_span(mats)
    G = np.einsum("iab,jab->ij", sub.basis.conj(), sub.basis)
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


def projector(S):
    B = S.basis_matrix()
    return B @ B.conj().T


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(0, 4))
def test_subspace_distance_matches_projector_difference(seed, k1, k2):
    # reference: the spectral norm of the difference of the D^2 x D^2
    # projectors, on equal, unequal and empty dimensions; half the draws
    # share a common part so that the distance lies strictly inside (0, 1)
    rng = np.random.default_rng(seed)
    D = 3

    def draw(k):
        return [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
                for _ in range(k)]
    common = draw(min(k1, k2) if seed % 2 else 0)
    s1 = MatrixSubspace.from_span(
        common + draw(k1 - len(common)), dim=D)
    s2 = MatrixSubspace.from_span(
        [m + 1e-3 * rng.standard_normal((D, D)) for m in common]
        + draw(k2 - len(common)), dim=D)
    ref = spectral_norm(projector(s1) - projector(s2))
    assert subspace_distance(s1, s2) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6), st.integers(0, 8),
       st.integers(0, 8))
def test_lowrank_norm_matches_dense(seed, r, m, n):
    # reference: the spectral norm of the formed m x n product, on ranks
    # 0..6 and shapes where r exceeds m or n or a factor is empty
    rng = np.random.default_rng(seed)

    def draw(rows):
        return rng.standard_normal((rows, r)) + \
            1j * rng.standard_normal((rows, r))
    X, Y = draw(m), draw(n)
    ref = spectral_norm(X @ Y.conj().T)
    assert lowrank_norm(X, Y) == pytest.approx(ref, rel=1e-12, abs=1e-12)
    if m == n:
        T = rng.standard_normal((m, m))
        E = X @ Y.conj().T
        assert commutator_norm(block_stacks(T), X, Y) == pytest.approx(
            spectral_norm(E @ T - T @ E), rel=1e-12, abs=1e-12)


def test_subspace_intersection():
    s1 = MatrixSubspace.from_span([I2, X])
    s2 = MatrixSubspace.from_span([I2, Z])
    inter = subspace_intersection(s1, s2)
    assert inter.dim == 1
    assert subspace_distance(inter, MatrixSubspace.from_span([I2])) < 1e-8


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_subspace_intersection_matches_projector_kernel(seed):
    # reference: the kernel of both complements' projectors, stacked
    rng = np.random.default_rng(seed)
    D = 3

    def draw(k):
        return [rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
                for _ in range(k)]
    common = draw(rng.integers(0, 3))
    s1 = MatrixSubspace.from_span(common + draw(rng.integers(1, 3)), dim=D)
    s2 = MatrixSubspace.from_span(common + draw(rng.integers(1, 3)), dim=D)
    eye = np.eye(D * D)
    ref = kernel_basis(np.vstack([eye - projector(s1), eye - projector(s2)]))
    inter = subspace_intersection(s1, s2)
    assert inter.dim == ref.dim == len(common)
    assert subspace_distance(inter, ref) < 1e-8


def test_cluster_values():
    vals = [1.0, 1.0 + 1e-12, -1.0, 1j]
    clusters = cluster_values(vals, 1e-8)
    assert len(clusters) == 3


def test_cluster_order_ignores_rounding_in_the_modulus():
    # a unimodular value off the circle by one ulp keeps its place: within
    # moduli the gap joins, the clusters come in the order of arg
    gap = 1e-7
    assert cluster_values([1, -1], gap) == \
        cluster_values([1, -(1 + 2 ** -52)], gap) == [[0], [1]]
    assert cluster_values([0.5, -1, 1j, 1 - 1e-9], gap) == [[3], [2], [1], [0]]


def test_cluster_order_ignores_the_sign_of_a_rounded_imaginary_part():
    # np.angle is cut at -1: an arg in [0, 2 pi), near 2 pi read as 0,
    # orders -1 and 1 alike whichever way rounding tips them
    gap = 1e-7
    assert cluster_values([1, -1 + 1e-17j], gap) == \
        cluster_values([1, -1 - 1e-17j], gap) == [[0], [1]]
    assert cluster_values([1 + 1e-17j, -1], gap) == \
        cluster_values([1 - 1e-17j, -1], gap) == [[0], [1]]


def permuted_blocks(rng, sizes, make_block):
    """A D^2 x D^2 matrix with diagonal blocks ``make_block(s)`` for the
    sizes s > 0 and 1 x 1 zeros (zero rows) for the sizes 0 and as padding
    to a square, under a random permutation; returned with D and the index
    sets of its blocks."""
    D = math.isqrt(max(sum(sizes) + sizes.count(0), 1) - 1) + 1
    sizes = sizes + [0] * (D * D - sum(sizes) - sizes.count(0))
    M = np.zeros((D * D, D * D), dtype=complex)
    blocks, start = [], 0
    for s in sizes:
        if s:
            M[start:start + s, start:start + s] = make_block(s)
        blocks.append(np.arange(start, start + max(s, 1)))
        start += max(s, 1)
    p = rng.permutation(D * D)
    inverse = np.argsort(p)
    return M[np.ix_(p, p)], D, {tuple(np.sort(inverse[b])) for b in blocks}


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.lists(st.sampled_from([0, 1, 2, 3, 5]), max_size=8),
                 st.sampled_from([[9], [16], [25]])),      # one dense block
       st.integers(0, 2 ** 32 - 1))
def test_split_kernels_match_the_dense_routes(sizes, seed):
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def schur_block(s):
        # moduli in [0.9, 1] or [0, 0.5] under a non-normal triangle, in a
        # random basis
        r = np.where(rng.random(s) < 0.5, 0.9 + 0.1 * rng.random(s),
                     0.5 * rng.random(s))
        T = np.diag(r * np.exp(2j * np.pi * rng.random(s))) \
            + 0.3 * np.triu(gaussian(s, s), 1) / s
        U = random_unitary(s, rng)
        return U @ T @ dagger(U)

    def select(lam):
        return abs(lam) > 0.7

    M, D, blocks = permuted_blocks(rng, sizes, schur_block)
    assert {tuple(b) for idx, _ in block_stacks(M) for b in idx} == blocks
    chains, _, chain_blocks = permuted_blocks(  # one-sided, long paths
        np.random.default_rng(seed), sizes, lambda s: np.eye(s, k=1))
    assert {tuple(b) for idx, _ in block_stacks(chains) for b in idx} == \
        chain_blocks
    scale = max(1.0, spectral_norm(M))
    Z1, L, a11, rest = sorted_schur(block_stacks(M), select)
    k, A11 = len(L), dense_of_split(a11)
    assert spectral_norm(M @ Z1 - Z1 @ A11) <= 1e-13 * scale
    assert spectral_norm(dagger(Z1) @ Z1 - np.eye(k)) <= 1e-13
    assert not np.tril(A11, -1).any()
    assert all(select(x) for x in np.diag(A11))
    assert len(rest) == D * D - k and not any(select(x) for x in rest)
    A_ref, Z_ref, k_ref, L_ref = dense_sorted_schur(M, select)
    assert k == k_ref
    assert spectral_norm(Z1 @ L - Z_ref[:, :k] @ L_ref) <= 1e-12
    assert blockwise_norm(block_stacks(M)) == \
        pytest.approx(spectral_norm(M), rel=1e-14)

    def constraint_block(s):                    # of rank 0 ... s
        r = rng.integers(0, s + 1)
        return gaussian(s, r) @ gaussian(r, s)

    C, D, _ = permuted_blocks(rng, sizes, constraint_block)
    G = dagger(C) @ C

    def constraint(B):
        return vec(B) @ C.T
    kernel = gram_kernel(block_stacks(G), constraint)
    reference = dense_gram_kernel(G, constraint)
    assert kernel.dim == reference.dim
    assert subspace_distance(kernel, reference) <= 1e-10

    def hermitian_block(s):
        W = gaussian(s, s)
        return W + dagger(W)

    H, D, _ = permuted_blocks(rng, sizes, hermitian_block)
    T = H.reshape((D,) * 4).transpose(3, 1, 2, 0).reshape(D * D, D * D)
    assert _choi_min_eig(T, np.eye(D * D), D) == pytest.approx(
        dense_choi_min_eig(T, D), rel=0, abs=1e-14 * spectral_norm(H))


def test_spectral_projector_diagonalizable():
    rng = np.random.default_rng(5)
    V = rng.standard_normal((5, 5)) + 0.1 * np.eye(5)
    lams = np.array([1.0, 1.0, 0.5, 0.2, -0.3])
    M = V @ np.diag(lams) @ np.linalg.inv(V)
    Z1, L, a11, rest = sorted_schur(block_stacks(M),
                                    lambda lam: abs(lam - 1) < 1e-6)
    assert len(L) == 2 and len(rest) == 3
    assert np.linalg.norm(M @ Z1 - Z1 @ dense_of_split(a11)) < 1e-8
    P = Z1 @ L
    assert np.linalg.norm(P @ P - P) < 1e-8
    assert np.linalg.norm(M @ P - P) < 1e-8
    assert abs(np.trace(P) - 2) < 1e-8
