import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag
from scipy.optimize import linear_sum_assignment

from chanstruct import numerics
from chanstruct.cli import _choi_min_eig
from chanstruct.numerics import (
    MatrixSubspace,
    NotNearProjection,
    Tolerances,
    blockwise_norm,
    commutator_norm,
    dagger,
    KERNEL_FOLD_ROWS,
    gram_candidates,
    kernel_coefficients,
    kraus_transfer,
    kron_blocks,
    lowrank_norm,
    random_unitary,
    round_projector,
    span_basis,
    spectral_norm,
    split_kernel,
    subspace_distance,
    transfer_distance,
    unit_projector,
    unvec,
    vec,
)
from chanstruct.channel import ChannelSpec, from_kraus
from chanstruct.oqrw import builder_nn_cycle, to_channel
from tests.test_acceptance import _choi_min_eig as dense_choi_min_eig
from tests.test_oqrw import special_pair
from tests.conftest import (
    I2,
    X,
    Z,
    apply_block_expectation,
    block_stacks,
    choi,
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


def interleave_zero_rows(A, rng):
    """A with all-zero rows inserted at random places."""
    out = np.zeros((2 * len(A), *A.shape[1:]), dtype=A.dtype)
    out[np.sort(rng.choice(len(out), len(A), replace=False))] = A
    return out


def record_factorisations(monkeypatch):
    """Wrap np.linalg.qr and svd; the returned list gets, per call, whether
    its input had an all-zero row or column."""
    seen = []
    for name in ("qr", "svd"):
        def recorded(a, *args, _f=getattr(np.linalg, name), **kwargs):
            zero = np.asarray(a) == 0
            seen.append(bool(zero.all(axis=-1).any() | zero.all(axis=-2).any()))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_zero_rows_and_columns_reach_no_factorisation(monkeypatch):
    # exactly-zero rows add nothing to a Gram matrix and zero columns carry
    # no singular vector: the kernel of a constraint stream, the core of a
    # pair of factors and the minimal Kraus form are unchanged without them,
    # and no QR or SVD sees one
    rng = np.random.default_rng(12)
    k, rank = 12, 8
    L = (rng.standard_normal((3 * KERNEL_FOLD_ROWS // 2, rank))
         @ rng.standard_normal((rank, k))).astype(complex)
    X, Y = (rng.standard_normal((40, 5)) + 1j * rng.standard_normal((40, 5))
            for _ in range(2))
    c = ChannelSpec(3, np.sqrt([0.5, 0.5])[:, None, None]
                    * np.stack([np.diag(np.exp(2j * np.pi * rng.random(3)))
                                for _ in range(2)]))
    expected = (kernel_coefficients(np.array_split(L, 7), k),
                np.linalg.svd(X @ dagger(Y), compute_uv=False)[:5],
                np.linalg.svd(c.kraus.reshape(2, 9), compute_uv=False))
    seen = record_factorisations(monkeypatch)
    coeff = kernel_coefficients(
        np.array_split(interleave_zero_rows(L, rng), 7), k)
    core = numerics.lowrank_core(interleave_zero_rows(X, rng),
                                 interleave_zero_rows(Y, rng))
    # the Kraus matrix of diagonal operators: all but 3 of 9 columns zero
    minimal = c.minimal_kraus().kraus.reshape(-1, 9)
    assert seen and not any(seen)
    assert coeff.shape == expected[0].shape == (k, k - rank)
    assert spectral_norm(coeff @ dagger(coeff)
                         - expected[0] @ dagger(expected[0])) <= 1e-12
    assert np.abs(np.linalg.svd(core, compute_uv=False)
                  - expected[1]).max() <= 1e-12 * expected[1][0]
    # the minimal operators are HS-orthogonal, with the singular values of
    # the Kraus matrix, ascending, as norms
    assert np.abs(minimal.conj() @ minimal.T
                  - np.diag(expected[2][::-1] ** 2)).max() <= 1e-12
    assert np.abs(choi(ChannelSpec(3, minimal.reshape(-1, 3, 3)))
                  - choi(c)).max() <= 1e-12


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


def planted_kron_stacks(kind, rng):
    """Two (r, D, D) stacks with planted zero patterns: walk-like 2 x 2
    blocks (the Kraus pair of a transfer matrix), terms dense in A against
    sparse B, and the latter with an all-zero term and two terms that
    cancel."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "walk":                  # the steps i -> i +- 1 on Z_4
        V = np.zeros((8, 8, 8), dtype=complex)
        for k, (i, j) in enumerate([(i, (i + s) % 4) for i in range(4)
                                    for s in (1, -1)]):
            V[k, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = gaussian(2, 2)
        return np.swapaxes(V, -1, -2), dagger(V)
    A = gaussian(5, 6, 6)               # B within two diagonal blocks
    B = gaussian(5, 6, 6) * (rng.random((5, 6, 6)) < 0.5) \
        * block_diag(np.ones((2, 2)), np.ones((4, 4)))
    if kind == "dense":
        return A, B
    A[1] = 0                                # an all-zero term
    return np.concatenate([A, A[:1]]), np.concatenate([B, -B[:1]])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["walk", "dense", "zero-and-cancel"])
def test_kron_blocks_routes_agree(monkeypatch, kind, seed):
    # the scatter of the products of nonzeros and the gather over every
    # block entry, each forced through the route factor, give the same
    # index blocks and the dense Kronecker sum
    A, B = planted_kron_stacks(kind, np.random.default_rng(seed))
    ref = sum(np.kron(a, b) for a, b in zip(A, B))
    scale = 1e-14 * max(1.0, np.abs(ref).max())
    splits = []
    for factor in (0, math.inf):
        monkeypatch.setattr(numerics, "KRON_SCATTER_FACTOR", factor)
        splits.append(kron_blocks(A, B))
        assert np.abs(dense_of_split(splits[-1]) - ref).max() <= scale
    scatter, gather = splits
    assert len(scatter) == len(gather)
    for (i1, S1), (i2, S2) in zip(scatter, gather):
        assert np.array_equal(i1, i2)
        assert np.abs(S1 - S2).max() <= scale


def test_transfer_split_of_a_walk_stays_near_its_nonzeros():
    # nn-cycle n=32 (D=64, 64 Kraus operators of one 2 x 2 block each):
    # T's split holds 12,160 entries (0.2 MiB) and the Kraus stack 4 MiB;
    # filling the split stays near them, far below the 12 MiB that a
    # gather of every term over every entry of the split reads
    V = to_channel(builder_nn_cycle(32, *special_pair())).kraus
    A, B = np.swapaxes(V, -1, -2), dagger(V)
    tracemalloc.start()
    try:
        blocks = kron_blocks(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.shape == (64, 64, 64)
    assert sum(S.size for _, S in blocks) == 12160
    assert peak <= 12 * 2 ** 20, peak / 2 ** 20


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.floats(0.05, 1.0),
       st.floats(1e-9, 1.0), st.integers(0, 2 ** 32 - 1))
def test_transfer_distance_is_the_hs_norm_of_the_transfer_difference(
        dim, K, density, eps, seed):
    # sparse stacks V and V' = V + eps Delta, scaled so that
    # sum_k ||V_k||^2 = dim as for a channel, against the dense
    # Kronecker sums: the HS norm of the difference, never below its
    # 2-norm (rounding aside: for dim 1 the two are equal)
    rng = np.random.default_rng(seed)
    V, Delta = ((rng.standard_normal((K, dim, dim))
                 + 1j * rng.standard_normal((K, dim, dim)))
                * (rng.random((K, dim, dim)) < density) for _ in range(2))
    V *= math.sqrt(dim) / max(np.linalg.norm(V), 1e-300)
    Vp = V + eps * Delta
    value = transfer_distance(Vp, V)
    diff = kron_transfer(ChannelSpec(dim, Vp)) - kron_transfer(
        ChannelSpec(dim, V))
    slack = 1e-12 * max(1.0, value)
    assert abs(value - np.linalg.norm(diff)) <= slack
    assert value >= spectral_norm(diff) - slack
    assert transfer_distance(V, V) <= 1e-13


def test_split_kernel_cuts_with_the_largest_singular_value_of_all():
    # two uncoupled classes of columns, {0, 2} with sigma_max = 1e3 and
    # {1, 3} with a singular value 1e-7: rank_tol * 1e3 = 1e-6 puts that
    # direction in the kernel, as on the whole matrix; a cut per class,
    # rank_tol * max(1, 1) = 1e-9, would keep it out
    Q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    C = np.zeros((6, 4))
    C[:2][:, [0, 2]] = np.diag([1e3, 2.0]) @ Q
    C[2:4][:, [1, 3]] = np.diag([1.0, 1e-7]) @ Q.T
    C[4, 0] = 0.5
    # the nonzeros in two halves, and in row 5 a nonzero at column 0 and
    # two that cancel at column 1, which so couple no columns: repeats
    # are summed before the classes are found
    r, c = np.nonzero(C)
    rows, cols = np.r_[r, r, 5, 5, 5], np.r_[c, c, 0, 1, 1]
    split = split_kernel(rows, cols,
                         np.r_[C[r, c], C[r, c], 1, 1, -1] / 2, 4)
    whole = kernel_coefficients([C], 4)
    assert split.shape == whole.shape == (4, 1)
    assert np.abs(split[[0, 2]]).max() == 0
    assert subspace_distance(MatrixSubspace.from_columns(split, 2),
                             MatrixSubspace.from_columns(whole, 2)) <= 1e-12
    assert kernel_coefficients([C[2:4][:, [1, 3]]], 2).shape == (2, 0)


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


def test_empty_stack_spans_nothing():
    assert span_basis(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    assert MatrixSubspace.from_span([], dim=3).basis.shape == (0, 3, 3)


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

    def unit_block(s):
        # a semisimple eigenvalue 1 of multiplicity k (at least 4 in the one
        # dense block), one of them 1 - eps inside the band in some blocks
        # (eps = 1e-14 or band / 2), one more on the unit circle at
        # distance >= 1 from 1 and the rest of modulus below 0.9, so that
        # the projector is well conditioned, under a random non-normal
        # similarity
        k = rng.integers(4 if s >= 9 else 0, s + 1)
        lam = 0.9 * rng.random(s) * np.exp(2j * np.pi * rng.random(s))
        lam[:k] = 1.0
        lam[k:k + 1] = np.exp(1j * np.pi * (1 + rng.uniform(-2, 2) / 3))
        if k and rng.random() < 0.5:
            lam[0] = 1 - rng.choice([1e-14, band / 2])
        S = random_unitary(s, rng) @ (
            np.eye(s) + 0.5 * np.triu(gaussian(s, s), 1) / np.sqrt(s))
        return S @ np.diag(lam) @ np.linalg.inv(S)

    band = 1e-7

    def select(lam):
        return abs(lam) > 1 - band and abs(lam - 1) <= band

    M, D, blocks = permuted_blocks(rng, sizes, unit_block)
    assert {tuple(b) for idx, _ in block_stacks(M) for b in idx} == blocks
    chains, _, chain_blocks = permuted_blocks(  # one-sided, long paths
        np.random.default_rng(seed), sizes, lambda s: np.eye(s, k=1))
    assert {tuple(b) for idx, _ in block_stacks(chains) for b in idx} == \
        chain_blocks
    scale = max(1.0, spectral_norm(M))
    Z1, L, picked, rest = unit_projector(block_stacks(M), band)
    k = len(L)
    assert spectral_norm(M @ Z1 - Z1 @ (dagger(Z1) @ M @ Z1)) <= 1e-13 * scale
    assert spectral_norm(dagger(Z1) @ Z1 - np.eye(k)) <= 1e-13
    assert len(picked) == k and all(select(x) for x in picked)
    assert len(rest) == D * D - k and not any(select(x) for x in rest)
    A_ref, Z_ref, k_ref, L_ref = dense_sorted_schur(M, select)
    assert k == k_ref
    assert spectral_norm(Z1 @ L - Z_ref[:, :k] @ L_ref) <= 1e-12
    for ours, theirs in ((picked, np.diag(A_ref)[:k]),
                         (rest, np.diag(A_ref)[k:])):
        cost = np.abs(ours[:, None] - theirs[None])     # as multisets
        assert cost[linear_sum_assignment(cost)].max(initial=0.0) \
            <= 1e-13 * scale
    assert blockwise_norm(block_stacks(M)) == \
        pytest.approx(spectral_norm(M), rel=1e-14)

    def constraint_block(s):                    # of rank 0 ... s
        r = rng.integers(0, s + 1)
        return gaussian(s, r) @ gaussian(r, s)

    C, D, _ = permuted_blocks(rng, sizes, constraint_block)
    G = dagger(C) @ C

    def constraint(B):
        return vec(B) @ C.T
    kernel = gram_candidates(block_stacks(G)).restrict([constraint])
    reference = dense_gram_kernel(G, constraint)
    assert kernel.dim == reference.dim
    assert subspace_distance(kernel, reference) <= 1e-10
    r, c = np.nonzero(C)
    split = MatrixSubspace.from_columns(split_kernel(r, c, C[r, c], D * D), D)
    assert split.dim == reference.dim
    assert subspace_distance(split, reference) <= 1e-10

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
    Z1, L, picked, rest = unit_projector(block_stacks(M), 1e-6)
    assert len(L) == 2 and len(rest) == 3
    assert np.abs(picked - 1).max() < 1e-8
    assert np.linalg.norm(M @ Z1 - Z1 @ (dagger(Z1) @ M @ Z1)) < 1e-8
    P = Z1 @ L
    assert np.linalg.norm(P @ P - P) < 1e-8
    assert np.linalg.norm(M @ P - P) < 1e-8
    assert abs(np.trace(P) - 2) < 1e-8


def test_unit_projector_inside_the_band():
    # an eigenvalue 1 - eps inside the band is picked with 1, and Z L is
    # their spectral projector
    rng = np.random.default_rng(5)
    V = rng.standard_normal((5, 5)) + 0.1 * np.eye(5)
    eps = 1e-8
    M = V @ np.diag([1.0, 1 - eps, 0.5, 0.2, -0.3]) @ np.linalg.inv(V)
    Z1, L, picked, rest = unit_projector(block_stacks(M), 1e-7)
    assert len(L) == 2 and np.allclose(np.sort(picked.real), [1 - eps, 1],
                                       rtol=0, atol=1e-13)
    P = V[:, :2] @ np.linalg.inv(V)[:2]
    assert spectral_norm(Z1 @ L - P) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_unit_projector_keeps_the_band_edge(seed):
    # picked eigenvalues 1 and 1 - 0.9 band, and 1 - 1.1 band just outside:
    # inverse iteration at their mean converges too slowly to separate
    # them, so the picked eigenvectors come from eig, as far from the
    # outside one as an eigenvector gap of 0.2 band allows
    band = 1e-7
    rng = np.random.default_rng(seed)
    lam = [1.0, 1 - 0.9 * band, 1 - 1.1 * band, 0.5, -0.3, 0.2j]
    V = random_unitary(6, rng) @ (
        np.eye(6) + 0.5 * np.triu(rng.standard_normal((6, 6)), 1))
    M = V @ np.diag(lam) @ np.linalg.inv(V)
    Z1, L, picked, rest = unit_projector(block_stacks(M), band)
    assert len(L) == 2 and len(rest) == 4
    assert spectral_norm(dagger(Z1) @ Z1 - np.eye(2)) <= 1e-13
    P = V[:, :2] @ np.linalg.inv(V)[:2]
    assert spectral_norm(Z1 @ L - P) <= 1e-6
