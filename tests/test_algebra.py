import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chanstruct.algebra import (
    NotAlgebra,
    _minimal_ranges,
    atomic_structure,
    center,
    commutant,
    restrict_to_commutant,
)
from chanstruct.channel import ChannelSpec
from chanstruct.cycles import mfnc_decompose
from chanstruct.numerics import (
    MatrixSubspace,
    Tolerances,
    dagger,
    random_unitary,
    span_basis,
    spectral_norm,
    subspace_distance,
)
from chanstruct.oqrw import builder_pauli_walk, to_channel
from chanstruct.structure import dfa, fixed_points, invariant_states, spectrum
from tests.conftest import (
    I2,
    X,
    Z,
    NotFaithful,
    expectation_onto,
    extract_block_states,
    full_algebra,
    generated_algebra,
    dense_commutant_restriction,
    supported,
    svd_route_commutant,
)


def test_commutant_examples():
    assert commutant([I2]).dim == 4
    diag = commutant([np.diag([1.0, 2.0])])
    assert diag.dim == 2
    assert commutant([X, Z]).dim == 1


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 3))
def test_commutant_matches_svd_route(seed, dim, ngens):
    # block-diagonal generators (a nontrivial commutant) at mixed scales,
    # not closed under adjoints, next to the dense-SVD oracle
    rng = np.random.default_rng(seed)
    cut = rng.integers(1, dim)
    gens = []
    for scale in 10.0 ** rng.integers(-3, 3, ngens):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        g[:cut, cut:] = g[cut:, :cut] = 0
        gens.append(scale * g)
    new, old = commutant(gens), svd_route_commutant(gens, dim)
    assert new.dim == old.dim
    assert subspace_distance(new, old) < 1e-10
    # a zero generator leaves the commutant as it is
    padded = commutant(gens + [np.zeros((dim, dim))])
    assert padded.dim == new.dim
    assert subspace_distance(padded, new) < 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_commutant_restriction_on_supports_matches_the_dense_route(seed):
    # operators in the algebra of the blocks {0, 1}, {2, 3, 4}, {5}, {6}:
    # a zero one, one with every row and column live, two on {0, 1} and
    # two of one shape on overlapping parts of {2, 3, 4}, one of another
    # shape; restricted from all matrices, from a subspace, and the
    # center of the algebra they generate
    rng, dim = np.random.default_rng(seed), 7
    op = functools.partial(supported, rng, dim)
    full = sum(op(b, b) for b in ([0, 1], [2, 3, 4], [5], [6]))
    ops = np.array([np.zeros((dim, dim)), full, op([0, 1], [0, 1]),
                    op([0, 1], [0, 1]), op([2, 3], [3, 4]),
                    op([3, 4], [2, 4]), op([2], [2, 3, 4])])
    alg = generated_algebra(ops[2:])
    sub = MatrixSubspace(dim, span_basis(
        np.concatenate([alg.basis, op(range(dim), range(dim))[None]])))
    for space, gens in ((full_algebra(dim), ops), (sub, ops[:4]),
                        (alg, alg.basis), (full_algebra(dim), ops[4:])):
        new = restrict_to_commutant(space, gens)
        old = dense_commutant_restriction(space, gens)
        assert new.dim == old.dim
        assert subspace_distance(new, old) <= 1e-12


def test_generated_algebra_examples():
    assert generated_algebra([], dim=2).dim == 1
    assert generated_algebra([X]).dim == 2
    assert generated_algebra([X, Z]).dim == 4


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 3))
def test_bicommutant(seed, dim, ngens):
    rng = np.random.default_rng(seed)
    gens = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(ngens)]
    gen_alg = generated_algebra(gens)
    bicom = commutant(list(commutant(gens).basis))
    assert subspace_distance(gen_alg, bicom) < 1e-8


def test_center_examples():
    assert center(full_algebra(2)).dim == 1
    diag3 = generated_algebra([np.diag([1.0, 2.0, 3.0])])
    assert center(diag3).dim == 3
    m2xI = generated_algebra([np.kron(X, I2), np.kron(Z, I2)])
    assert center(m2xI).dim == 1


def test_atomic_structure_factor():
    # M2 (x) I3 inside 6x6: one block, left 2, right 3
    gens = [np.kron(X, np.eye(3)), np.kron(Z, np.eye(3))]
    alg = generated_algebra(gens)
    st_ = atomic_structure(alg)
    assert st_.n_blocks == 1
    assert st_.left_dims == (2,)
    assert st_.right_dims == (3,)
    P = st_.central_projections[0]
    assert np.allclose(P, np.eye(6))
    U = st_.block_unitaries[0]
    assert np.allclose(U @ dagger(U), np.eye(6), atol=1e-8)
    # conjugated algebra is B(C2) (x) I3
    for b in alg.basis:
        Xc = U @ b @ dagger(U)
        X4 = Xc.reshape(2, 3, 2, 3)
        a = np.einsum("irjr->ij", X4) / 3
        assert np.linalg.norm(X4 - np.einsum("ij,rs->irjs", a, np.eye(3))) < 1e-7


def test_atomic_structure_diagonal():
    alg = generated_algebra([np.diag([1.0, 2.0])])
    st_ = atomic_structure(alg)
    assert st_.n_blocks == 2
    assert st_.left_dims == (1, 1)
    assert st_.right_dims == (1, 1)
    assert np.allclose(sum(st_.central_projections), np.eye(2))


def test_atomic_structure_mixed_blocks():
    # M2(x)I2 on the first 4 dims, scalars on the last 2: blocks (2,2) and (1,2)
    blk = [np.zeros((6, 6), dtype=complex) for _ in range(2)]
    blk[0][:4, :4] = np.kron(X, I2)
    blk[1][:4, :4] = np.kron(Z, I2)
    alg = generated_algebra(blk)
    st_ = atomic_structure(alg)
    assert st_.n_blocks == 2
    dims = set(zip(st_.left_dims, st_.right_dims))
    assert dims == {(2, 2), (1, 2)}
    assert np.allclose(sum(st_.central_projections), np.eye(6))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                min_size=1, max_size=4).filter(
                    lambda shapes: sum(a * b for a, b in shapes) <= 12),
       st.integers(0, 10_000))
@example([(2, 2), (2, 2), (1, 3)], 0)
@example([(1, 1), (1, 1), (1, 2), (3, 1)], 1)
def test_atomic_structure_of_planted_blocks(shapes, seed):
    # V (sum_j M_nL_j (x) I_nR_j) V* for a Haar V: the central projections
    # are the planted ones, with their dims, and each U_j carries every
    # basis element to a (x) I
    D = sum(nL * nR for nL, nR in shapes)
    V = random_unitary(D, np.random.default_rng(seed))
    units, planted, start = [], [], 0
    for nL, nR in shapes:
        stop = start + nL * nR
        for a in range(nL * nL):
            B = np.zeros((D, D), dtype=complex)
            B[start:stop, start:stop] = np.kron(
                np.eye(nL * nL)[a].reshape(nL, nL), np.eye(nR))
            units.append(V @ B @ dagger(V))
        P = np.zeros((D, D))
        P[start:stop, start:stop] = np.eye(stop - start)
        planted.append((V @ P @ dagger(V), (nL, nR)))
        start = stop
    alg = MatrixSubspace.from_span(units)
    st_ = atomic_structure(alg)
    matched = []
    for P, U, nL, nR in zip(st_.central_projections, st_.block_unitaries,
                            st_.left_dims, st_.right_dims, strict=True):
        [k] = [k for k, (Q, _) in enumerate(planted)
               if spectral_norm(P - Q) <= 1e-10]
        assert planted[k][1] == (nL, nR)
        matched.append(k)
        X4 = (U @ alg.basis @ dagger(U)).reshape(-1, nL, nR, nL, nR)
        a = np.einsum("kirjr->kij", X4) / nR
        resid = X4 - np.einsum("kij,rs->kirjs", a, np.eye(nR))
        assert np.abs(resid).max() <= 1e-8
    assert sorted(matched) == list(range(len(shapes)))


def test_atomic_structure_too_coarse_to_split_raises():
    # at eq_tol = 1 the cluster gap 10 * max(1, |w|) joins both eigenvalues
    # of every non-scalar element of the diagonal algebra: no split is
    # possible, and the split stops with NotAlgebra
    alg = generated_algebra([np.diag([1.0, 2.0])])
    with pytest.raises(NotAlgebra):
        atomic_structure(alg, Tolerances(eq_tol=1.0))


def _check_expectation(E, tol=1e-8):
    T = E.transfer
    assert np.linalg.norm(T @ T - T) < 1e-7
    D = E.dim
    assert np.allclose(E.apply(np.eye(D)), np.eye(D), atol=tol)


def test_expectation_scalars():
    alg = generated_algebra([], dim=3)
    E = expectation_onto(alg, [np.eye(3) / 3])
    _check_expectation(E)
    A = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.allclose(E.apply(A), np.trace(A) / 3 * np.eye(3))


def test_expectation_full_algebra():
    E = expectation_onto(full_algebra(2), [np.eye(1)])
    assert np.allclose(E.transfer, np.eye(4))


def test_expectation_pinching():
    alg = generated_algebra([np.diag([1.0, 2.0])])
    E = expectation_onto(alg, [np.eye(1), np.eye(1)])
    A = np.array([[1, 5], [7, 2]], dtype=complex)
    assert np.allclose(E.apply(A), np.diag([1.0, 2.0]))


def test_expectation_module_property_and_cp():
    gens = [np.kron(X, np.eye(3)), np.kron(Z, np.eye(3))]
    alg = generated_algebra(gens)
    rng = np.random.default_rng(4)
    rho = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = rho @ dagger(rho) + 0.1 * np.eye(3)
    rho /= np.trace(rho).real
    E = expectation_onto(alg, [rho])
    _check_expectation(E)
    # complete positivity via the Choi matrix of the transfer map
    from chanstruct.channel import ChannelSpec
    D = E.dim
    C = np.zeros((D * D, D * D), dtype=complex)
    for i in range(D):
        for j in range(D):
            Eij = np.zeros((D, D), dtype=complex)
            Eij[i, j] = 1
            C += np.kron(Eij, E.apply(Eij))
    assert np.linalg.eigvalsh((C + dagger(C)) / 2).min() > -1e-8
    # module property E(AXB) = A E(X) B for A, B in range
    for _ in range(3):
        A = sum(rng.standard_normal() * b for b in alg.basis)
        B = sum(rng.standard_normal() * b for b in alg.basis)
        Xr = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert np.linalg.norm(E.apply(A @ Xr @ B) - A @ E.apply(Xr) @ B) < 1e-7
    # faithfulness: E(X*X) = 0 implies X = 0, sampled
    Xr = rng.standard_normal((6, 6))
    val = E.apply(dagger(Xr) @ Xr)
    assert np.trace(val).real > 1e-6


def test_expectation_not_faithful():
    alg = generated_algebra([np.kron(X, I2), np.kron(Z, I2)])
    with pytest.raises(NotFaithful):
        expectation_onto(alg, [np.diag([1.0, 0.0])])


def test_extract_block_states_roundtrip():
    gens = [np.kron(X, np.eye(2)), np.kron(Z, np.eye(2))]
    alg = generated_algebra(gens)
    rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
    E = expectation_onto(alg, [rho])
    (got,) = extract_block_states(E.apply, E.structure)
    assert np.allclose(got, rho, atol=1e-9)


def test_invariant_state_family():
    # the density U* (omega (x) rho) U of the one block, omega = 1
    alg = generated_algebra([], dim=2)
    E = expectation_onto(alg, [I2 / 2])
    (U,), (rho,) = E.structure.block_unitaries, E.block_states
    s = dagger(U) @ np.kron(np.eye(1), rho) @ U
    assert np.allclose(s, I2 / 2)
    # invariance under preadjoint: trace(s E(A)) = trace(s A)
    rng = np.random.default_rng(6)
    A = rng.standard_normal((2, 2))
    assert np.trace(s @ E.apply(A)) == pytest.approx(np.trace(s @ A))


def test_atomic_structure_does_not_depend_on_the_kraus_order():
    # N's center on pauli-walk-8 has eigenvalue clusters 2.6e-6 apart in
    # some bases: split at every gap at once, half of the 24 orders of
    # the Kraus operators gave a structured Kraus residual of 3e-10
    c = to_channel(builder_pauli_walk(8, 0.5))
    residuals = []
    for order in itertools.permutations(range(len(c.kraus))):
        cp = ChannelSpec(c.dim, c.kraus[list(order)])
        s = spectrum(cp.transfer_blocks)
        comps = mfnc_decompose(cp, fixed_points(s).as_algebra(),
                               atomic_structure(dfa(cp)),
                               invariant_states(cp, s).rho_max)
        residuals += [comp.structured_kraus_residual for comp in comps]
    assert len(residuals) >= 24 and max(residuals) <= 1e-13


def test_minimal_ranges_split_at_the_widest_gap_first():
    # the element picked first has eigenvalues near 1, 1 + d, -1, -1 + d
    # with d = 2.6e-6, in a random basis: split at every gap at once, the
    # pairs' eigenvectors carry errors of order eps / d ~ 1e-11; split at
    # the widest gap, each pair is compressed anew and split at a gap of
    # order 1, and the minimal projections are exact to rounding
    rng = np.random.default_rng(1)
    d = 2.6e-6
    a = np.array([1, 1 + d, -1, -1 + d])
    a -= a.mean()
    Q = np.linalg.qr(np.column_stack([a, np.ones(4),
                                      rng.standard_normal((4, 2))]))[0]
    rest = Q[:, 1:] @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    diagonals = np.column_stack([Q[:, :1], rest]) * [4, 3, 2, 1]
    U = random_unitary(4, rng)
    basis = np.array([U @ np.diag(q) @ dagger(U) for q in diagonals.T])
    ranges = _minimal_ranges(basis, np.eye(4), Tolerances())
    assert len(ranges) == 4
    for W in ranges:
        P = W @ dagger(W)
        assert min(spectral_norm(P - np.outer(u, u.conj())) for u in U.T) \
            <= 1e-13
