import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanstruct import numerics
from chanstruct.algebra import commutant, commutator_gram
from chanstruct.channel import from_kraus
from chanstruct.cli import analyze
from chanstruct.numerics import (
    DEFAULT_TOL,
    GRAM_CANDIDATE_CUTOFF,
    KERNEL_FOLD_ROWS,
    MatrixSubspace,
    dagger,
    gram_candidates,
    hs_norm,
    random_unitary,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.structure import (
    L2Structure,
    NoFaithfulInvariantState,
    PeripheralJordanBlock,
    decoherence_gap,
    dfa,
    fixed_points,
    fixed_points_commutant,
    invariant_states,
    multiplicative_domain,
    spectrum,
)
from chanstruct.oqrw import (
    builder_nn_cycle,
    builder_pauli_walk,
    oqrw_dfa,
    to_channel,
)
from tests.conftest import (
    I2,
    X,
    Y,
    Z,
    NoStabilization,
    amplitude_damping,
    analysis,
    block_stacks,
    cesaro_expectation,
    dense,
    dense_map_norm,
    dense_of_split,
    dense_spectrum,
    dephasing_mixture,
    expectation_onto_dfa,
    gram_route_kraus_commutant,
    kernel_basis,
    kraus_word_basis,
    kron_transfer,
    l2_inner,
    peripheral_eigenpairs,
    word_route_dfa,
    word_route_multiplicative_domain,
)
from tests.test_acceptance import build_corpus
from tools.compare_reports import compare_case
from tools.report_set import dead_corners_walk


def pauli_channel():
    return from_kraus([X / np.sqrt(2), Z / np.sqrt(2)], label="pauli-XZ")


def random_unital_channel(dim, n_unitaries, seed):
    from chanstruct.numerics import random_unitary
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_unitaries))
    return from_kraus([np.sqrt(pi) * random_unitary(dim, rng) for pi in p])


def unitary_channel(U):
    return from_kraus([U])


def spectral_stages(c):
    """Spectrum, invariant states, peripheral data and the factors of E_N
    of a channel, from its shared analysis."""
    a = analysis(c)
    return a.spectrum, a.inv, a.peripheral, a.e_n


def test_fixed_points_identity_channel():
    c = unitary_channel(I2)
    fp = fixed_points(spectrum(c.transfer_blocks))
    assert fp.dim == 4
    assert fp.is_algebra


def test_fixed_points_pauli():
    # F of the XZ mixture is the commutant of {X, Z}: scalars only
    fp = fixed_points(spectrum(pauli_channel().transfer_blocks))
    assert fp.dim == 1
    assert fp.is_algebra
    assert fp.subspace.residual(I2) < 1e-10


def test_fixed_points_unitary_rotation():
    # conjugation by diag(1, i): fixed points are the diagonal algebra
    c = unitary_channel(np.diag([1.0, 1j]))
    fp = fixed_points(spectrum(c.transfer_blocks))
    assert fp.dim == 2
    assert fp.subspace.residual(Z) < 1e-9


def test_spectrum_matches_kernel_route():
    # oracle: F and the invariant-state space as kernels of T - I and
    # T* - I, and the stable part of the dense Schur route as the kernel
    # of E_N
    L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    channels = build_corpus(20240817) + [
        to_channel(builder_nn_cycle(4, L_plus, L_minus)),
        to_channel(builder_pauli_walk(3, 0.5)),
        amplitude_damping(),
        unitary_channel(np.eye(3))]
    for c in channels:
        n = c.dim ** 2
        s = spectrum(c.transfer_blocks)
        F = kernel_basis(kron_transfer(c) - np.eye(n))
        states = kernel_basis(dagger(kron_transfer(c)) - np.eye(n))
        assert subspace_distance(s.fixed, F) <= 1e-10, c.label
        invariant = MatrixSubspace.from_columns(
            np.linalg.qr(s.e_f_factors[1])[0], c.dim)
        assert subspace_distance(invariant, states) <= 1e-10, c.label
        if invariant_states(c, s).faithful:
            stable_dim = dense_spectrum(kron_transfer(c))[2]
            assert kernel_basis(dense(analysis(c).e_n)).dim == stable_dim, \
                c.label
            assert stable_dim + dfa(c).dim == n, c.label
    ad = channels[-2]
    assert not invariant_states(ad, spectrum(ad.transfer_blocks)).faithful


@pytest.mark.parametrize("conjugated", [False, True])
def test_spectrum_refuses_a_jordan_block_at_one(conjugated):
    # not power-bounded: a 2 x 2 Jordan block at the eigenvalue 1, alone in
    # its block of the split (k = s) or inside one dense block with 0.5 and
    # 0.2 (k < s); Z_f is then not fixed by T
    T = np.diag([1.0, 1.0, 0.5, 0.2]).astype(complex)
    T[0, 1] = 1.0
    if conjugated:
        S = np.random.default_rng(3).standard_normal((4, 4))
        T = S @ T @ np.linalg.inv(S)
    with pytest.raises(PeripheralJordanBlock, match="fixed-point residual"):
        spectrum(block_stacks(T))


def test_blockwise_spectrum_matches_the_dense_schur_form():
    # oracle: one Schur form of the whole D^2 x D^2 transfer matrix and
    # one of its peripheral block, with scipy's Sylvester solver; E_N, the
    # stable count and radius are the pipeline's, which reads them off N
    # when the invariant state is faithful
    L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    channels = build_corpus(20240817) + [
        to_channel(builder_nn_cycle(n, L_plus, L_minus)) for n in (4, 8)] + [
        to_channel(builder_pauli_walk(d, 0.5)) for d in (3, 8)] + [
        amplitude_damping(), unitary_channel(np.eye(3))]
    for c in channels:
        s = spectrum(c.transfer_blocks)
        E_N, E_F, stable_dim, stable_radius = dense_spectrum(kron_transfer(c))
        assert spectral_norm(dense(s.e_f_factors) - E_F) <= 1e-12, c.label
        if not invariant_states(c, s).faithful:
            continue
        a = analysis(c)
        assert spectral_norm(dense(a.e_n) - E_N) <= 1e-12, c.label
        assert c.dim ** 2 - a.N.dim == stable_dim, c.label
        radius = np.sort(np.abs(s.eigenvalues))[:stable_dim].max(initial=0.0)
        assert abs(radius - stable_radius) <= 1e-12, c.label


def test_invariant_states_unitary_mixture():
    c = random_unital_channel(3, 3, seed=5)
    s = spectrum(c.transfer_blocks)
    inv = invariant_states(c, s)
    assert inv.faithful
    assert np.allclose(inv.rho_max, np.eye(3) / 3, atol=1e-8)
    assert np.linalg.matrix_rank(s.e_f_factors[1]) == fixed_points(s).dim


def test_invariant_states_block_channel():
    # direct sum of two unitary conjugations: I/D invariant, F 2-dimensional
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = X
    U[2:, 2:] = np.diag([1.0, -1j])
    c = unitary_channel(U)
    s = spectrum(c.transfer_blocks)
    inv = invariant_states(c, s)
    assert inv.faithful
    fp = fixed_points(s)
    assert fp.dim >= 2


def test_fixed_points_commutant_matches_kernel():
    c = random_unital_channel(4, 3, seed=9)
    s = spectrum(c.transfer_blocks)
    F_comm = fixed_points_commutant(c, invariant_states(c, s),
                                    multiplicative_domain(c))
    F_spectral = fixed_points(s)
    assert subspace_distance(F_comm, F_spectral.subspace) < 1e-7


def test_kraus_commutant_inside_m_matches_gram_oracle():
    # {V_k, V_k*}' cut out of M against its own Gram kernel over all D x D
    # matrices, on the D=16 walks and the dephasing mixture at and inside
    # the peripheral band too; dead-corners-3 has no faithful invariant
    # state, so it passes the guard with a faithful flag set by hand
    channels = build_corpus(20240817) + [
        _nn_cycle(8), to_channel(builder_pauli_walk(8, 0.5)),
        to_channel(dead_corners_walk()),
        *(dephasing_mixture(eps) for eps in (1e-3, 1e-7, 5e-8))]
    for c in channels:
        inv, M = invariant_states(c, spectrum(c.transfer_blocks)), \
            multiplicative_domain(c)
        if c.label == "dead-corners-3":
            with pytest.raises(NoFaithfulInvariantState):
                fixed_points_commutant(c, inv, M)
            inv = dataclasses.replace(inv, faithful=True)
        new = fixed_points_commutant(c, inv, M)
        old = gram_route_kraus_commutant(c)
        assert new.dim == old.dim, c.label
        assert subspace_distance(new, old) <= 1e-10, c.label


def test_is_irreducible():
    # the report's irreducibility flag: trivial fixed points
    assert analyze(pauli_channel(), None, DEFAULT_TOL)["irreducible"]
    assert not analyze(unitary_channel(np.eye(2)), None,
                       DEFAULT_TOL)["irreducible"]


def test_multiplicative_domain_pauli():
    # M of the XZ mixture: commutant of {I, XZ, ZX} = commutant of XZ,
    # whose square is -I, so M = span{I, XZ} (dimension 2)
    M = multiplicative_domain(pauli_channel())
    assert M.dim == 2
    assert M.residual(X @ Z) < 1e-9


def test_multiplicative_domain_unitary():
    c = unitary_channel(np.diag([1.0, 1j]))
    M = multiplicative_domain(c)
    assert M.dim == 4  # automorphisms have full multiplicative domain


def test_multiplicative_domain_multiplies_only_meeting_supports():
    # V_j V_k* is zero unless V_j and V_k share a nonzero column: the pairs
    # chosen from the supports give the nonzero products of all pairs
    # j <= k in the same order, so M is bitwise that of their commutant
    walks = [_nn_cycle(4), _nn_cycle(8), to_channel(dead_corners_walk()),
             to_channel(builder_pauli_walk(3, 0.5))]
    for c in walks + build_corpus(20240817)[::5]:
        V = c.kraus
        j, k = np.triu_indices(len(V))
        P = V[j] @ dagger(V[k])
        reference = commutant(P[np.any(P != 0, axis=(1, 2))], dim=c.dim)
        assert np.array_equal(multiplicative_domain(c).basis,
                              reference.basis), c.label


def test_kraus_word_basis_growth():
    c = pauli_channel()
    assert len(kraus_word_basis(c, 1)) == 2        # X, Z
    assert len(kraus_word_basis(c, 2)) == 2        # I, XZ (up to phase)


def _nn_walk(n):
    L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    return builder_nn_cycle(n, L_plus, L_minus)


def _nn_cycle(n):
    return to_channel(_nn_walk(n))


def test_gram_routes_match_word_oracle():
    # M and N from the Gram kernel and the invariant chain against the
    # commutants of Kraus-word products, including the dephasing mixture
    # at and inside the peripheral band and a non-faithful channel
    channels = build_corpus(20240817) + [
        _nn_cycle(4), to_channel(builder_pauli_walk(3, 0.5)),
        *(dephasing_mixture(eps) for eps in (1e-3, 1e-7, 5e-8, 1e-10)),
        amplitude_damping(), unitary_channel(np.eye(3))]
    for c in channels:
        M = multiplicative_domain(c)
        N = dfa(c, M=M)
        for new, old in ((M, word_route_multiplicative_domain(c)),
                         (N, word_route_dfa(c))):
            assert new.dim == old.dim, c.label
            assert subspace_distance(new, old) <= 1e-10, \
                c.label


def test_commutator_gram_identity():
    # <vec A, G vec A> is the summed squared norm of the commutators, for
    # any generators: the M generators of a Kraus list off unitality, the
    # Kraus operators themselves (F), and unstructured matrices
    rng = np.random.default_rng(3)
    for c in (pauli_channel(), random_unital_channel(3, 3, seed=4),
              to_channel(builder_pauli_walk(3, 0.5))):
        V = [1.5 * v for v in c.kraus]
        for gens in ([a @ dagger(b) for a in V for b in V], V,
                     rng.standard_normal((2, c.dim, c.dim))):
            G = dense_of_split(commutator_gram(gens, c.dim))
            A = rng.standard_normal((5, c.dim, c.dim)) \
                + 1j * rng.standard_normal((5, c.dim, c.dim))
            quad = np.einsum("ki,ij,kj->k", A.transpose(0, 2, 1).reshape(
                5, -1).conj(), G, A.transpose(0, 2, 1).reshape(5, -1))
            W = np.concatenate([gens, dagger(np.asarray(gens))])
            norms = sum(np.sum(np.abs(A @ w - w @ A) ** 2, axis=(1, 2))
                        for w in W)
            assert np.allclose(quad, norms, rtol=1e-12, atol=1e-12), c.label


def test_gram_stage_two_decides():
    # at eps = 1e-7 the off-diagonal units violate the commutators with
    # V_1 V_2* = sqrt(p (1 - p)) Z by lambda ~ 4 eps, inside the stage-1
    # cutoff but with sigma ~ 6e-4 far above rank_tol: stage 1 admits
    # them, the exact commutators drop them
    c = dephasing_mixture(1e-7)
    V = c.kraus
    gens = [V[j] @ dagger(V[k]) for j in range(2) for k in range(j, 2)]
    G = commutator_gram(gens, 2)
    lam = np.linalg.eigvalsh(dense_of_split(G))
    assert np.sum(lam <= GRAM_CANDIDATE_CUTOFF * max(lam[-1], 1)) == 4
    assert gram_candidates(G).dim == 4
    assert commutant(gens, 2).dim == multiplicative_domain(c).dim == 2


def test_commutant_restricts_one_fold_block_at_a_time(monkeypatch):
    # the exact commutators of M's second stage reach the kernel fold a
    # few generators at a time: no constraint block has more rows than a
    # fold block or one commutator, whatever the number of generators
    w = _nn_walk(24)
    c, D = to_channel(w), w.total_dim
    rows, fold = [], numerics.kernel_coefficients

    def recorded(blocks, k, tol):
        def seen():
            for b in blocks:
                rows.append(b.shape[0])
                yield b
        return fold(seen(), k, tol)

    monkeypatch.setattr(numerics, "kernel_coefficients", recorded)
    M = multiplicative_domain(c)
    assert rows and max(rows) <= max(KERNEL_FOLD_ROWS, D * D)
    assert M.dim == oqrw_dfa(w).multiplicative_domain.dim


def test_m_and_n_of_a_kraus_list_off_unitality():
    # a Kraus list scaled by 1 + 3e-9 is still accepted (sum V* V is off I
    # by 6e-9 <= eq_tol); M = {V_j V_k*}' and N ignore the scale
    for c in (dephasing_mixture(1e-3), pauli_channel(), _nn_cycle(3)):
        scaled = from_kraus([(1 + 3e-9) * V for V in c.kraus])
        M = multiplicative_domain(scaled)
        assert M.residual(np.eye(c.dim)) <= 1e-12, c.label
        for new, old in ((M, word_route_multiplicative_domain(scaled)),
                         (dfa(scaled, M=M), word_route_dfa(scaled))):
            assert new.dim == old.dim, c.label
            assert subspace_distance(new, old) <= 1e-10, \
                c.label


def _smallest_stabilising_power(c):
    """The smallest cap at which the word-route oracle stabilises."""
    for n in range(1, c.dim ** 2 + 1):
        try:
            word_route_dfa(c, n_max=n)
        except NoStabilization:
            continue
        return n


def test_smallest_stabilising_power_matches_oracle(monkeypatch):
    # dfa restricts M once to the part orthogonal to I, and that part once
    # per power after the first; the oracle starts from all of B(H), so its
    # chain takes as many steps
    restrict, steps = MatrixSubspace.restrict, []

    def counted(*args, **kwargs):
        steps.append(None)
        return restrict(*args, **kwargs)

    for c in build_corpus(20240817):
        M = multiplicative_domain(c)
        steps.clear()
        with monkeypatch.context() as m:
            m.setattr(MatrixSubspace, "restrict", counted)
            dfa(c, M=M)
        assert len(steps) == _smallest_stabilising_power(c), c.label


_METAMORPHIC_CHANNELS = build_corpus(27)[::3] + [_nn_cycle(3)]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(range(len(_METAMORPHIC_CHANNELS))),
       st.integers(0, 10_000), st.integers(0, 2))
def test_m_and_n_under_kraus_freedom_and_conjugation(index, seed, padding):
    # V'_i = sum_j u_ij V_j, padded with zero operators, is the same
    # channel; V'_k = U* V_k U is Phi'(A) = U* Phi(U A U*) U, whose M and
    # N are U* M U and U* N U
    c = _METAMORPHIC_CHANNELS[index]
    rng = np.random.default_rng(seed)
    K, D = len(c.kraus), c.dim
    u = random_unitary(K + padding, rng)
    padded = list(c.kraus) + [np.zeros((D, D))] * padding
    mixed = from_kraus([sum(u[i, j] * V for j, V in enumerate(padded))
                        for i in range(K + padding)])
    U = random_unitary(D, rng)
    conjugated = from_kraus([dagger(U) @ V @ U for V in c.kraus])
    M = multiplicative_domain(c)
    N = dfa(c, M=M)
    for a, b in ((M, multiplicative_domain(mixed)), (N, dfa(mixed))):
        assert subspace_distance(a, b) <= 1e-9, c.label
    moved = [dagger(U) @ M.basis @ U, dagger(U) @ N.basis @ U]
    for basis, alg in zip(moved, (multiplicative_domain(conjugated),
                                   dfa(conjugated))):
        assert subspace_distance(MatrixSubspace(D, basis),
                                 alg) <= 1e-9, c.label


@pytest.mark.parametrize("c", [
    pytest.param(build_corpus(27)[-1], id="corpus-block-sum"),
    pytest.param(to_channel(builder_pauli_walk(3, 0.5)), id="pauli-walk-3"),
])
def test_zero_kraus_padding_keeps_m_n_f_and_the_report(c):
    # two zero Kraus operators leave the channel as it is
    padded = from_kraus(list(c.kraus) + [np.zeros((c.dim, c.dim))] * 2)
    M, Mp = multiplicative_domain(c), multiplicative_domain(padded)
    N, Np = dfa(c, M=M), dfa(padded, M=Mp)
    F, Fp = (fixed_points(spectrum(x.transfer_blocks)).subspace
             for x in (c, padded))
    for a, b in ((M, Mp), (N, Np), (F, Fp)):
        assert a.dim == b.dim
        assert subspace_distance(a, b) <= 1e-10
    report, padded_report = (analyze(x, None, DEFAULT_TOL)
                             for x in (c, padded))
    assert report["components"]
    rows = list(compare_case(report, padded_report))
    assert rows
    assert [(field, difference) for field, difference, limit in rows
            if difference > limit] == []


def test_dfa_unitary_is_full():
    c = unitary_channel(np.diag([1.0, np.exp(0.3j)]))
    N = dfa(c)
    assert N.dim == 4


def test_dfa_pauli():
    # words in {X, Z} generate the full Pauli group; the commutants of the
    # word levels intersect down to span{I, XZ} after one step and then
    # to the span of I and XZ intersected with the commutant of I, XZ:
    # the algebra generated by XZ, which has dimension 2
    N = dfa(pauli_channel())
    assert N.dim == 2
    assert N.residual(X @ Z) < 1e-9


def test_dfa_depolarizing_is_trivial():
    # uniform Pauli mixture: strictly contractive off the identity
    kraus = [I2 / 2, X / 2, Y / 2, Z / 2]
    N = dfa(from_kraus(kraus))
    assert N.dim == 1


def test_peripheral_matches_dfa():
    # the peripheral span equals N for channels with faithful invariant state
    for seed in (0, 1):
        c = random_unital_channel(3, 2, seed=seed)
        spectral_stages(c)
        N = dfa(c)
        reversible = MatrixSubspace.from_span(peripheral_eigenpairs(c)[1])
        assert subspace_distance(reversible, N) < 1e-6


def test_peripheral_pauli():
    c = pauli_channel()
    s, inv, p, e_n = spectral_stages(c)
    # XZ is a rotation by pi/2 up to phase: eigenvalues of the transfer on
    # the peripheral part are {1, -1}; span is {I, XZ}
    assert sorted(np.round(np.real(p.eigenvalues)).tolist()) == [-1, 1]
    assert MatrixSubspace.from_span(peripheral_eigenpairs(c)[1]).dim == 2
    # E_N is idempotent and commutes with the transfer
    E = dense(e_n)
    assert spectral_norm(E @ E - E) < 1e-8
    T = kron_transfer(c)
    assert spectral_norm(E @ T - T @ E) < 1e-8


def test_peripheral_eigen_relations():
    # the pipeline's peripheral eigenvalues, those of Phi on N, against
    # the dense Schur route's, whose eigenmatrices are checked
    c = random_unital_channel(4, 3, seed=13)
    s, inv, p, e_n = spectral_stages(c)
    eigenvalues, eigenmatrices = peripheral_eigenpairs(c)
    assert len(eigenvalues) == len(p.eigenvalues)
    for lam in eigenvalues:
        assert np.abs(np.array(p.eigenvalues) - lam).min() < 1e-10
    assert p.eigenpair_residual < 1e-6
    for lam, Xm in zip(eigenvalues, eigenmatrices, strict=True):
        assert abs(abs(lam) - 1) < 1e-7
        assert hs_norm(c.apply(Xm) - lam * Xm) < 1e-6 * hs_norm(Xm)


def test_stable_subspace_decay():
    c = pauli_channel()
    s, inv, p, e_n = spectral_stages(c)
    assert len(p.eigenvalues) + dense_spectrum(kron_transfer(c))[2] == 4
    # the stable part, the range of I - E_N, decays under iteration
    T50 = np.linalg.matrix_power(kron_transfer(c), 50)
    assert spectral_norm(T50 @ (np.eye(4) - dense(e_n))) < 1e-8


def test_expectation_onto_dfa_properties():
    c = random_unital_channel(3, 2, seed=2)
    E = expectation_onto_dfa(c)
    assert spectral_norm(E.transfer @ E.transfer - E.transfer) < 1e-7
    assert np.allclose(E.apply(np.eye(3)), np.eye(3), atol=1e-8)
    # commutes with the channel
    T = kron_transfer(c)
    assert spectral_norm(E.transfer @ T - T @ E.transfer) < 1e-7


def apply_transfer(T, X):
    return unvec(T @ vec(X), X.shape[0])


def test_cesaro_expectation_identity_channel():
    c = unitary_channel(np.eye(2))
    E_F = dense(spectrum(c.transfer_blocks).e_f_factors)
    disc = spectral_norm(cesaro_expectation(kron_transfer(c), min_n=64) - E_F)
    assert disc < 1e-10
    assert np.allclose(E_F, np.eye(4), atol=1e-9)


def test_cesaro_expectation_random():
    c = random_unital_channel(3, 3, seed=17)
    s = spectrum(c.transfer_blocks)
    T = dense(s.e_f_factors)
    disc = spectral_norm(cesaro_expectation(kron_transfer(c)) - T)
    assert disc < 1e-6
    # E is idempotent onto F and trace-preserving at the invariant state
    assert spectral_norm(T @ T - T) < 1e-7
    fp = fixed_points(s)
    for b in fp.subspace.basis:
        assert hs_norm(apply_transfer(T, b) - b) < 1e-7
    # ranges agree
    A = np.arange(9, dtype=complex).reshape(3, 3)
    assert fp.subspace.residual(apply_transfer(T, A)) < 1e-7


def test_cesaro_expectation_pauli():
    # peripheral eigenvalue -1 present: root-of-unity-friendly averaging
    # lengths keep the Cesaro route convergent
    c = pauli_channel()
    E_F = dense(spectrum(c.transfer_blocks).e_f_factors)
    disc = spectral_norm(cesaro_expectation(kron_transfer(c)) - E_F)
    assert disc < 1e-6
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(apply_transfer(E_F, A), np.trace(A) / 2 * I2,
                       atol=1e-7)


def test_cesaro_expectation_slowly_mixing():
    # channels 12 and 50 of the corpus drawn with seed 1 mix slowly (second
    # |lambda| = 0.99910 and 0.99992): 10 000 steps leave the Cesaro average
    # 5.5e-3 and 0.54 from E_F; a horizon set by that modulus converges
    corpus = build_corpus(1)
    for i, label in ((12, "mixture-5-2"), (50, "blocksum-4+4")):
        c = corpus[i]
        assert c.label == label
        s = spectrum(c.transfer_blocks)
        assert np.sort(np.abs(s.eigenvalues))[-2] > 0.999
        E_F = dense(s.e_f_factors)
        short = cesaro_expectation(kron_transfer(c), max_n=10_000)
        assert spectral_norm(short - E_F) > 1e-3
        assert spectral_norm(cesaro_expectation(kron_transfer(c)) - E_F) < 1e-6


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_expectation_compatibility(seed, dim):
    # E_F = E_F o E_N: the fixed points sit inside N
    c = random_unital_channel(dim, 3, seed=seed)
    s, inv, p, e_n = spectral_stages(c)
    E_F, E_N = dense(s.e_f_factors), dense(e_n)
    assert spectral_norm(cesaro_expectation(kron_transfer(c), min_n=4096) -
                         E_F) < 1e-6
    assert spectral_norm(E_F @ E_N - E_F) < 1e-6


def test_l2_structure_basic():
    rho = np.diag([0.7, 0.3])
    l2 = L2Structure.from_state(rho)
    assert l2.norm(I2) == pytest.approx(1.0)
    assert l2_inner(l2, X, X) == pytest.approx(1.0)
    # weighted map norm of the identity map is 1
    assert l2.map_norm(l2.weighted_transfer(I2[None])) == pytest.approx(1.0)


def test_map_norm_merges_the_split_along_rho():
    # oracle: the 2-norm of the dense G T G^-1, G = (rho^1/2)^T (x) I; a
    # state that mixes the first two levels joins some of the blocks of a
    # block sum's weighted Kraus pair, a diagonal one joins none
    rng = np.random.default_rng(0)
    for c in build_corpus(20240817)[40:]:
        D = c.dim
        for mix in (np.eye(2), random_unitary(2, rng)):
            U = np.eye(D, dtype=complex)
            U[:2, :2] = mix
            w = rng.random(D) + 0.5
            l2 = L2Structure.from_state(U @ np.diag(w / w.sum()) @ dagger(U))
            assert l2.map_norm(l2.weighted_transfer(c.kraus)) == pytest.approx(
                dense_map_norm(l2.rho, kron_transfer(c)), rel=1e-13), c.label


def test_map_norm_of_the_stable_part_matches_the_dense_oracle():
    # the gap's norm of Phi (I - E_N), with E_N's factors weighted by G and
    # G^-1 and subtracted block by block, against the dense
    # ||G T (I - E_N) G^-1||; the states of the test above, on the block
    # sums and two walks
    rng = np.random.default_rng(0)
    lm = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    lp = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    walks = [to_channel(builder_nn_cycle(4, lp, lm)),
             to_channel(builder_pauli_walk(3, 0.5))]
    for c in build_corpus(20240817)[40:] + walks:
        D, e_n, T = c.dim, analysis(c).e_n, kron_transfer(c)
        stable = T - T @ dense(e_n)
        for mix in (np.eye(2), random_unitary(2, rng)):
            U = np.eye(D, dtype=complex)
            U[:2, :2] = mix
            w = rng.random(D) + 0.5
            l2 = L2Structure.from_state(U @ np.diag(w / w.sum()) @ dagger(U))
            assert l2.map_norm(l2.weighted_transfer(c.kraus),
                               e_n) == pytest.approx(
                dense_map_norm(l2.rho, stable), rel=1e-13), c.label


def test_l2_structure_needs_faithful():
    with pytest.raises(NoFaithfulInvariantState):
        L2Structure.from_state(np.diag([1.0, 0.0]))


def test_l2_schwarz_contraction():
    # unital channels contract the rho-weighted L2 norm when rho is invariant
    c = random_unital_channel(3, 3, seed=23)
    inv = invariant_states(c, spectrum(c.transfer_blocks))
    l2 = L2Structure.from_state(inv.rho_max)
    assert l2.map_norm(l2.weighted_transfer(c.kraus)) < 1 + 1e-9


def test_decoherence_gap_pauli():
    c = pauli_channel()
    s, inv, p, e_n = spectral_stages(c)
    l2 = L2Structure.from_state(inv.rho_max)
    # XZ mixture sends the off-peripheral span {X, Z} to 0 in one step:
    # the stable part dies immediately, so both rates are infinite
    rep = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
    assert rep.finite_horizon == np.inf
    assert rep.uniform_bound


def test_decoherence_gap_random():
    c = random_unital_channel(3, 3, seed=31)
    s, inv, p, e_n = spectral_stages(c)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
    assert rep.finite_horizon > 0
    assert rep.asymptotic > 0
    # the finite-horizon rate never exceeds the asymptotic one by much;
    # asymptotically the decay rate approaches the eigenvalue bound
    assert rep.finite_horizon <= rep.asymptotic + 1e-9
    # consistency: norms actually decay at the reported rate
    Q = np.eye(9) - dense(e_n)
    n = 20
    nrm = dense_map_norm(
        l2.rho, np.linalg.matrix_power(kron_transfer(c), n) @ Q)
    assert nrm <= np.exp(-rep.finite_horizon * n) + 1e-12


def _finite_horizon_by_powers(c, e_n, l2, max_n):
    """The finite-horizon rate from a fresh power, projection and weighting
    at every step, without the rounding rule at norm 1."""
    D = c.dim
    Q = np.eye(D * D) - dense(e_n)
    power, T = np.eye(D * D, dtype=complex), kron_transfer(c)
    rates = []
    for n in range(1, max_n + 1):
        power = T @ power
        nrm = dense_map_norm(l2.rho, power @ Q)
        if nrm <= 1e-9:
            rates.append(np.inf)
            break
        rates.append(-np.log(nrm) / n)
    return min(rates)


@pytest.mark.parametrize("name", ["nn-cycle-4", "random-4", "pauli-walk-3",
                                  "cyclic-shift-3", "blocksum-2+2"])
def test_decoherence_gap_matches_powers(name):
    if name == "nn-cycle-4":
        L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
        L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
        c = to_channel(builder_nn_cycle(4, L_plus, L_minus))
    elif name == "random-4":
        c = random_unital_channel(4, 3, seed=5)
    elif name == "pauli-walk-3":
        c = to_channel(builder_pauli_walk(3, 0.5))
    else:
        # corpus 31: period 3, stable part gone in one step (rate inf);
        # corpus 40: two components, one-step norm 1 (rate 0)
        c = build_corpus(20240817)[31 if name == "cyclic-shift-3" else 40]
        assert c.label.startswith(name)
    s, inv, p, e_n = spectral_stages(c)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
    ref = _finite_horizon_by_powers(c, e_n, l2, rep.horizon)
    assert rep.finite_horizon == pytest.approx(ref, rel=0, abs=1e-10)
    if name == "pauli-walk-3":
        assert rep.uniform_bound


def test_gap_two_unitary_mixtures_have_no_uniform_bound():
    # Phi = p U*.U + (1-p) V*.V keeps the weighted norm of every X that
    # commutes with U V*, and such X reach off N: the one-step norm is 1,
    # so the rate is 0 whichever side of 1 rounding puts the norm
    mixtures = [c for c in build_corpus(20240817)
                if c.label.startswith("mixture") and c.label.endswith("-2")]
    assert len(mixtures) == 14
    for c in mixtures:
        s, inv, _, e_n = spectral_stages(c)
        l2 = L2Structure.from_state(inv.rho_max)
        rep = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
        assert rep.finite_horizon == 0, c.label
        assert not rep.uniform_bound, c.label


def test_gap_infinite_for_automorphism():
    c = unitary_channel(np.diag([1.0, np.exp(1j)]))
    s, inv, p, e_n = spectral_stages(c)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
    assert rep.finite_horizon == np.inf
    assert rep.asymptotic == np.inf
