import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanstruct.channel import from_kraus
from chanstruct.numerics import (
    dagger,
    hs_norm,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.structure import (
    L2Structure,
    NoFaithfulInvariantState,
    cesaro_expectation,
    decoherence_gap,
    dfa,
    expectation_onto_dfa,
    fixed_points,
    fixed_points_commutant,
    invariant_states,
    is_irreducible,
    kraus_word_basis,
    multiplicative_domain,
    peripheral_subalgebra,
    stable_subspace,
)
from chanstruct.oqrw import builder_nn_cycle, builder_pauli_walk, to_channel
from tests.conftest import I2, X, Y, Z
from tests.test_acceptance import build_corpus


def pauli_channel():
    return from_kraus([X / np.sqrt(2), Z / np.sqrt(2)], label="pauli-XZ")


def random_unital_channel(dim, n_unitaries, seed):
    from chanstruct.numerics import random_unitary
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_unitaries))
    return from_kraus([np.sqrt(pi) * random_unitary(dim, rng) for pi in p])


def unitary_channel(U):
    return from_kraus([U])


def test_fixed_points_identity_channel():
    c = unitary_channel(I2)
    fp = fixed_points(c)
    assert fp.dim == 4
    assert fp.is_algebra


def test_fixed_points_pauli():
    # F of the XZ mixture is the commutant of {X, Z}: scalars only
    fp = fixed_points(pauli_channel())
    assert fp.dim == 1
    assert fp.is_algebra
    assert fp.subspace.residual(I2) < 1e-10


def test_fixed_points_unitary_rotation():
    # conjugation by diag(1, i): fixed points are the diagonal algebra
    c = unitary_channel(np.diag([1.0, 1j]))
    fp = fixed_points(c)
    assert fp.dim == 2
    assert fp.subspace.residual(Z) < 1e-9


def test_invariant_states_unitary_mixture():
    c = random_unital_channel(3, 3, seed=5)
    inv = invariant_states(c)
    assert inv.faithful
    assert np.allclose(inv.rho_max, np.eye(3) / 3, atol=1e-8)
    assert inv.basis.dim == fixed_points(c).dim


def test_invariant_states_block_channel():
    # direct sum of two unitary conjugations: I/D invariant, F 2-dimensional
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = X
    U[2:, 2:] = np.diag([1.0, -1j])
    c = unitary_channel(U)
    inv = invariant_states(c)
    assert inv.faithful
    fp = fixed_points(c)
    assert fp.dim >= 2


def test_fixed_points_commutant_matches_kernel():
    c = random_unital_channel(4, 3, seed=9)
    inv = invariant_states(c)
    F_comm = fixed_points_commutant(c, inv)
    F_kernel = fixed_points(c)
    assert subspace_distance(F_comm.subspace, F_kernel.subspace) < 1e-7


def test_is_irreducible():
    c = pauli_channel()
    inv = invariant_states(c)
    assert is_irreducible(c, inv)
    ident = unitary_channel(np.eye(2))
    assert not is_irreducible(ident, invariant_states(ident))


def test_multiplicative_domain_pauli():
    # M of the XZ mixture: commutant of {I, XZ, ZX} = commutant of XZ,
    # whose square is -I, so M = span{I, XZ} (dimension 2)
    M = multiplicative_domain(pauli_channel())
    assert M.dim == 2
    assert M.subspace.residual(X @ Z) < 1e-9


def test_multiplicative_domain_unitary():
    c = unitary_channel(np.diag([1.0, 1j]))
    M = multiplicative_domain(c)
    assert M.dim == 4  # automorphisms have full multiplicative domain


def test_kraus_word_basis_growth():
    c = pauli_channel()
    assert len(kraus_word_basis(c, 1)) == 2        # X, Z
    assert len(kraus_word_basis(c, 2)) == 2        # I, XZ (up to phase)


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
    assert N.subspace.residual(X @ Z) < 1e-9


def test_dfa_depolarizing_is_trivial():
    # uniform Pauli mixture: strictly contractive off the identity
    kraus = [I2 / 2, X / 2, Y / 2, Z / 2]
    N = dfa(from_kraus(kraus))
    assert N.dim == 1


def test_peripheral_matches_dfa():
    # the peripheral span equals N for channels with faithful invariant state
    for seed in (0, 1):
        c = random_unital_channel(3, 2, seed=seed)
        inv = invariant_states(c)
        p = peripheral_subalgebra(c, inv)
        N = dfa(c)
        assert subspace_distance(p.reversible, N.subspace) < 1e-6


def test_peripheral_pauli():
    c = pauli_channel()
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    # XZ is a rotation by pi/2 up to phase: eigenvalues of the transfer on
    # the peripheral part are {1, -1}; span is {I, XZ}
    assert sorted(np.round(np.real(p.eigenvalues)).tolist()) == [-1, 1]
    assert p.reversible.dim == 2
    # E_N is idempotent and commutes with the transfer
    E = p.e_n_transfer
    assert spectral_norm(E @ E - E) < 1e-8
    assert spectral_norm(E @ c.transfer - c.transfer @ E) < 1e-8


def test_peripheral_eigen_relations():
    c = random_unital_channel(4, 3, seed=13)
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    for lam, Xm in zip(p.eigenvalues, p.eigenmatrices):
        assert abs(abs(lam) - 1) < 1e-7
        assert hs_norm(c.apply(Xm) - lam * Xm) < 1e-6 * hs_norm(Xm)


def test_stable_subspace_decay():
    c = pauli_channel()
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    Ms = stable_subspace(p)
    assert Ms.dim + p.reversible.dim == 4
    # elements of the stable part decay under iteration
    T50 = np.linalg.matrix_power(c.transfer, 50)
    for b in Ms.basis:
        assert hs_norm(unvec(T50 @ vec(b), 2)) < 1e-8


def test_expectation_onto_dfa_properties():
    c = random_unital_channel(3, 2, seed=2)
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    E = expectation_onto_dfa(c, p, seed=1)
    assert spectral_norm(E.transfer @ E.transfer - E.transfer) < 1e-7
    assert np.allclose(E.apply(np.eye(3)), np.eye(3), atol=1e-8)
    # commutes with the channel
    assert spectral_norm(E.transfer @ c.transfer -
                         c.transfer @ E.transfer) < 1e-7


def test_cesaro_expectation_identity_channel():
    c = unitary_channel(np.eye(2))
    E, disc = cesaro_expectation(c, fixed_points(c), max_n=64)
    assert disc < 1e-10
    assert np.allclose(E.transfer, np.eye(4), atol=1e-9)


def test_cesaro_expectation_random():
    c = random_unital_channel(3, 3, seed=17)
    E, disc = cesaro_expectation(c, fixed_points(c), max_n=10_000)
    assert disc < 1e-6
    # E is idempotent onto F and trace-preserving at the invariant state
    T = E.transfer
    assert spectral_norm(T @ T - T) < 1e-7
    fp = fixed_points(c)
    for b in fp.subspace.basis:
        assert hs_norm(E.apply(b) - b) < 1e-7
    # ranges agree
    A = np.arange(9, dtype=complex).reshape(3, 3)
    assert fp.subspace.residual(E.apply(A)) < 1e-7


def test_cesaro_expectation_pauli():
    # peripheral eigenvalue -1 present: root-of-unity-friendly averaging
    # lengths keep the Cesaro route convergent
    c = pauli_channel()
    E, disc = cesaro_expectation(c, fixed_points(c), max_n=10_000)
    assert disc < 1e-6
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(E.apply(A), np.trace(A) / 2 * I2, atol=1e-7)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_expectation_compatibility(seed, dim):
    # E_F = E_F o E_N: the fixed points sit inside N
    c = random_unital_channel(dim, 3, seed=seed)
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    E_F, _ = cesaro_expectation(c, fixed_points(c), max_n=4096)
    assert spectral_norm(E_F.transfer @ p.e_n_transfer - E_F.transfer) < 1e-6


def test_l2_structure_basic():
    rho = np.diag([0.7, 0.3])
    l2 = L2Structure.from_state(rho)
    assert l2.norm(I2) == pytest.approx(1.0)
    assert l2.inner(X, X) == pytest.approx(1.0)
    # weighted map norm of the identity map is 1
    assert l2.map_norm(np.eye(4)) == pytest.approx(1.0)


def test_l2_structure_needs_faithful():
    with pytest.raises(NoFaithfulInvariantState):
        L2Structure.from_state(np.diag([1.0, 0.0]))


def test_l2_schwarz_contraction():
    # unital channels contract the rho-weighted L2 norm when rho is invariant
    c = random_unital_channel(3, 3, seed=23)
    inv = invariant_states(c)
    l2 = L2Structure.from_state(inv.rho_max)
    assert l2.map_norm(c.transfer) < 1 + 1e-9


def test_decoherence_gap_pauli():
    c = pauli_channel()
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    l2 = L2Structure.from_state(inv.rho_max)
    # XZ mixture sends the off-peripheral span {X, Z} to 0 in one step:
    # the stable part dies immediately, so both rates are infinite
    rep = decoherence_gap(c, p, l2, max_n=10)
    assert rep.finite_horizon == np.inf
    assert rep.uniform_bound


def test_decoherence_gap_random():
    c = random_unital_channel(3, 3, seed=31)
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(c, p, l2, max_n=30)
    assert rep.finite_horizon > 0
    assert rep.asymptotic > 0
    # the finite-horizon rate never exceeds the asymptotic one by much;
    # asymptotically the decay rate approaches the eigenvalue bound
    assert rep.finite_horizon <= rep.asymptotic + 1e-9
    # consistency: norms actually decay at the reported rate
    Q = np.eye(9) - p.e_n_transfer
    n = 20
    nrm = l2.map_norm(np.linalg.matrix_power(c.transfer, n) @ Q)
    assert nrm <= np.exp(-rep.finite_horizon * n) + 1e-12


def _finite_horizon_by_powers(c, p, l2, max_n):
    """The finite-horizon rate from a fresh power, projection and weighting
    at every step, without the rounding rule at norm 1."""
    D = c.dim
    Q = np.eye(D * D) - p.e_n_transfer
    power = np.eye(D * D, dtype=complex)
    rates = []
    for n in range(1, max_n + 1):
        power = c.transfer @ power
        nrm = l2.map_norm(power @ Q)
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
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(c, p, l2)
    ref = _finite_horizon_by_powers(c, p, l2, rep.horizon)
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
        inv = invariant_states(c)
        p = peripheral_subalgebra(c, inv)
        rep = decoherence_gap(c, p, L2Structure.from_state(inv.rho_max))
        assert rep.finite_horizon == 0, c.label
        assert not rep.uniform_bound, c.label


def test_gap_infinite_for_automorphism():
    c = unitary_channel(np.diag([1.0, np.exp(1j)]))
    inv = invariant_states(c)
    p = peripheral_subalgebra(c, inv)
    l2 = L2Structure.from_state(inv.rho_max)
    rep = decoherence_gap(c, p, l2, max_n=5)
    assert rep.finite_horizon == np.inf
    assert rep.asymptotic == np.inf
