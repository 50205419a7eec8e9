from dataclasses import replace

import numpy as np
import pytest

from chanstruct.algebra import (
    AlgebraStructure,
    atomic_structure,
    extract_block_states,
)
from chanstruct.channel import from_kraus, matrix_from_json
from chanstruct.cli import Analysis, analyze
from chanstruct.cycles import (
    CenterMismatch,
    fixed_multiblock,
    mfnc_decompose,
    structured_kraus,
)
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    dagger,
    hs_norm,
    random_unitary,
    range_isometry,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.oqrw import builder_nn_cycle, builder_pauli_walk, to_channel
from chanstruct.structure import (
    dfa,
    fixed_points,
    invariant_states,
    peripheral_subalgebra,
    spectrum,
)
from tests.conftest import (
    X,
    Z,
    NotRootsOfUnity,
    NotSimple,
    cycle_composition,
    fixed_block_oracles,
    full_algebra,
    invariant_state,
    kron_transfer,
    period_irreducible,
    probe_shift_unitaries,
    restricted_power_transfer,
    transfer_of_units,
    verify_power_fixed_points,
    xi_transfer,
)
from tests.test_acceptance import build_corpus


def classical_cycle(d):
    """Kraus |i+1><i|: shifts populations around Z_d, kills coherences."""
    kraus = []
    for i in range(d):
        V = np.zeros((d, d), dtype=complex)
        V[(i + 1) % d, i] = 1
        kraus.append(V)
    return from_kraus(kraus, label=f"cycle-{d}")


def shift_walk(unitaries):
    """Kraus U_i (x) |i><i-1| on h (x) C^d."""
    d = len(unitaries)
    h = unitaries[0].shape[0]
    kraus = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, (i - 1) % d] = 1
        kraus.append(np.kron(unitaries[i], E))
    return from_kraus(kraus, label=f"shift-{d}")


def pauli_channel():
    return from_kraus([X / np.sqrt(2), Z / np.sqrt(2)])


def peripheral_of(c):
    s = spectrum(c.transfer_blocks)
    inv = invariant_states(c, s)
    assert inv.faithful
    return s, peripheral_subalgebra(c, inv, s)


def test_period_classical_cycle():
    c = classical_cycle(4)
    s, _ = peripheral_of(c)
    rep = period_irreducible(c, s)
    assert rep.period == 4
    Qs = rep.projections
    assert np.allclose(sum(Qs), np.eye(4), atol=1e-8)
    # projections are the standard basis projections, cyclically numbered
    for Q in Qs:
        assert np.allclose(Q, np.diag(np.round(np.diag(Q).real)), atol=1e-8)
    for j in range(4):
        assert spectral_norm(c.apply(Qs[j]) - Qs[(j - 1) % 4]) < 1e-8
    U = rep.unitary
    assert np.allclose(np.linalg.matrix_power(U, 4), np.eye(4), atol=1e-8)
    assert np.allclose(U, sum(np.exp(2j * np.pi * j / 4) * Qs[j]
                              for j in range(4)), atol=1e-8)


def test_period_pauli_channel():
    c = pauli_channel()
    s, _ = peripheral_of(c)
    rep = period_irreducible(c, s)
    assert rep.period == 2
    Q0, Q1 = rep.projections
    assert np.linalg.matrix_rank(Q0) == 1
    assert spectral_norm(c.apply(Q0) - Q1) < 1e-8
    assert spectral_norm(c.apply(Q1) - Q0) < 1e-8


def test_period_one_aperiodic():
    rng = np.random.default_rng(7)
    kraus = [random_unitary(3, rng) / np.sqrt(2) for _ in range(2)]
    c = from_kraus(kraus)
    s, p = peripheral_of(c)
    if len(p.eigenvalues) == 1:  # aperiodic for this seed
        rep = period_irreducible(c, s)
        assert rep.period == 1
        assert np.allclose(rep.projections[0], np.eye(3))


def test_period_rejects_reducible():
    # unitary conjugation: eigenvalue 1 appears with multiplicity >= 2
    c = from_kraus([np.diag([1.0, np.exp(0.7j)])])
    s, _ = peripheral_of(c)
    with pytest.raises((NotSimple, NotRootsOfUnity)):
        period_irreducible(c, s)


def test_cycle_seed_independence():
    c = classical_cycle(3)
    s, _ = peripheral_of(c)
    rep1 = period_irreducible(c, s)
    # recompute peripheral data (fresh eigendecomposition) and compare sets
    rep2 = period_irreducible(c, peripheral_of(c)[0])
    for Q in rep1.projections:
        assert min(spectral_norm(Q - R) for R in rep2.projections) < 1e-8


def two_cycles():
    """Block sum of two classical 3-cycles."""
    kraus = []
    for V in classical_cycle(3).kraus:
        W = np.zeros((6, 6), dtype=complex)
        W[:3, :3] = V
        kraus.append(W)
    for V in classical_cycle(3).kraus:
        W = np.zeros((6, 6), dtype=complex)
        W[3:, 3:] = V
        kraus.append(W)
    return from_kraus(kraus)


def test_mfnc_two_components():
    c = two_cycles()
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    assert F.dim == 2
    assert N.dim == 6
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    assert len(comps) == 2
    assert np.allclose(sum(comp.projection for comp in comps), np.eye(6),
                       atol=1e-8)
    for comp in comps:
        assert comp.period == 3
        assert comp.channel.dim == 3


@pytest.mark.parametrize("name", ["two-cycles", "corpus-blocksum"])
def test_mfnc_components_match_their_own_analysis(name):
    # reference route: F and E_N of each restricted channel, recomputed
    c = two_cycles() if name == "two-cycles" else build_corpus(20240817)[40]
    comps = mfnc_decompose(
        c, fixed_points(spectrum(c.transfer_blocks)).as_algebra(),
        atomic_structure(dfa(c)), peripheral_of(c)[0])
    assert len(comps) == 2
    for comp in comps:
        ref = fixed_points(spectrum(comp.channel.transfer_blocks))
        assert subspace_distance(comp.fixed_points, ref.subspace) < 1e-10
        blocks = AlgebraStructure(
            ambient_dim=comp.channel.dim,
            central_projections=comp.cyclic_projections,
            block_unitaries=comp.isometries,
            left_dims=(comp.left_dim,) * comp.period,
            right_dims=comp.right_dims)
        states = extract_block_states(
            peripheral_of(comp.channel)[0].apply_expectation, blocks)
        for rho, ref in zip(comp.block_states, states, strict=True):
            assert hs_norm(rho - ref) < 1e-10


def test_mfnc_identity_channel():
    c = from_kraus([np.eye(2)])
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    assert len(comps) == 1
    assert comps[0].period == 1


def test_mfnc_shift_walk_single_component():
    rng = np.random.default_rng(42)
    c = shift_walk([random_unitary(2, rng) for _ in range(3)])
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    assert F.dim == 2          # commutant of a generic 2x2 unitary
    assert N.dim == 3 * 4      # block diagonals
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    assert len(comps) == 1
    assert comps[0].period == 3


def test_component_decompose_classical_cycle():
    c = classical_cycle(3)
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    comp = comps[0]
    assert comp.left_dim == 1
    assert comp.right_dims == (1, 1, 1)
    for rho in comp.block_states:
        assert np.allclose(rho, np.eye(1))
    rebuilt, _ = structured_kraus(comp)
    assert spectral_norm(kron_transfer(rebuilt) - kron_transfer(c)) < 1e-8


def test_component_decompose_shift_walk():
    rng = np.random.default_rng(5)
    Us = [random_unitary(2, rng) for _ in range(3)]
    c = shift_walk(Us)
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    comp = comps[0]
    assert comp.left_dim == 2
    assert comp.right_dims == (1, 1, 1)
    for T in comp.shift_unitaries:
        assert np.allclose(T @ dagger(T), np.eye(2), atol=1e-8)
    # each reduced map is the trivial scalar channel
    for m in range(3):
        assert np.allclose(xi_transfer(comp, m), np.eye(1), atol=1e-8)
    rebuilt, _ = structured_kraus(comp)
    assert spectral_norm(kron_transfer(rebuilt) - kron_transfer(c)) < 1e-8


def test_component_decompose_pauli():
    c = pauli_channel()
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    comp = comps[0]
    assert comp.period == 2
    assert comp.left_dim == 1
    assert comp.right_dims == (1, 1)
    # round-trip composition has a unique peripheral eigenvalue 1
    M = cycle_composition(comp, 0)
    lam = np.linalg.eigvals(M)
    assert np.sum(np.abs(lam) > 1 - 1e-7) == 1
    rebuilt, _ = structured_kraus(comp)
    assert spectral_norm(kron_transfer(rebuilt) - kron_transfer(c)) < 1e-8


def test_fixed_multiblock_shift_walk():
    rng = np.random.default_rng(11)
    Us = [random_unitary(2, rng) for _ in range(3)]
    c = shift_walk(Us)
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    comp = comps[0]
    fb = fixed_multiblock(comp)
    oracles = fixed_block_oracles(comp, fb)
    assert fb.n_blocks == 2                   # generic monodromy: 2 eigenlines
    assert np.allclose(sum(fb.central_projections), np.eye(6), atol=1e-8)
    # each is the monodromy's spectral projection carried around the cycle
    for P, R in zip(fb.central_projections, oracles.r_projections,
                    strict=True):
        carried = sum(dagger(S) @ np.kron(Tm @ R @ dagger(Tm), np.eye(nR)) @ S
                      for S, Tm, nR in zip(comp.isometries, oracles.t_products,
                                           comp.right_dims))
        assert spectral_norm(P - carried) < 1e-10
    # monodromy spectrum matches the loop unitary up to a global phase
    loop = Us[0]
    for m in range(2, 0, -1):
        loop = loop @ Us[m]
    lam_loop = np.sort(np.angle(np.linalg.eigvals(loop)))
    lam_mono = np.linalg.eigvals(oracles.t_products[0])
    ratio_loop = np.exp(1j * (lam_loop[1] - lam_loop[0]))
    ratio_mono = lam_mono[1] / lam_mono[0]
    assert min(abs(ratio_mono - np.conj(ratio_loop)),
               abs(ratio_mono - ratio_loop)) < 1e-7
    # sampled invariant states really are invariant
    sigma_tr = np.trace(fb.sigma)
    assert sigma_tr == pytest.approx(1.0)
    for w in ([1.0, 0.0], [0.3, 0.7]):
        xi = invariant_state(comp, fb, w, [np.eye(1), np.eye(1)])
        assert np.trace(xi).real == pytest.approx(sum(w))
        assert hs_norm(c.preadjoint_apply(xi) - xi) < 1e-8
    # each induced right-factor channel fixes sigma uniquely
    for Tpsi in oracles.psi_transfers:
        pre = dagger(Tpsi)
        v = vec(fb.sigma)
        assert np.linalg.norm(pre @ v - v) < 1e-8
        lam = np.linalg.eigvals(pre)
        assert np.sum(np.abs(lam - 1) < 1e-7) == 1


def test_fixed_block_eigenvalues_are_fixed_up_to_one_phase():
    # cyclic-shift-4 of the seed-27 corpus: the frame of the input turns
    # both fixed-block eigenvalues by one common phase; their count and the
    # ratios lam_i conj(lam_j) do not move
    c = build_corpus(27)[35]
    rng = np.random.default_rng(3)
    U = random_unitary(c.dim, rng)
    u = random_unitary(len(c.kraus), rng)
    variants = [c, from_kraus(U @ c.kraus @ dagger(U)),
                from_kraus(np.tensordot(u, c.kraus, 1))]
    ratios = []
    for channel in variants:
        [component] = analyze(channel, None, DEFAULT_TOL, None)["components"]
        blocks = component["fixed_blocks"]
        lam = np.array([complex(*v) for v in blocks["eigenvalues"]])
        assert blocks["count"] == len(lam) == 2
        ratios.append(np.outer(lam, lam.conj()).ravel())
    for r in ratios[1:]:
        assert max(np.abs(r - x).min() for x in ratios[0]) < 1e-8
        assert max(np.abs(ratios[0] - x).min() for x in r) < 1e-8


def test_fixed_block_order_is_free_of_the_phase_gauge():
    # Kraus mixings turn the monodromy eigenvalues by one common phase;
    # listed by arg relative to the first block by block_order, the fixed
    # blocks keep their order
    c = build_corpus(27)[35]
    rng = np.random.default_rng(0)
    orders = []
    for _ in range(10):
        u = random_unitary(len(c.kraus), rng)
        [component] = analyze(from_kraus(np.tensordot(u, c.kraus, 1)), None,
                              DEFAULT_TOL, None)["components"]
        orders.append([matrix_from_json(P) for P in
                       component["fixed_blocks"]["central_projections"]])
    for order in orders[1:]:
        assert len(order) == len(orders[0])
        for P, Q in zip(order, orders[0]):
            assert spectral_norm(P - Q) < 1e-8


def test_fixed_multiblock_pauli():
    c = pauli_channel()
    F = fixed_points(spectrum(c.transfer_blocks)).as_algebra()
    N = dfa(c)
    comps = mfnc_decompose(c, F, atomic_structure(N), peripheral_of(c)[0])
    comp = comps[0]
    fb = fixed_multiblock(comp)
    assert fb.n_blocks == 1
    assert np.allclose(fb.central_projections[0], np.eye(2), atol=1e-10)
    assert np.allclose(fb.sigma, np.eye(2) / 2, atol=1e-8)
    Tpsi = fixed_block_oracles(comp, fb).psi_transfers[0]
    pre = dagger(Tpsi)
    v = vec(fb.sigma)
    assert np.linalg.norm(pre @ v - v) < 1e-8


def pipeline_components(c, tol=DEFAULT_TOL):
    """The components that ``analyze`` factors: mfnc_decompose on the
    analysis' F, atomic structure of N and spectrum."""
    a = Analysis(c, None, tol, None)
    return mfnc_decompose(c, a.F.as_algebra(), a.N_structure, a.spectrum,
                          tol=tol)


def shift_probe_channels(name):
    if name == "nn-cycle-8":
        L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
        L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
        return [to_channel(builder_nn_cycle(8, L_plus, L_minus))]
    if name == "pauli-walk-8":
        return [to_channel(builder_pauli_walk(8, 0.5))]
    return build_corpus(int(name.removeprefix("corpus-")))


@pytest.mark.parametrize("name", ["corpus-20240817", "corpus-27", "corpus-1",
                                  "nn-cycle-8", "pauli-walk-8"])
def test_shift_unitaries_match_the_left_action_probe(name):
    # T_m read off the Kraus blocks against T_m solved from the left action
    # of the channel on the units S_m* (E_ab (x) I) S_m
    left_dims = []
    for i, c in enumerate(shift_probe_channels(name)):
        for comp in pipeline_components(c):
            left_dims.append(comp.left_dim)
            for m, (T, ref) in enumerate(zip(
                    comp.shift_unitaries, probe_shift_unitaries(comp),
                    strict=True)):
                assert spectral_norm(T - ref) <= 1e-12, (i, m)
    if name.startswith("corpus"):
        assert max(left_dims) > 1        # the shift walks have nL = h


def test_fixed_multiblock_rejects_a_wrong_fixed_point_algebra():
    # the loop unitary has the eigenvalue 1 twice: fixed blocks of left
    # dimensions 2 and 1, F of dimension 4 + 1
    rng = np.random.default_rng(8)
    W = random_unitary(3, rng)
    c = shift_walk([np.eye(3), np.eye(3),
                    W @ np.diag([1.0, 1.0, -1.0]) @ dagger(W)])
    [comp] = pipeline_components(c)
    F, r = comp.fixed_points, comp.channel.dim
    fb = fixed_multiblock(comp)
    assert sorted(B.shape[1] for B in fb.left_bases) == [1, 2]
    j = [B.shape[1] for B in fb.left_bases].index(2)
    P = fb.central_projections[j]
    without_block = F.restrict([lambda B: P @ B])
    assert (F.dim, without_block.dim) == (5, 1)
    U = random_unitary(r, rng)
    turned = MatrixSubspace(r, U @ F.basis @ dagger(U))
    for wrong in (without_block, full_algebra(r), turned):
        with pytest.raises(CenterMismatch):
            fixed_multiblock(replace(comp, fixed_points=wrong))


def test_verify_power_fixed_points_cycle4():
    c = classical_cycle(4)
    s, _ = peripheral_of(c)
    rep = period_irreducible(c, s)
    table = verify_power_fixed_points(c, rep, m_max=8)
    assert table.all_pass
    dims = {row.power: row.fixed_dim for row in table.rows}
    # dim F(Phi^m) = gcd(m, 4) for the classical cycle
    for m in range(1, 9):
        assert dims[m] == np.gcd(m, 4)


def test_verify_power_fixed_points_period1():
    rng = np.random.default_rng(7)
    kraus = [random_unitary(3, rng) / np.sqrt(2) for _ in range(2)]
    c = from_kraus(kraus)
    s, p = peripheral_of(c)
    if len(p.eigenvalues) == 1:
        rep = period_irreducible(c, s)
        table = verify_power_fixed_points(c, rep, m_max=4)
        assert table.all_pass
        assert all(row.fixed_dim == 1 for row in table.rows)


def test_restricted_power_transfer_is_the_compressed_power():
    # kron(R^T, R*) T^d kron(conj(R), R) against E -> R* Phi^d(R E R*) R
    # taken unit by unit
    rng = np.random.default_rng(11)
    c = from_kraus([np.sqrt(p) * random_unitary(4, rng) for p in (0.2, 0.8)])
    U = random_unitary(4, rng)
    Q = U[:, :2] @ dagger(U[:, :2])
    R, Td = range_isometry(Q), np.linalg.matrix_power(kron_transfer(c), 3)
    oracle = transfer_of_units(
        lambda E: dagger(R) @ unvec(Td @ vec(R @ E @ dagger(R)), 4) @ R, 2)
    assert np.allclose(restricted_power_transfer(c, Q, 3, DEFAULT_TOL),
                       oracle, atol=1e-14)
