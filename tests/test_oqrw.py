import itertools

import numpy as np
import pytest

from chanstruct import oqrw
from chanstruct.channel import from_kraus
from chanstruct.numerics import (
    components,
    random_unitary,
    spectral_norm,
    subspace_distance,
)
from chanstruct.oqrw import (
    ColumnNotNormalized,
    NotUnitary,
    build,
    builder_cyclic_shift,
    builder_nn_cycle,
    builder_pauli_walk,
    oqrw_dfa,
    oqrw_from_json,
    oqrw_to_json,
    pauli_pair,
    to_channel,
)
from chanstruct.structure import dfa, multiplicative_domain
from tests.conftest import (
    NoStabilization,
    block_units,
    full_route_oqrw_dfa,
    full_route_oqrw_multiplicative_domain,
    kron_transfer,
    subspace_intersection,
)
from tools.report_set import dead_corners_walk


def random_walk(rng, n_vertices, dims, out_degree=2):
    """Random walk: per column, slices of a Haar isometry to a few targets."""
    transitions = {}
    for j in range(n_vertices):
        targets = rng.choice(n_vertices, size=min(out_degree, n_vertices),
                             replace=False)
        targets = sorted(set(int(t) for t in targets))
        tot = sum(dims[i] for i in targets)
        V = random_unitary(max(tot, dims[j]), rng)[:tot, :dims[j]]
        row = 0
        for i in targets:
            transitions[(i, j)] = V[row:row + dims[i], :]
            row += dims[i]
    return build(range(n_vertices), dims, transitions)


def local_channel(w):
    """The channel of the operators leaving vertex 0 of a homogeneous
    walk: the local map that every vertex applies."""
    return from_kraus([L for (i, j), L in sorted(w.transitions.items())
                       if j == 0])


def special_pair(c1=0.6, c2=0.8):
    """Steps of the special-basis regime: L_minus diagonal, L_plus
    off-diagonal."""
    s1 = np.sqrt(1 - c1 ** 2)
    s2 = np.sqrt(1 - c2 ** 2)
    Lm = np.diag([c1, c2])
    Lp = np.array([[0, s2], [s1, 0]])
    return Lp, Lm


# ---------------------------------------------------------------------------
# construction and flattening
# ---------------------------------------------------------------------------

def test_build_rejects_bad_column():
    L = np.array([[0.5, 0], [0, 0.5]])
    with pytest.raises(ColumnNotNormalized):
        build([0, 1], [2, 2], {(0, 1): L, (1, 0): np.eye(2)})


def test_build_rejects_bad_shape():
    with pytest.raises(Exception):
        build([0, 1], [2, 3], {(0, 1): np.eye(2), (1, 0): np.eye(2)})


def test_cyclic_shift_builder():
    rng = np.random.default_rng(42)
    Us = [random_unitary(2, rng) for _ in range(3)]
    w = builder_cyclic_shift(3, Us)
    assert w.total_dim == 6
    c = to_channel(w)
    assert c.dim == 6
    # the flat channel is the shift walk with Kraus U_i (x) |i><i-1|
    assert len(c.kraus) == 3


def test_cyclic_shift_rejects_nonunitary():
    with pytest.raises(NotUnitary):
        builder_cyclic_shift(2, [np.eye(2), np.diag([1.0, 0.5])])


def test_pauli_walk_builder():
    w = builder_pauli_walk(3, 0.4)
    assert w.local_dims == (3, 3)
    assert w.homogeneous
    c = to_channel(w)
    assert c.dim == 6
    lm = local_channel(w)
    Z, X = pauli_pair(3)
    expected = from_kraus([np.sqrt(0.4) * Z, np.sqrt(0.6) * X])
    assert spectral_norm(kron_transfer(lm) - kron_transfer(expected)) < 1e-10


def test_pauli_walk_validates_alpha():
    with pytest.raises(ValueError):
        builder_pauli_walk(3, 0.0)
    with pytest.raises(ValueError):
        builder_pauli_walk(3, 1.5)


def test_nn_cycle_builder_and_local_map():
    Lm = np.diag([0.6, 0.8])
    Lp = np.array([[0, 0.6], [0.8, 0]])
    w = builder_nn_cycle(4, Lp, Lm)
    assert w.homogeneous
    lm = local_channel(w)
    expected = from_kraus([Lm, Lp])
    assert spectral_norm(kron_transfer(lm) - kron_transfer(expected)) < 1e-10


def test_homogeneity_is_decided_within_eq_tol():
    # one down-step of the special-basis walk turned by a phase: its column
    # stays normalized; entries 2.5e-6 apart differ, 1e-10 apart are equal
    Lm = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    Lp = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    w = builder_nn_cycle(6, Lp, Lm)
    assert w.homogeneous
    for phase, homogeneous in ((3e-6, False), (1e-10, True)):
        transitions = dict(w.transitions)
        transitions[(2, 3)] = np.exp(1j * phase) * Lm
        assert build(w.vertices, w.local_dims,
                     transitions).homogeneous is homogeneous


# ---------------------------------------------------------------------------
# oracle agreement with the generic routes
# ---------------------------------------------------------------------------

def test_mult_domain_agrees_pauli_walk():
    for d, alpha in ((3, 0.5), (4, 0.3)):
        w = builder_pauli_walk(d, alpha)
        c = to_channel(w)
        m_block = oqrw_dfa(w).multiplicative_domain
        m_generic = multiplicative_domain(c)
        assert subspace_distance(m_block, m_generic) < 1e-7


def test_mult_domain_agrees_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = random_walk(rng, 3, [2, 2, 2])
        c = to_channel(w)
        m_block = oqrw_dfa(w).multiplicative_domain
        m_generic = multiplicative_domain(c)
        assert subspace_distance(m_block, m_generic) < 1e-7


def test_dfa_agrees_pauli_walk():
    for d in (2, 3):
        w = builder_pauli_walk(d, 0.5)
        c = to_channel(w)
        rep = oqrw_dfa(w)
        n_generic = dfa(c)
        assert subspace_distance(rep.algebra, n_generic) < 1e-7
        diagonal = subspace_intersection(rep.algebra,
                                         block_units(w)[0])
        assert diagonal.dim + rep.off_diagonal.dim == rep.algebra.dim


def test_dfa_agrees_cyclic_shift():
    rng = np.random.default_rng(42)
    d = 3
    w = builder_cyclic_shift(d, [random_unitary(2, rng) for _ in range(d)])
    c = to_channel(w)
    rep = oqrw_dfa(w)
    n_generic = dfa(c)
    assert subspace_distance(rep.algebra, n_generic) < 1e-7
    # the walk only moves along edges: the algebra is block diagonal
    assert rep.off_diagonal.dim == 0
    assert rep.algebra.dim == d * 4


def test_dfa_agrees_random():
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = random_walk(rng, 3, [2, 2, 2])
        c = to_channel(w)
        rep = oqrw_dfa(w)
        n_generic = dfa(c)
        assert subspace_distance(rep.algebra, n_generic) < 1e-7


def test_dead_corners():
    # vertex 1 scatters rank-one pieces to 0 and 2; both get dead corners
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 1] = 1
    rng = np.random.default_rng(1)
    transitions = {
        (0, 1): e0, (2, 1): e1,
        (1, 0): random_unitary(2, rng),
        (1, 2): random_unitary(2, rng),
    }
    w = build(range(3), [2, 2, 2], transitions)
    ref = full_route_oqrw_dfa(w)
    assert ref.dead_corners == (1, 0, 1)
    assert not ref.diagonal_forced
    # B(W_2, W_0) and B(W_0, W_2), one dimension each
    assert oqrw_dfa(w).off_diagonal.dim == 2

    w2 = builder_pauli_walk(2, 0.5)
    ref2 = full_route_oqrw_dfa(w2)
    assert ref2.dead_corners == (0, 0)
    assert ref2.diagonal_forced
    assert oqrw_dfa(w2).off_diagonal.dim == 0


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    rng = np.random.default_rng(6)
    w = random_walk(rng, 3, [2, 1, 3])
    data = oqrw_to_json(w)
    w2 = oqrw_from_json(data)
    assert w2.vertices == w.vertices
    assert w2.local_dims == w.local_dims
    assert set(w2.transitions) == set(w.transitions)
    for key, L in w.transitions.items():
        assert np.allclose(w2.transitions[key], L, atol=1e-12)
    assert spectral_norm(kron_transfer(to_channel(w2))
                         - kron_transfer(to_channel(w))) < 1e-10


# ---------------------------------------------------------------------------
# block split against the full-route oracle
# ---------------------------------------------------------------------------

def rank_one_scatter_walk(rng):
    """Like the walk of test_dead_corners with random data: vertex 1
    splits along a random basis into rank-one edges to 0 and 2, which
    return to 1 by random unitaries."""
    B = random_unitary(2, rng)
    transitions = {
        (0, 1): random_unitary(2, rng) @ np.outer(B[:, 0], B[:, 0].conj()),
        (2, 1): random_unitary(2, rng) @ np.outer(B[:, 1], B[:, 1].conj()),
        (1, 0): random_unitary(2, rng),
        (1, 2): random_unitary(2, rng),
    }
    return build(range(3), [2, 2, 2], transitions)


def least_stable_power(w):
    """Smallest cap at which the full-route oracle stops raising
    NoStabilization."""
    for n in range(1, w.total_dim ** 2 + 1):
        try:
            full_route_oqrw_dfa(w, n_max=n)
            return n
        except NoStabilization:
            pass
    raise AssertionError("no n_max up to D^2 stabilizes")


def path_chain_steps(w):
    """How many times ``oqrw_dfa`` advances its path spans by one step."""
    advance, steps = oqrw._advance_spans, []

    def counted(*args):
        steps.append(None)
        return advance(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oqrw, "_advance_spans", counted)
        oqrw_dfa(w)
    return len(steps)


def test_split_kernel_factors_each_class_over_its_own_rows(monkeypatch):
    # the first step's QRs run over each class's own rows, padded to at
    # least s rows, not over every row of the constraint
    qr, split, calls, heights = np.linalg.qr, oqrw.split_kernel, [], []

    def recorded_qr(A, *args, **kwargs):
        if calls and calls[-1] is not None:     # inside split_kernel
            heights.append(int(np.prod(A.shape[:-1])))
        return qr(A, *args, **kwargs)

    def recorded_split(*args):
        calls.append(args)
        try:
            return split(*args)
        finally:
            calls.append(None)

    monkeypatch.setattr(np.linalg, "qr", recorded_qr)
    monkeypatch.setattr(oqrw, "split_kernel", recorded_split)
    oqrw_dfa(builder_pauli_walk(8, 0.5))
    (rows, cols, vals, k, _), _ = calls
    C = np.zeros((rows.max() + 1, k), dtype=complex)
    np.add.at(C, (rows, cols), vals)
    r, c = np.nonzero(C)
    bound = sum(max(np.count_nonzero(C[:, cl].any(axis=1)), len(cl))
                for size in components(k, c, c[np.searchsorted(r, r)])
                for cl in size)
    assert heights and sum(heights) <= bound


def oracle_walks():
    rng = np.random.default_rng(17)
    yield "dead-corners-3", dead_corners_walk()
    yield "pauli-3", builder_pauli_walk(3, 0.5)
    yield "pauli-4", builder_pauli_walk(4, 0.3)
    yield "cyclic-shift-3", builder_cyclic_shift(
        3, [random_unitary(2, rng) for _ in range(3)])
    yield "nn-cycle-4", builder_nn_cycle(4, *special_pair())
    yield "nn-cycle-5", builder_nn_cycle(
        5, *(np.sqrt(p) * random_unitary(2, rng) for p in (0.4, 0.6)))
    for t, dims in enumerate(([2, 2, 2], [2, 1, 2], [1, 2, 2], [2, 2, 1])):
        yield f"random-{t}", random_walk(rng, 3, dims)
    for t in range(3):
        yield f"rank-one-scatter-{t}", rank_one_scatter_walk(rng)


@pytest.mark.parametrize("name,w", [pytest.param(name, w, id=name)
                                    for name, w in oracle_walks()])
def test_block_split_matches_full_route(name, w):
    rep, ref = oqrw_dfa(w), full_route_oqrw_dfa(w)
    assert subspace_distance(rep.algebra, ref.algebra) \
        <= 1e-10
    diagonal = subspace_intersection(rep.algebra, block_units(w)[0])
    assert subspace_distance(diagonal, ref.diagonal) <= 1e-10
    assert subspace_distance(rep.off_diagonal, ref.off_diagonal) <= 1e-10
    # the off-diagonal part is the sum of B(W_i, W_l) over l != i
    assert rep.off_diagonal.dim == sum(
        a * b for a, b in itertools.permutations(ref.dead_corners, 2))
    assert subspace_distance(rep.multiplicative_domain,
                             full_route_oqrw_multiplicative_domain(w)) \
        <= 1e-10
    # n-step conditions take n - 1 advances from the one-step spans
    assert path_chain_steps(w) + 1 == least_stable_power(w)
    if name == "dead-corners-3":
        assert rep.off_diagonal.dim == 2
