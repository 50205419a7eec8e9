"""End-to-end acceptance battery for the structure-theory pipeline.

Each test covers one numbered acceptance scenario and prints a single
PASS/FAIL line (visible without -s); the assertion message carries the
failing detail.  Scenarios with a shared random-channel corpus reuse a
module-scoped fixture so the expensive analysis runs once.
"""

import math
import time

import numpy as np
import pytest

from chanstruct.algebra import atomic_structure, center, commutant
from chanstruct.channel import from_kraus
from chanstruct.cycles import fixed_multiblock, mfnc_decompose
from chanstruct.numerics import (
    MatrixSubspace,
    dagger,
    hs_norm,
    random_unitary,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
    Tolerances,
)
from chanstruct.oqrw import (
    build,
    builder_cyclic_shift,
    builder_nn_cycle,
    builder_pauli_walk,
    oqrw_dfa,
    pauli_pair,
    to_channel,
)
from chanstruct.structure import (
    decoherence_gap,
    dfa,
    fixed_points,
    invariant_states,
    multiplicative_domain,
    spectrum,
    L2Structure,
)
from tests.conftest import (
    analysis,
    apply_expectation,
    cesaro_expectation,
    component_embedding,
    cycle_composition,
    dense,
    dense_map_norm,
    fixed_block_oracles,
    invariant_state,
    kron_transfer,
    l2_inner,
    period_irreducible,
    peripheral_eigenpairs,
    structured_kraus,
    verify_power_fixed_points,
)

TOL = Tolerances()


def _verdict(capsys, label, failures):
    ok = not failures
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"{label}: " + "; ".join(failures)


def _checker(failures):
    def check(cond, msg):
        if not cond:
            failures.append(msg)
    return check


def _choi_min_eig(transfer, dim):
    C = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[a, b] = 1
            C[a * dim:(a + 1) * dim, b * dim:(b + 1) * dim] = \
                unvec(transfer @ vec(E), dim)
    return float(np.linalg.eigvalsh((C + dagger(C)) / 2).min())


def _trace_distance(rho, sigma):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def _check_cycle_against_oracle(check, label, c, s, rep):
    """The pipeline's one component of an irreducible channel must carry
    the period and, embedded by W, the cyclic projections that the
    peripheral-eigenmatrix oracle ``rep`` (period_irreducible) gives."""
    comps = mfnc_decompose(c, fixed_points(s).as_algebra(),
                           atomic_structure(dfa(c)),
                           invariant_states(c, s).rho_max)
    check(len(comps) == 1, f"{label}: {len(comps)} components, expected 1")
    comp = comps[0]
    check(comp.period == rep.period,
          f"{label}: component period {comp.period}, oracle "
          f"{rep.period}")
    W = component_embedding(comp)
    embedded = [W @ Q @ dagger(W) for Q in comp.cyclic_projections]
    for mine, theirs in ((embedded, rep.projections),
                         (rep.projections, embedded)):
        worst = max(min(spectral_norm(Q - R) for R in theirs) for Q in mine)
        check(worst <= 1e-10,
              f"{label}: cyclic projections differ from the oracle's by "
              f"{worst:.2e}")


# ---------------------------------------------------------------------------
# shared corpus: unital channels with a faithful invariant state
# ---------------------------------------------------------------------------

def _unitary_mixture(D, k, rng):
    probs = rng.dirichlet(np.ones(k))
    return from_kraus([np.sqrt(p) * random_unitary(D, rng) for p in probs],
                      label=f"mixture-{D}-{k}")


def _block_sum(d1, d2, k, rng):
    pa = rng.dirichlet(np.ones(k))
    pb = rng.dirichlet(np.ones(k))
    kraus = []
    for i in range(k):
        V = np.zeros((d1 + d2, d1 + d2), dtype=complex)
        V[:d1, :d1] = np.sqrt(pa[i]) * random_unitary(d1, rng)
        V[d1:, d1:] = np.sqrt(pb[i]) * random_unitary(d2, rng)
        kraus.append(V)
    return from_kraus(kraus, label=f"blocksum-{d1}+{d2}")


def _shift_walk(d, h, rng):
    w = builder_cyclic_shift(d, [random_unitary(h, rng) for _ in range(d)])
    return to_channel(w)


def build_corpus(seed):
    """The corpus recipe, drawn from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    channels = []
    for D in range(2, 9):
        for k in (2, 3):
            for _ in range(2):
                channels.append(_unitary_mixture(D, k, rng))
    for d, h in ((2, 2), (3, 2), (4, 2), (2, 3)):
        for _ in range(3):
            channels.append(_shift_walk(d, h, rng))
    for d1, d2 in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)):
        for _ in range(2):
            channels.append(_block_sum(d1, d2, 2, rng))
    return channels


@pytest.fixture(scope="module")
def corpus():
    channels = build_corpus(20240817)
    assert len(channels) >= 50
    return channels


@pytest.fixture(scope="module")
def corpus_analysis(corpus):
    """Per-channel spectrum, invariant state, decoherence-free algebra and
    E_N, the peripheral decomposition checked on the way, plus the wall
    time the whole pass took."""
    t0 = time.perf_counter()
    rows = []
    for c in corpus:
        a = analysis(c)
        a.peripheral
        rows.append((c, a.spectrum, a.inv, a.N, a.e_n))
    return rows, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. irreducible two-site walk with d = 3 phase/shift coins
# ---------------------------------------------------------------------------

def test_acceptance_1_pauli_walk_d3(capsys):
    failures = []
    check = _checker(failures)
    t0 = time.perf_counter()

    d = 3
    c = to_channel(builder_pauli_walk(d, 0.5))
    a = analysis(c)
    s = a.spectrum
    F = fixed_points(s)
    check(F.dim == 1, f"dim F = {F.dim}, expected 1")
    inv = invariant_states(c, s)
    check(inv.faithful, "invariant state not faithful")
    p = a.peripheral
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    check(len(p.eigenvalues) == d,
          f"{len(p.eigenvalues)} peripheral eigenvalues, expected {d}")
    for r in roots:
        hits = [lam for lam in p.eigenvalues if abs(lam - r) <= 1e-7]
        check(len(hits) == 1, f"root {r:.4f} not simple: {len(hits)} matches")
    rep = period_irreducible(c)
    check(rep.period == d, f"period {rep.period}, expected {d}")
    _check_cycle_against_oracle(check, "pauli d=3", c, s, rep)
    N = dfa(c)
    check(N.dim == d, f"dim N = {N.dim}, expected {d}")

    # reference projections: eigenvectors of the one-step displacement
    # unitary Z X^{-1}, inflated over the two-dimensional vertex space
    Z, X = pauli_pair(d)
    _, V = np.linalg.eig(Z @ dagger(X))
    refs = [np.kron(np.eye(2), np.outer(V[:, k], V[:, k].conj()))
            for k in range(d)]
    for Q in rep.projections:
        best = min(spectral_norm(Q - R) for R in refs)
        check(best <= 1e-7, f"cyclic projection off by {best:.2e}")
    from chanstruct.numerics import MatrixSubspace
    dist = subspace_distance(
        MatrixSubspace.from_span(list(rep.projections), dim=c.dim),
        MatrixSubspace.from_span(refs, dim=c.dim))
    check(dist <= 1e-7, f"projection spans differ by {dist:.2e}")

    elapsed = time.perf_counter() - t0
    check(elapsed < 2.0, f"runtime {elapsed:.2f}s exceeds 2s")
    _verdict(capsys, "1: two-site walk, d=3 coins (irreducible cycle)",
             failures)


# ---------------------------------------------------------------------------
# 2. two-site walk with d = 4 coins: fixed blocks and reduced channels
# ---------------------------------------------------------------------------

def _half_period_embeddings(d, alpha, c):
    """Analytic isometries onto the two minimal fixed central blocks.

    Columns are indexed vertex-major by (vertex v, half-period slot m):
    the slot-m vector is the m-step backward phase transport of the
    anchor eigenvector of the two-step transport unitary, with the
    displacement unitary applied on the second vertex.
    """
    q = d // 2
    w = np.exp(2j * np.pi / d)
    Z, X = pauli_pair(d)
    W = Z @ dagger(X)

    def ket(i, n=d):
        v = np.zeros(n, dtype=complex)
        v[i] = 1
        return v

    anchors = {
        '+': sum(w ** (2 * l * (1 - l)) * ket(2 * l)
                 for l in range(q)) / np.sqrt(q),
        '-': sum(w ** (2 * l * (0 - l)) * ket((2 * l + 1) % d)
                 for l in range(q)) / np.sqrt(q),
    }
    transport = {0: dagger(Z) @ dagger(Z), 1: dagger(Z)}
    out = {}
    for sign in '+-':
        cols = []
        for v in range(2):
            for m in range(q):
                vh = transport[m] @ anchors[sign]
                if v == 1:
                    vh = W @ vh
                cols.append(np.kron(np.eye(2)[v], vh))
        out[sign] = np.column_stack(cols)
    return out


def test_acceptance_2_pauli_walk_d4(capsys):
    failures = []
    check = _checker(failures)
    t0 = time.perf_counter()

    d, q = 4, 2
    Xq = np.array([[0, 1], [1, 0]], dtype=complex)
    Zq = np.diag([1.0, -1.0]).astype(complex)

    def Eij(i, j):
        M = np.zeros((2, 2), dtype=complex)
        M[i, j] = 1
        return M

    def delta(B):
        return np.diag(np.diag(B))

    def delta_bar(B):
        return np.diag([B[1, 1], B[0, 0]])

    for alpha in (0.3, 0.5):
        tag = f"alpha={alpha}"
        c = to_channel(builder_pauli_walk(d, alpha))
        s = spectrum(c.transfer_blocks)
        F = fixed_points(s)
        check(F.dim == 2, f"{tag}: dim F = {F.dim}, expected 2")
        comm = max(spectral_norm(a @ b - b @ a)
                   for a in F.subspace.basis for b in F.subspace.basis)
        check(comm <= 1e-8, f"{tag}: F not abelian ({comm:.2e})")
        N = dfa(c)
        check(N.dim == 8, f"{tag}: dim N = {N.dim}")
        zdim = center(N).dim
        check(zdim == 2, f"{tag}: dim Z(N) = {zdim}")

        comps = mfnc_decompose(c, F.as_algebra(), atomic_structure(N),
                               invariant_states(c, s).rho_max)
        check(len(comps) == 1, f"{tag}: {len(comps)} components, expected 1")
        comp = comps[0]
        check(comp.period == 2, f"{tag}: period {comp.period}")

        # reduced per-slot channel: unique invariant state I/2 and the
        # around-the-cycle composition spectrum {1, (2a-1)^2, 0, 0}
        for m, rho in enumerate(comp.block_states):
            td = _trace_distance(rho, np.eye(2) / 2)
            check(td <= 1e-8, f"{tag}: block state {m} off I/2 by {td:.2e}")
        lam = np.sort_complex(np.linalg.eigvals(cycle_composition(comp, 0)))
        ref = np.sort_complex(np.array([0, 0, (2 * alpha - 1) ** 2, 1.0],
                                       dtype=complex))
        check(np.abs(lam - ref).max() <= 1e-7,
              f"{tag}: cycle composition spectrum {np.round(lam, 4)}")

        fb = fixed_multiblock(comp)
        psi_transfers = fixed_block_oracles(comp, fb).psi_transfers
        check(fb.n_blocks == 2, f"{tag}: {fb.n_blocks} fixed blocks")
        ratio = fb.eigenvalues[0] / fb.eigenvalues[1]
        check(abs(ratio + 1) <= 1e-7,
              f"{tag}: transport monodromy eigenvalues not opposite")

        # invariant family s P_a/4 + (1-s) P_b/4
        Pa, Pb = fb.central_projections
        for s in (0.0, 0.5, 1.0):
            xi = invariant_state(comp, fb, [s, 1 - s],
                                 [np.eye(1), np.eye(1)])
            res = hs_norm(c.preadjoint_apply(xi) - xi)
            check(res <= 1e-8, f"{tag}: xi_{s} invariance {res:.2e}")
            mix = hs_norm(xi - (s * Pa + (1 - s) * Pb) / d)
            check(mix <= 1e-8,
                  f"{tag}: xi_{s} is not the projection mixture ({mix:.2e})")

        # channels induced on the right factor of each fixed block,
        # computed through the analytic embeddings
        embeds = _half_period_embeddings(d, alpha, c)
        for j, sign in enumerate('+-'):
            G = embeds[sign]
            check(spectral_norm(dagger(G) @ G - np.eye(2 * q)) <= 1e-10,
                  f"{tag}: embedding {sign} not an isometry")
            P = G @ dagger(G)
            check(min(spectral_norm(P - Pa), spectral_norm(P - Pb)) <= 1e-7,
                  f"{tag}: embedding {sign} misses a central projection")

            def psi(B, G=G):
                return dagger(G) @ c.apply(G @ B @ dagger(G)) @ G

            # on the block-diagonal operator basis the induced channel is
            # the dephasing mixture tensored with the slot shift
            worst = 0.0
            for m in range(q):
                em = np.zeros((q, q), dtype=complex)
                em[m, m] = 1
                for v1 in range(2):
                    for v2 in range(2):
                        B = np.kron(Eij(v1, v2), em)
                        mixed = alpha * delta(Eij(v1, v2)) \
                            + (1 - alpha) * delta_bar(Eij(v1, v2))
                        expect = np.kron(mixed, Xq @ em @ Xq)
                        worst = max(worst, hs_norm(psi(B) - expect))
            check(worst <= 1e-7,
                  f"{tag}: block-diagonal action of psi_{sign} off by "
                  f"{worst:.2e}")

            # full channel equality against the closed Kraus form: the
            # half-period wrap puts a phase twist on exactly one branch
            t_diag, t_flip = ((np.eye(2), Xq @ Zq) if sign == '+'
                              else (Zq, Xq @ Zq @ Zq))
            ref_kraus = [
                np.sqrt(alpha) * np.kron(Eij(0, 0), Xq @ t_diag),
                np.sqrt(alpha) * np.kron(Eij(1, 1), Xq @ t_diag),
                np.sqrt(1 - alpha) * np.kron(Eij(0, 1), Xq @ t_diag),
                np.sqrt(1 - alpha) * np.kron(Eij(1, 0), t_flip),
            ]
            T_psi = np.zeros((16, 16), dtype=complex)
            T_ref = np.zeros((16, 16), dtype=complex)
            col = 0
            for b in range(4):
                for a in range(4):
                    E = np.zeros((4, 4), dtype=complex)
                    E[a, b] = 1
                    T_psi[:, col] = vec(psi(E))
                    T_ref[:, col] = vec(sum(dagger(V) @ E @ V
                                            for V in ref_kraus))
                    col += 1
            res = spectral_norm(T_psi - T_ref)
            check(res <= 1e-7,
                  f"{tag}: psi_{sign} differs from closed form by {res:.2e}")

            # gauge-free cross-check against the pipeline's fixed blocks;
            # the structural zeros sit in nilpotent Jordan blocks whose
            # computed eigenvalues scatter like eps^(1/4), so only the
            # clearly nonzero part of the spectrum is compared
            def nonzero_part(T):
                lam = np.linalg.eigvals(T)
                lam = lam[np.abs(lam) > 1e-2]
                order = np.lexsort((lam.imag.round(6), lam.real.round(6)))
                return lam[order]
            spec_a = nonzero_part(T_psi)
            spec_b = nonzero_part(psi_transfers[j])
            check(len(spec_a) == len(spec_b)
                  and np.abs(spec_a - spec_b).max() <= 1e-7,
                  f"{tag}: psi_{sign} spectrum disagrees with the "
                  f"fixed-block computation")

    elapsed = time.perf_counter() - t0
    check(elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(capsys, "2: two-site walk, d=4 coins (fixed blocks)", failures)


# ---------------------------------------------------------------------------
# 3. decoherence-free algebra equals the peripheral span on the corpus
# ---------------------------------------------------------------------------

def test_acceptance_3_dfa_equals_peripheral_span(capsys, corpus_analysis):
    failures = []
    check = _checker(failures)
    rows, elapsed = corpus_analysis
    check(len(rows) >= 50, f"corpus has only {len(rows)} channels")
    for i, (c, s, inv, N, e_n) in enumerate(rows):
        check(inv.faithful, f"channel {i} ({c.label}): not faithful")
        dist = subspace_distance(N, MatrixSubspace.from_span(
            peripheral_eigenpairs(c)[1]))
        check(dist <= 1e-6,
              f"channel {i} ({c.label}): dfa vs peripheral span {dist:.2e}")
    check(elapsed < 60.0, f"corpus analysis took {elapsed:.1f}s")
    _verdict(capsys, f"3: dfa = peripheral span on {len(rows)} channels "
                     f"({elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# 4. conditional expectations: projection properties and Cesaro agreement
# ---------------------------------------------------------------------------

def test_acceptance_4_conditional_expectations(capsys, corpus_analysis):
    failures = []
    check = _checker(failures)
    rows, _ = corpus_analysis
    for i, (c, s, inv, N, e_n) in enumerate(rows):
        E_F, E_N = dense(s.e_f_factors), dense(e_n)
        T = kron_transfer(c)
        discrepancy = spectral_norm(cesaro_expectation(T) - E_F)
        check(discrepancy <= 1e-6,
              f"channel {i}: Cesaro vs spectral {discrepancy:.2e}")
        for name, E in (("E_F", E_F), ("E_N", E_N)):
            idem = spectral_norm(E @ E - E)
            check(idem <= 1e-7, f"channel {i}: {name} idempotent {idem:.2e}")
            unital = spectral_norm(
                unvec(E @ vec(np.eye(c.dim)), c.dim) - np.eye(c.dim))
            check(unital <= 1e-7, f"channel {i}: {name} unital {unital:.2e}")
            cp = -_choi_min_eig(E, c.dim)
            check(cp <= 1e-7, f"channel {i}: {name} CP defect {cp:.2e}")
            comm = spectral_norm(E @ T - T @ E)
            check(comm <= 1e-7, f"channel {i}: {name} commute {comm:.2e}")
    _verdict(capsys, "4: conditional expectations on the corpus", failures)


# ---------------------------------------------------------------------------
# 5. fixed points of powers: gcd rule and period restrictions
# ---------------------------------------------------------------------------

def test_acceptance_5_power_fixed_points(capsys):
    failures = []
    check = _checker(failures)

    cases = []
    cases.append(("two-site walk d=3",
                  to_channel(builder_pauli_walk(3, 0.5)), 3))
    # periodicity-6 analogue: the classical cyclic permutation realized
    # as a shift walk with one-dimensional local spaces
    cases.append(("classical 6-cycle",
                  to_channel(builder_cyclic_shift(6, [np.eye(1)] * 6)), 6))

    for label, c, d in cases:
        s = spectrum(c.transfer_blocks)
        analysis(c).peripheral
        rep = period_irreducible(c)
        check(rep.period == d, f"{label}: period {rep.period}, expected {d}")
        _check_cycle_against_oracle(check, label, c, s, rep)
        table = verify_power_fixed_points(c, rep, m_max=d + 1)
        for row in table.rows:
            check(row.matches_gcd_rule,
                  f"{label}: power {row.power} has dim F = {row.fixed_dim}, "
                  f"coprime={row.coprime}")
        check(table.f_period_distance <= 1e-7,
              f"{label}: F(Phi^{d}) vs N distance "
              f"{table.f_period_distance:.2e}")
        check(all(table.restrictions_irreducible),
              f"{label}: a power restriction is reducible")
        check(all(table.restrictions_aperiodic),
              f"{label}: a power restriction is periodic")
    _verdict(capsys, "5: gcd rule for fixed points of powers", failures)


# ---------------------------------------------------------------------------
# 6. walk-specific oracles agree with the generic commutant route
# ---------------------------------------------------------------------------

def _random_walk(rng, n_vertices, dims, out_degree=2):
    transitions = {}
    for j in range(n_vertices):
        order = list(rng.permutation(n_vertices))
        targets = order[:min(out_degree, n_vertices)]
        # stacking the blocks must give an isometry, so the combined
        # target dimension has to cover the source dimension
        while sum(dims[i] for i in targets) < dims[j]:
            targets.append(order[len(targets)])
        targets = sorted(int(t) for t in targets)
        tot = sum(dims[i] for i in targets)
        V = random_unitary(max(tot, dims[j]), rng)[:tot, :dims[j]]
        row = 0
        for i in targets:
            transitions[(i, j)] = V[row:row + dims[i], :]
            row += dims[i]
    return build(range(n_vertices), dims, transitions)


def test_acceptance_6_oqrw_oracles(capsys):
    failures = []
    check = _checker(failures)
    rng = np.random.default_rng(1234)

    sp_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)]).astype(complex)
    sp_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]], dtype=complex)
    walks = [
        ("shift-3", builder_cyclic_shift(
            3, [random_unitary(2, rng) for _ in range(3)])),
        ("shift-4", builder_cyclic_shift(
            4, [random_unitary(2, rng) for _ in range(4)])),
        ("pauli-3", builder_pauli_walk(3, 0.5)),
        ("pauli-4", builder_pauli_walk(4, 0.3)),
        ("nn-8-special", builder_nn_cycle(8, sp_plus, sp_minus)),
        ("nn-6-generic", builder_nn_cycle(
            6, random_unitary(2, rng) / np.sqrt(2),
            random_unitary(2, rng) / np.sqrt(2))),
    ]
    for k in range(20):
        n = int(rng.integers(2, 7))
        dims = [int(x) for x in rng.integers(1, 4, size=n)]
        while sum(dims) > 10:
            dims[int(np.argmax(dims))] -= 1
        walks.append((f"random-{k}", _random_walk(rng, n, dims)))

    for label, w in walks:
        c, rep = to_channel(w), oqrw_dfa(w)
        dM = subspace_distance(rep.multiplicative_domain,
                               multiplicative_domain(c))
        check(dM <= 1e-7, f"{label}: multiplicative domain {dM:.2e}")
        dN = subspace_distance(rep.algebra, dfa(c))
        check(dN <= 1e-7, f"{label}: dfa {dN:.2e}")
    _verdict(capsys, f"6: walk oracles vs generic route on {len(walks)} "
                     f"walks", failures)


# ---------------------------------------------------------------------------
# 7. cyclic shift walks: structure, period, and reconstruction
# ---------------------------------------------------------------------------

def test_acceptance_7_cyclic_shift(capsys):
    failures = []
    check = _checker(failures)
    for d in (3, 4):
        rng = np.random.default_rng(42)
        Us = [random_unitary(2, rng) for _ in range(d)]
        w = builder_cyclic_shift(d, Us)
        c = to_channel(w)

        rep = oqrw_dfa(w)
        check(rep.algebra.dim == d * 4,
              f"d={d}: dim N = {rep.algebra.dim}, "
              f"expected {d * 4}")
        check(rep.off_diagonal.dim == 0,
              f"d={d}: off-diagonal dfa part has dim {rep.off_diagonal.dim}")

        s = spectrum(c.transfer_blocks)
        F = fixed_points(s)
        loop = np.eye(2, dtype=complex)
        for U in Us:
            loop = U @ loop
        cdim = commutant([loop], dim=2).dim
        check(F.dim == cdim,
              f"d={d}: dim F = {F.dim}, loop commutant has dim {cdim}")

        comps = mfnc_decompose(c, F.as_algebra(), atomic_structure(dfa(c)),
                               invariant_states(c, s).rho_max)
        check(len(comps) == 1, f"d={d}: {len(comps)} components")
        comp = comps[0]
        check(comp.period == d,
              f"d={d}: period {comp.period}")
        rebuilt = structured_kraus(comp)
        err = spectral_norm(kron_transfer(rebuilt)
                            - kron_transfer(comp.channel))
        check(err <= 1e-8, f"d={d}: reconstruction error {err:.2e}")
    _verdict(capsys, "7: cyclic shift walks d=3,4 (seed 42)", failures)


# ---------------------------------------------------------------------------
# 8. nearest-neighbor walk on an 8-cycle: two structural regimes
# ---------------------------------------------------------------------------

def test_acceptance_8_nn_cycle(capsys):
    failures = []
    check = _checker(failures)
    n = 8

    # regime 1: one step diagonal, the other off-diagonal in a common basis
    L_minus = np.diag([np.sqrt(0.3), np.sqrt(0.7)]).astype(complex)
    L_plus = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]], dtype=complex)
    w = builder_nn_cycle(n, L_plus, L_minus)
    c = to_channel(w)
    rep = oqrw_dfa(w)
    check(rep.algebra.dim == 4,
          f"special: dim N = {rep.algebra.dim}, expected 4")
    comm = max(spectral_norm(a @ b - b @ a)
               for a in rep.algebra.basis for b in rep.algebra.basis)
    check(comm <= 1e-7, f"special: dfa not abelian ({comm:.2e})")
    s = spectrum(c.transfer_blocks)
    analysis(c).peripheral
    cyc = period_irreducible(c)
    check(cyc.period == 4, f"special: period {cyc.period}, expected 4")
    _check_cycle_against_oracle(check, "special", c, s, cyc)

    # regime 2: generic unitary steps leave only the sublattice parity
    rng = np.random.default_rng(5)
    Lp = random_unitary(2, rng) / np.sqrt(2)
    Lm = random_unitary(2, rng) / np.sqrt(2)
    w2 = builder_nn_cycle(n, Lp, Lm)
    c2 = to_channel(w2)
    rep2 = oqrw_dfa(w2)
    check(rep2.algebra.dim == 2,
          f"generic: dim N = {rep2.algebra.dim}, expected 2")
    par = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(0, n, 2):
        par[2 * i:2 * i + 2, 2 * i:2 * i + 2] = np.eye(2)
    from chanstruct.numerics import MatrixSubspace
    parity_span = MatrixSubspace.from_span([par, np.eye(2 * n) - par],
                                           dim=2 * n)
    dist = subspace_distance(rep2.algebra, parity_span)
    check(dist <= 1e-7, f"generic: dfa vs parity span {dist:.2e}")
    s2 = spectrum(c2.transfer_blocks)
    analysis(c2).peripheral
    cyc2 = period_irreducible(c2)
    check(cyc2.period == 2, f"generic: period {cyc2.period}, expected 2")
    _check_cycle_against_oracle(check, "generic", c2, s2, cyc2)
    _verdict(capsys, "8: nearest-neighbor 8-cycle regimes", failures)


# ---------------------------------------------------------------------------
# 9. weighted-L2 geometry on the corpus
# ---------------------------------------------------------------------------

def test_acceptance_9_l2_geometry(capsys, corpus_analysis):
    failures = []
    check = _checker(failures)
    rows, _ = corpus_analysis
    rng = np.random.default_rng(99)
    for i, (c, s, inv, N, e_n) in enumerate(rows):
        D = c.dim
        l2 = L2Structure.from_state(inv.rho_max)
        nrm = l2.map_norm(l2.weighted_transfer(c.kraus))
        check(nrm <= 1 + 1e-8, f"channel {i}: L2 norm {nrm - 1:.2e} above 1")
        for a in N.basis:
            gap_iso = abs(l2.norm(c.apply(a)) - l2.norm(a))
            check(gap_iso <= 1e-8,
                  f"channel {i}: isometry defect on dfa {gap_iso:.2e}")
        for _ in range(3):
            x = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
            y = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
            ex = apply_expectation(e_n, x)
            perp = y - apply_expectation(e_n, y)
            if l2.norm(ex) < 1e-9 or l2.norm(perp) < 1e-9:
                continue
            ex = ex / l2.norm(ex)
            perp = perp / l2.norm(perp)
            ov = abs(l2_inner(l2, ex, perp))
            check(ov <= 1e-8, f"channel {i}: overlap {ov:.2e}")
            ov2 = abs(l2_inner(l2, c.apply(ex), c.apply(perp)))
            check(ov2 <= 1e-8, f"channel {i}: overlap after step {ov2:.2e}")
        gap = decoherence_gap(l2.weighted_transfer(c.kraus), s, l2, e_n)
        T = kron_transfer(c)
        lam = np.linalg.eigvals(T)
        inner_radius = np.abs(lam)[np.abs(lam) <= 1 - TOL.peripheral_band]
        if inner_radius.size and inner_radius.max() > TOL.rank_tol:
            expect = -math.log(float(inner_radius.max()))
            check(abs(gap.asymptotic - expect) <= 1e-8,
                  f"channel {i}: asymptotic rate {gap.asymptotic:.6f} vs "
                  f"{expect:.6f}")
        else:
            check(math.isinf(gap.asymptotic),
                  f"channel {i}: expected infinite rate")
        rate = gap.finite_horizon
        check(0 <= rate <= gap.asymptotic + 1e-12,
              f"channel {i}: finite-horizon rate {rate} outside "
              f"[0, {gap.asymptotic}]")
        Q = np.eye(D * D) - dense(e_n)
        power = np.eye(D * D)
        for n in range(1, 11):
            power = T @ power
            decay = dense_map_norm(l2.rho, power @ Q)
            bound = 1e-9 if math.isinf(rate) else math.exp(-n * rate) + 1e-10
            check(decay <= bound,
                  f"channel {i}: |Phi^{n}(I - E_N)| = {decay:.3e} above "
                  f"{bound:.3e}")
    _verdict(capsys, "9: weighted-L2 geometry on the corpus", failures)
