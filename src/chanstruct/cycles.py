"""Period and cyclic structure of channels.

Cyclic resolutions of irreducible channels, decomposition into minimal
components of the joint center of F and N, the tensor factorization of
each component into a unitary shift part and a chain of reduced channels,
structured Kraus forms and the resulting multiblock description of the
fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chanstruct.algebra import (
    OperatorAlgebra,
    atomic_structure,
    center,
    extract_block_states,
)
from chanstruct.channel import ChannelSpec, from_kraus
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    cluster_values,
    dagger,
    fix_global_phase,
    hs_norm,
    kernel_basis,
    range_isometry,
    round_projector,
    spectral_norm,
    subspace_distance,
    subspace_intersection,
    transfer_of,
    unvec,
    vec,
)
from chanstruct.structure import (
    invariant_states,
    peripheral_subalgebra,
)


class NotRootsOfUnity(RuntimeError):
    """Peripheral eigenvalues of an irreducible channel fail the
    root-of-unity group-structure test."""


class NotSimple(RuntimeError):
    """A peripheral eigenvalue has multiplicity >= 2 under an
    irreducibility claim."""


class OrbitNotClosed(RuntimeError):
    """The channel does not permute the minimal central projections."""


class IsomorphismSolveFailed(RuntimeError):
    """The linear solve for a shift unitary left a large residual."""


class ReconstructionMismatch(RuntimeError):
    """Structured Kraus operators fail to reproduce the channel."""


class CenterMismatch(RuntimeError):
    """Assembled fixed-point projections disagree with the minimal
    central projections of F."""


@dataclass(frozen=True)
class CycleReport:
    """Cyclic resolution: projections Q_j with Phi(Q_j) = Q_{j-1}."""

    period: int
    projections: tuple
    unitary: np.ndarray

    @property
    def dim(self) -> int:
        return self.projections[0].shape[0]


@dataclass(frozen=True)
class MfncComponent:
    """One minimal component of the joint center, with its restriction."""

    projection: np.ndarray       # Z_i in the ambient space
    embedding: np.ndarray        # D x r isometry onto the range of Z_i
    channel: ChannelSpec         # restriction of the channel, r-dimensional
    cycle: CycleReport           # in component coordinates
    dfa_restricted: OperatorAlgebra


@dataclass(frozen=True)
class MfncDecomposition:
    z_projections: tuple
    components: tuple

    @property
    def n_components(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class ComponentData:
    """Tensor factorization of one component.

    S_m are partial isometries onto K_m^L (x) K_m^R, T_m the shift
    unitaries K_m^L -> K_{m-1}^L, xi_kraus[m] the Kraus list of the
    reduced channel Xi_m: B(K_m^R) -> B(K_{m-1}^R) and rho[m] the block
    state on K_m^R.
    """

    channel: ChannelSpec
    cycle: CycleReport
    isometries: tuple            # S_m, each (nL*nR_m) x r
    left_dim: int
    right_dims: tuple
    shift_unitaries: tuple       # T_m
    xi_kraus: tuple              # per m: tuple of L_{m,k}, (nR_m x nR_{m-1})
    block_states: tuple          # rho_m

    @property
    def period(self) -> int:
        return self.cycle.period

    def xi_transfer(self, m: int) -> np.ndarray:
        """Transfer matrix of Xi_m as a map B(K_m^R) -> B(K_{m-1}^R)."""
        return transfer_of(
            lambda E: sum(dagger(L) @ E @ L for L in self.xi_kraus[m]),
            self.right_dims[m])

    def cycle_composition(self, m: int = 0) -> np.ndarray:
        """Transfer of the d-fold composition returning to B(K_m^R)."""
        d = self.period
        n = self.right_dims[m]
        out = np.eye(n * n, dtype=complex)
        idx = m
        for _ in range(d):
            out = self.xi_transfer(idx) @ out
            idx = (idx - 1) % d
        return out


@dataclass(frozen=True)
class FixedBlockData:
    """Fixed points of a periodic component as a direct sum of blocks.

    t_products[m] carries the running products of the shift unitaries,
    r_projections[j] the spectral projections of t_products[0] with
    eigenspaces spanned by left_bases[j]; central_projections[j] the
    matching minimal central projections of F; embeddings[j] the
    isometry from L_j (x) (direct sum of the K_m^R) into the component;
    psi_transfers[j] the channel induced on the right factor; sigma the
    unique invariant state of each such channel.
    """

    t_products: tuple
    r_projections: tuple
    left_bases: tuple
    eigenvalues: tuple
    central_projections: tuple
    embeddings: tuple
    psi_transfers: tuple
    sigma: np.ndarray
    right_total: int

    @property
    def n_blocks(self) -> int:
        return len(self.r_projections)

    def invariant_state(self, weights, left_states) -> np.ndarray:
        """Assemble an invariant density from block weights and states
        on the left eigenspaces."""
        out = 0
        for lam, omega, G in zip(weights, left_states, self.embeddings):
            out = out + lam * (G @ np.kron(np.asarray(omega, dtype=complex),
                                           self.sigma) @ dagger(G))
        return out


@dataclass(frozen=True)
class PowerFixedPointRow:
    power: int
    fixed_dim: int
    coprime: bool
    matches_gcd_rule: bool


@dataclass(frozen=True)
class PowerFixedPointTable:
    rows: tuple
    f_period_matches_dfa: bool
    f_period_distance: float
    restrictions_irreducible: tuple
    restrictions_aperiodic: tuple

    @property
    def all_pass(self) -> bool:
        return (self.f_period_matches_dfa
                and all(r.matches_gcd_rule for r in self.rows)
                and all(self.restrictions_irreducible)
                and all(self.restrictions_aperiodic))


# ---------------------------------------------------------------------------
# Irreducible period
# ---------------------------------------------------------------------------

def _root_of_unity_check(eigenvalues, d, tol):
    """Match peripheral eigenvalues to the d-th roots of unity, 1-1."""
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    used = [False] * d
    for lam in eigenvalues:
        hits = [k for k in range(d)
                if not used[k] and abs(lam - roots[k]) <= 1e3 * tol.eq_tol]
        if not hits:
            close = [k for k in range(d) if abs(lam - roots[k]) <= 1e3 * tol.eq_tol]
            if close:
                raise NotSimple(
                    f"peripheral eigenvalue near exp(2i pi {close[0]}/{d}) "
                    f"appears with multiplicity >= 2")
            raise NotRootsOfUnity(
                f"peripheral eigenvalue {lam:.8f} is not a {d}-th root of unity")
        used[hits[0]] = True


def period_irreducible(c: ChannelSpec, p, tol: Tolerances = DEFAULT_TOL) -> CycleReport:
    """Cyclic resolution of an irreducible channel.

    The period is the number of peripheral eigenvalues, which must form
    the full group of d-th roots of unity, each simple.  The cycle
    unitary is the polar part of the eigenmatrix at exp(2i pi/d),
    rotated so that 1 lies in its spectrum.
    """
    d = len(p.eigenvalues)
    _root_of_unity_check(p.eigenvalues, d, tol)
    D = c.dim
    if d == 1:
        return CycleReport(period=1, projections=(np.eye(D),),
                           unitary=np.eye(D, dtype=complex))
    omega = np.exp(2j * np.pi / d)
    idx = int(np.argmin([abs(lam - omega) for lam in p.eigenvalues]))
    X = p.eigenmatrices[idx]
    W, _, Vh = np.linalg.svd(X)
    U = W @ Vh
    # rotate so the spectrum consists of exact d-th roots with 1 included
    theta = np.angle(np.linalg.eigvals(U))
    res = np.mod(theta, 2 * np.pi / d)
    if res.max() - res.min() > np.pi / d:     # wrap-around cluster
        res = np.where(res > np.pi / d, res - 2 * np.pi / d, res)
    phi = float(np.mean(res))
    U = np.exp(-1j * phi) * U
    if spectral_norm(np.linalg.matrix_power(U, d) - np.eye(D)) > 1e3 * tol.eq_tol:
        raise NotRootsOfUnity("cycle unitary fails U^d = I")
    projections = []
    for j in range(d):
        Q = sum(omega ** (-j * n) * np.linalg.matrix_power(U, n)
                for n in range(d)) / d
        projections.append(round_projector(Q, tol=tol))
    for j in range(d):
        resid = spectral_norm(c.apply(projections[j]) - projections[(j - 1) % d])
        if resid > 1e3 * tol.eq_tol:
            raise NotRootsOfUnity(
                f"cyclic numbering failed: residual {resid:.3e} at j={j}")
    return CycleReport(period=d, projections=tuple(projections), unitary=U)


# ---------------------------------------------------------------------------
# MFNC decomposition
# ---------------------------------------------------------------------------

def _minimal_abelian_projections(alg: OperatorAlgebra, tol, seed):
    st = atomic_structure(alg, tol=tol, seed=seed)
    return st.central_projections


def _diag_sort_key(P: np.ndarray):
    return tuple(np.round(np.real(np.diag(P)), 6))


def mfnc_decompose(c: ChannelSpec, F: OperatorAlgebra, N: OperatorAlgebra,
                   tol: Tolerances = DEFAULT_TOL,
                   seed: int = 0) -> MfncDecomposition:
    """Split the channel along the joint center of F and N.

    Minimal projections of Z(F) & Z(N) are invariant, so the channel
    restricts to each of their ranges; inside a component the minimal
    central projections of N form a single cycle under the channel.
    """
    D = c.dim
    ZF = center(F, tol=tol)
    ZN = center(N, tol=tol)
    Z_sub = subspace_intersection(ZF.subspace, ZN.subspace, tol=tol)
    Z = OperatorAlgebra(Z_sub)
    z_projections = _minimal_abelian_projections(Z, tol, seed)
    components = []
    for Zi in z_projections:
        if spectral_norm(c.apply(Zi) - Zi) > 1e3 * tol.eq_tol:
            raise OrbitNotClosed("a joint-center projection is not invariant")
        W = range_isometry(Zi, tol)
        kraus_i = [dagger(W) @ V @ W for V in c.kraus]
        c_i = from_kraus(kraus_i, tol=tol, label=f"{c.label}|component")
        # restrict N to the component
        N_i = OperatorAlgebra(MatrixSubspace.from_span(
            [dagger(W) @ b @ W for b in N.basis], dim=W.shape[1], tol=tol))
        cycle = _component_cycle(c_i, N_i, tol, seed)
        components.append(MfncComponent(projection=Zi, embedding=W,
                                        channel=c_i, cycle=cycle,
                                        dfa_restricted=N_i))
    return MfncDecomposition(z_projections=tuple(z_projections),
                             components=tuple(components))


def _component_cycle(c_i: ChannelSpec, N_i: OperatorAlgebra,
                     tol: Tolerances, seed: int) -> CycleReport:
    """Cycle of the minimal central projections of N inside one component."""
    ZN = center(N_i, tol=tol)
    minimal = list(_minimal_abelian_projections(OperatorAlgebra(ZN.subspace),
                                                tol, seed))
    d = len(minimal)
    anchor = min(minimal, key=_diag_sort_key)
    ordered = [None] * d
    ordered[0] = anchor
    current = anchor
    for step in range(1, d):
        nxt = c_i.apply(current)
        hits = [Q for Q in minimal
                if spectral_norm(nxt - Q) <= 1e3 * tol.eq_tol]
        if len(hits) != 1:
            raise OrbitNotClosed(
                f"image of a cyclic projection matched {len(hits)} candidates")
        # Phi(Q_m) = Q_{m-1}: walking forward with Phi decreases the index
        ordered[(0 - step) % d] = hits[0]
        current = hits[0]
    back = c_i.apply(current)
    if spectral_norm(back - anchor) > 1e3 * tol.eq_tol:
        raise OrbitNotClosed("orbit of cyclic projections did not close")
    omega = np.exp(2j * np.pi / d)
    U = sum(omega ** j * ordered[j] for j in range(d))
    return CycleReport(period=d, projections=tuple(ordered), unitary=U)


# ---------------------------------------------------------------------------
# Component factorization
# ---------------------------------------------------------------------------

def _match_blocks(structure, projections, tol):
    """Map cyclic index m to the structure block carrying Q_m."""
    match = []
    for Q in projections:
        hits = [j for j, P in enumerate(structure.central_projections)
                if spectral_norm(P - Q) <= 1e3 * tol.eq_tol]
        if len(hits) != 1:
            raise OrbitNotClosed(
                "cyclic projections do not match the central projections of N")
        match.append(hits[0])
    return match


def _solve_conjugation_unitary(G_map, nL, tol):
    """Recover unitary T from the map E_ab -> T E_ab T* given on units."""
    K = np.zeros((nL, nL, nL, nL), dtype=complex)   # indices (c,a,d,b)
    for a in range(nL):
        for b in range(nL):
            K[:, a, :, b] = G_map[(a, b)]
    Kmat = K.reshape(nL * nL, nL * nL)
    w, V = np.linalg.eigh((Kmat + dagger(Kmat)) / 2)
    T = (V[:, -1] * np.sqrt(max(w[-1], 0.0))).reshape(nL, nL)
    W, _, Vh = np.linalg.svd(T)
    T = fix_global_phase(W @ Vh, tol=tol)
    worst = 0.0
    for (a, b), G in G_map.items():
        E = np.zeros((nL, nL), dtype=complex)
        E[a, b] = 1
        worst = max(worst, spectral_norm(G - T @ E @ dagger(T)))
    if worst > 1e3 * tol.eq_tol:
        raise IsomorphismSolveFailed(
            f"shift-unitary solve residual {worst:.3e}")
    return T


def component_decompose(comp: MfncComponent, tol: Tolerances = DEFAULT_TOL,
                        seed: int = 0) -> ComponentData:
    """Factor one component into shift unitaries and reduced channels.

    Each Kraus operator of the component shifts the cyclic projections
    forward by one step, so it splits into blocks T_m* (x) L_{m,k}; the
    L blocks share the index k across m, which is what makes the
    reassembled Kraus operators reproduce the channel exactly.
    """
    c_i = comp.channel
    cycle = comp.cycle
    d = cycle.period
    structure = atomic_structure(comp.dfa_restricted, tol=tol, seed=seed)
    match = _match_blocks(structure, cycle.projections, tol)
    S = [structure.block_unitaries[match[m]] for m in range(d)]
    nLs = [structure.left_dims[match[m]] for m in range(d)]
    nRs = [structure.right_dims[match[m]] for m in range(d)]
    if len(set(nLs)) != 1:
        raise IsomorphismSolveFailed(
            f"left factors have unequal dimensions {nLs}")
    nL = nLs[0]

    inv = invariant_states(c_i, tol=tol)
    p = peripheral_subalgebra(c_i, inv, tol=tol)
    states = extract_block_states(p.apply_expectation, structure, tol=tol)
    rho = [states[match[m]] for m in range(d)]

    shift_unitaries = []
    for m in range(d):
        prev = (m - 1) % d
        Sm, Sp = S[m], S[prev]
        nR_m, nR_p = nRs[m], nRs[prev]
        # left part: E_ab -> T_m E_ab T_m*
        G_map = {}
        for a in range(nL):
            for b in range(nL):
                E = np.zeros((nL, nL), dtype=complex)
                E[a, b] = 1
                X = dagger(Sm) @ np.kron(E, np.eye(nR_m)) @ Sm
                Cblk = Sp @ c_i.apply(X) @ dagger(Sp)
                C4 = Cblk.reshape(nL, nR_p, nL, nR_p)
                G = np.einsum("irjr->ij", C4) / nR_p
                if np.linalg.norm(C4 - np.einsum("ij,rs->irjs", G,
                                                 np.eye(nR_p))) > 1e3 * tol.eq_tol:
                    raise IsomorphismSolveFailed(
                        "left action is not of the form T E T* (x) I")
                G_map[(a, b)] = G
        shift_unitaries.append(_solve_conjugation_unitary(G_map, nL, tol))

    # right part: split each Kraus operator along the cycle
    canonical = c_i.minimal_kraus().kraus
    xi_kraus = [[] for _ in range(d)]
    for V in canonical:
        recomposed = np.zeros_like(V)
        for m in range(d):
            prev = (m - 1) % d
            Sm, Sp = S[m], S[prev]
            nR_m, nR_p = nRs[m], nRs[prev]
            B = Sm @ V @ dagger(Sp)
            lifted = np.kron(shift_unitaries[m], np.eye(nR_m)) @ B
            L = np.einsum("iris->rs",
                          lifted.reshape(nL, nR_m, nL, nR_p)) / nL
            if np.linalg.norm(B - np.kron(dagger(shift_unitaries[m]),
                                          L)) > 1e3 * tol.eq_tol:
                raise IsomorphismSolveFailed(
                    "a Kraus block is not of the form T* (x) L")
            xi_kraus[m].append(L)
            recomposed += dagger(Sm) @ B @ Sp
        if spectral_norm(recomposed - V) > 1e3 * tol.eq_tol:
            raise IsomorphismSolveFailed(
                "a Kraus operator has blocks outside the one-step shift")
    xi_kraus = [tuple(ks) for ks in xi_kraus]

    cd = ComponentData(channel=c_i, cycle=cycle, isometries=tuple(S),
                       left_dim=nL, right_dims=tuple(nRs),
                       shift_unitaries=tuple(shift_unitaries),
                       xi_kraus=tuple(xi_kraus), block_states=tuple(rho))
    for m in range(d):
        prev = (m - 1) % d
        push = sum(L @ rho[prev] @ dagger(L) for L in cd.xi_kraus[m])
        if hs_norm(push - rho[m]) > 1e3 * tol.eq_tol:
            raise IsomorphismSolveFailed(
                f"reduced channel does not carry rho_{prev} to rho_{m}")
    return cd


def structured_kraus(cd: ComponentData,
                     tol: Tolerances = DEFAULT_TOL) -> ChannelSpec:
    """Reassemble the component channel from its factorized data."""
    d = cd.period
    r = cd.channel.dim
    K = max(len(ks) for ks in cd.xi_kraus)
    kraus = []
    for k in range(K):
        V = np.zeros((r, r), dtype=complex)
        for m in range(d):
            prev = (m - 1) % d
            if k < len(cd.xi_kraus[m]):
                L = cd.xi_kraus[m][k]
            else:
                L = np.zeros((cd.right_dims[m], cd.right_dims[prev]),
                             dtype=complex)
            V += dagger(cd.isometries[m]) @ np.kron(
                dagger(cd.shift_unitaries[m]), L) @ cd.isometries[prev]
        kraus.append(V)
    rebuilt = from_kraus(kraus, tol=tol, label=f"{cd.channel.label}|rebuilt")
    err = spectral_norm(rebuilt.transfer - cd.channel.transfer)
    if err > 1e3 * tol.eq_tol:
        raise ReconstructionMismatch(
            f"structured Kraus reconstruction error {err:.3e}")
    return rebuilt


# ---------------------------------------------------------------------------
# Fixed points of a periodic component
# ---------------------------------------------------------------------------

def fixed_multiblock(cd: ComponentData, F: OperatorAlgebra,
                     tol: Tolerances = DEFAULT_TOL) -> FixedBlockData:
    """Fixed points of the component via the monodromy of the shifts.

    The product of the shift unitaries around the cycle acts on K_0^L;
    its spectral projections label the minimal central projections of F
    and each carries an induced channel on the right factor with the
    uniform mixture of the block states as unique invariant state.
    """
    d = cd.period
    T = cd.shift_unitaries
    nL = cd.left_dim
    r = cd.channel.dim
    tilde = [None] * d
    acc = T[0]
    tilde[d - 1] = T[0]
    for m in range(d - 2, -1, -1):
        acc = T[m + 1] @ acc
        tilde[m] = acc
    if d == 1:
        tilde = [T[0]]
    mono = tilde[0]

    w, V = np.linalg.eig(mono)
    clusters = cluster_values(w, gap=10 * tol.eq_tol)
    r_projections, left_bases, eigenvalues = [], [], []
    for cl in clusters:
        B = np.linalg.qr(V[:, cl])[0]
        left_bases.append(B)
        r_projections.append(B @ dagger(B))
        eigenvalues.append(complex(np.mean(w[cl])))

    right_total = sum(cd.right_dims)
    offsets = np.concatenate([[0], np.cumsum(cd.right_dims)]).astype(int)
    sigma_blocks = np.zeros((right_total, right_total), dtype=complex)
    for m in range(d):
        sigma_blocks[offsets[m]:offsets[m + 1],
                     offsets[m]:offsets[m + 1]] = cd.block_states[m] / d

    central, embeddings, psi_transfers = [], [], []
    F_central = atomic_structure(F, tol=tol).central_projections
    for j, (Rj, Bj) in enumerate(zip(r_projections, left_bases)):
        lj = Bj.shape[1]
        P = np.zeros((r, r), dtype=complex)
        for m in range(d):
            P += dagger(cd.isometries[m]) @ np.kron(
                tilde[m] @ Rj @ dagger(tilde[m]),
                np.eye(cd.right_dims[m])) @ cd.isometries[m]
        P = round_projector(P, tol=tol)
        hits = [Q for Q in F_central
                if spectral_norm(Q - P) <= 1e3 * tol.eq_tol]
        if len(hits) != 1:
            raise CenterMismatch(
                "assembled projection does not match a minimal central "
                "projection of the fixed points")
        central.append(P)

        G = np.zeros((r, lj * right_total), dtype=complex)
        for m in range(d):
            lifted = tilde[m] @ Bj            # nL x lj
            for pcol in range(lj):
                for s in range(cd.right_dims[m]):
                    e = np.zeros(cd.right_dims[m])
                    e[s] = 1
                    col = dagger(cd.isometries[m]) @ np.kron(lifted[:, pcol], e)
                    G[:, pcol * right_total + offsets[m] + s] = col
        embeddings.append(G)

        def psi(E, G=G, lj=lj):
            X = G @ np.kron(np.eye(lj), E) @ dagger(G)
            C = dagger(G) @ cd.channel.apply(X) @ G
            C4 = C.reshape(lj, right_total, lj, right_total)
            out = np.einsum("iris->rs", C4) / lj
            if np.linalg.norm(C4 - np.einsum("ij,rs->irjs", np.eye(lj),
                                             out)) > 1e3 * tol.eq_tol:
                raise CenterMismatch(
                    "restriction does not factor through the left block")
            return out
        psi_transfers.append(transfer_of(psi, right_total))

    return FixedBlockData(t_products=tuple(tilde),
                          r_projections=tuple(r_projections),
                          left_bases=tuple(left_bases),
                          eigenvalues=tuple(eigenvalues),
                          central_projections=tuple(central),
                          embeddings=tuple(embeddings),
                          psi_transfers=tuple(psi_transfers),
                          sigma=sigma_blocks, right_total=right_total)


# ---------------------------------------------------------------------------
# Fixed points of powers
# ---------------------------------------------------------------------------

def _restricted_power_transfer(c: ChannelSpec, Q: np.ndarray, d: int,
                               tol: Tolerances) -> np.ndarray:
    """Transfer of Phi^d compressed to the range of the projection Q."""
    R = range_isometry(Q, tol)
    Td = np.linalg.matrix_power(c.transfer, d)
    return transfer_of(
        lambda E: dagger(R) @ unvec(Td @ vec(R @ E @ dagger(R)), c.dim) @ R,
        R.shape[1])


def verify_power_fixed_points(c: ChannelSpec, report: CycleReport,
                              m_max: int,
                              tol: Tolerances = DEFAULT_TOL) -> PowerFixedPointTable:
    """Tabulate dim F(Phi^m) against the gcd rule for an irreducible
    channel of known period, and check the restrictions of Phi^d."""
    from chanstruct.structure import dfa

    d = report.period
    D = c.dim
    rows = []
    for m in range(1, m_max + 1):
        Tm = np.linalg.matrix_power(c.transfer, m)
        dim_f = kernel_basis(Tm - np.eye(D * D), tol=tol).dim
        coprime = math.gcd(m, d) == 1
        rows.append(PowerFixedPointRow(power=m, fixed_dim=dim_f,
                                       coprime=coprime,
                                       matches_gcd_rule=(dim_f == 1) == coprime))
    N = dfa(c, tol=tol)
    Td = np.linalg.matrix_power(c.transfer, d)
    Fd = kernel_basis(Td - np.eye(D * D), tol=tol)
    dist = subspace_distance(Fd, N.subspace)
    irreducible_flags, aperiodic_flags = [], []
    for Q in report.projections:
        Tq = _restricted_power_transfer(c, Q, d, tol)
        k2 = Tq.shape[0]
        fdim = kernel_basis(Tq - np.eye(k2), tol=tol).dim
        lam = np.linalg.eigvals(Tq)
        n_per = int(np.sum(np.abs(lam) > 1.0 - tol.peripheral_band))
        irreducible_flags.append(fdim == 1)
        aperiodic_flags.append(n_per == 1)
    return PowerFixedPointTable(rows=tuple(rows),
                                f_period_matches_dfa=dist <= 10 * tol.eq_tol,
                                f_period_distance=dist,
                                restrictions_irreducible=tuple(irreducible_flags),
                                restrictions_aperiodic=tuple(aperiodic_flags))
