"""Period and cyclic structure of channels.

Minimal components as orbits of the channel on the minimal central
projections of N, with their periods and cyclic projections, the tensor
factorization of each component into a unitary shift part and a chain of
reduced channels, structured Kraus forms and the resulting multiblock
description of the fixed points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chanstruct.algebra import (
    AlgebraStructure,
    OperatorAlgebra,
    atomic_structure,
    block_order,
    extract_block_states,
)
from chanstruct.channel import ChannelSpec, from_kraus
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    blockwise_norm,
    cluster_values,
    dagger,
    fix_global_phase,
    hs_norm,
    range_isometry,
    round_projector,
    spectral_norm,
    transfer_of,
)


class OrbitNotClosed(RuntimeError):
    """The channel does not permute the minimal central projections of N."""


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


@dataclass(frozen=True)
class MfncComponent:
    """One minimal component, with the channel and the blocks of N and F
    compressed to it by its embedding W."""

    projection: np.ndarray       # Z_i in the ambient space
    embedding: np.ndarray        # D x r isometry W onto the range of Z_i
    channel: ChannelSpec         # restriction of the channel, r-dimensional
    cycle: CycleReport           # in component coordinates
    blocks: AlgebraStructure     # N's blocks Q_m, in cyclic order, as U_j W
    block_states: tuple          # states of E_N on those blocks
    fixed_points: OperatorAlgebra    # F_i = span of W* b W for b in F


@dataclass(frozen=True)
class MfncDecomposition:
    z_projections: tuple
    components: tuple


@dataclass(frozen=True)
class ComponentData:
    """Tensor factorization of one component.

    S_m are partial isometries onto K_m^L (x) K_m^R, T_m the shift
    unitaries K_m^L -> K_{m-1}^L, xi_kraus[m] the Kraus operators L_{m,k}
    of the reduced channel Xi_m: B(K_m^R) -> B(K_{m-1}^R), stacked as a
    (K, nR_m, nR_{m-1}) array with the same K for every m, and rho[m] the
    block state on K_m^R.
    """

    channel: ChannelSpec
    cycle: CycleReport
    isometries: tuple            # S_m, each (nL*nR_m) x r
    left_dim: int
    right_dims: tuple
    shift_unitaries: tuple       # T_m
    xi_kraus: tuple              # per m: the stack of L_{m,k}
    block_states: tuple          # rho_m

    @property
    def period(self) -> int:
        return self.cycle.period


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


# ---------------------------------------------------------------------------
# MFNC decomposition
# ---------------------------------------------------------------------------

def _diag_sort_key(P: np.ndarray):
    return tuple(np.round(np.real(np.diag(P)), 6))


def mfnc_decompose(c: ChannelSpec, F: OperatorAlgebra, st: AlgebraStructure,
                   p, tol: Tolerances = DEFAULT_TOL) -> MfncDecomposition:
    """Split the channel into its minimal components.

    ``F`` is the fixed-point algebra, ``st`` the atomic structure of the
    decoherence-free algebra N (:func:`algebra.atomic_structure`), ``p``
    the peripheral data (:func:`structure.peripheral_subalgebra`), whose
    expectation E_N gives the block states.  The channel has a faithful
    invariant state, so F lies in N and Z(F) & Z(N) is the Phi-fixed part
    of Z(N).  Phi permutes the minimal central projections of N, and the
    minimal projections of Z(F) & Z(N) are the sums over its orbits.  Each
    orbit is one component, its projections numbered by Phi(Q_m) =
    Q_{m-1}.
    """
    states = extract_block_states(p.apply_expectation, st, tol=tol)
    atoms = st.central_projections
    image = []
    for P in atoms:
        PhiP = c.apply(P)
        hits = [k for k, Q in enumerate(atoms)
                if spectral_norm(PhiP - Q) <= 1e3 * tol.eq_tol]
        if len(hits) != 1:
            raise OrbitNotClosed(
                f"image of a minimal central projection matched "
                f"{len(hits)} candidates")
        image.append(hits[0])
    if sorted(image) != list(range(len(atoms))):
        raise OrbitNotClosed("two minimal central projections share an image")

    components, seen = [], set()
    for start in range(len(atoms)):
        if start in seen:
            continue
        orbit = [start]
        while image[orbit[-1]] != start:
            orbit.append(image[orbit[-1]])
        seen.update(orbit)
        Zi = sum(atoms[j] for j in orbit)
        W = range_isometry(Zi, tol)
        c_i = from_kraus(dagger(W) @ c.kraus @ W, tol=tol,
                         label=f"{c.label}|component")
        local = [dagger(W) @ atoms[j] @ W for j in orbit]
        d = len(orbit)
        anchor = min(range(d), key=lambda k: _diag_sort_key(local[k]))
        # Phi walks forward along the orbit and back along the numbering
        pos = [(anchor - m) % d for m in range(d)]
        order = [orbit[k] for k in pos]
        Qs = tuple(local[k] for k in pos)
        cycle = CycleReport(period=d, projections=Qs)
        blocks = AlgebraStructure(
            ambient_dim=W.shape[1], central_projections=Qs,
            block_unitaries=tuple(st.block_unitaries[j] @ W for j in order),
            left_dims=tuple(st.left_dims[j] for j in order),
            right_dims=tuple(st.right_dims[j] for j in order))
        F_i = OperatorAlgebra(MatrixSubspace.from_span(
            dagger(W) @ F.basis @ W, dim=W.shape[1], tol=tol))
        components.append(MfncComponent(
            projection=Zi, embedding=W, channel=c_i, cycle=cycle,
            blocks=blocks, block_states=tuple(states[j] for j in order),
            fixed_points=F_i))
    components.sort(key=lambda comp: block_order(comp.projection))
    return MfncDecomposition(
        z_projections=tuple(comp.projection for comp in components),
        components=tuple(components))


# ---------------------------------------------------------------------------
# Component factorization
# ---------------------------------------------------------------------------

def _solve_conjugation_unitary(G, nL, tol):
    """Recover unitary T from the map E_ab -> T E_ab T*, given as the stack
    of the images of the units in the order a * nL + b."""
    # K[c, a, d, b] = G[a * nL + b][c, d]
    K = G.reshape((nL,) * 4).transpose(2, 0, 3, 1).reshape(nL * nL, nL * nL)
    w, V = np.linalg.eigh((K + dagger(K)) / 2)
    T = (V[:, -1] * np.sqrt(max(w[-1], 0.0))).reshape(nL, nL)
    W, _, Vh = np.linalg.svd(T)
    T = fix_global_phase(W @ Vh, tol=tol)
    images = np.einsum("ca,db->abcd", T, T.conj()).reshape(G.shape)
    worst = np.linalg.norm(G - images, 2, axis=(1, 2)).max()
    if worst > 1e3 * tol.eq_tol:
        raise IsomorphismSolveFailed(
            f"shift-unitary solve residual {worst:.3e}")
    return T


def component_decompose(comp: MfncComponent,
                        tol: Tolerances = DEFAULT_TOL) -> ComponentData:
    """Factor one component into shift unitaries and reduced channels.

    Each Kraus operator of the component shifts the cyclic projections
    forward by one step, so it splits into blocks T_m* (x) L_{m,k}; the
    L blocks share the index k across m, which is what makes the
    reassembled Kraus operators reproduce the channel exactly.  The blocks
    S_m and the block states rho_m are the component's, in cyclic order.
    """
    c_i = comp.channel
    cycle = comp.cycle
    d = cycle.period
    S = comp.blocks.block_unitaries
    nLs = comp.blocks.left_dims
    nRs = comp.blocks.right_dims
    if len(set(nLs)) != 1:
        raise IsomorphismSolveFailed(
            f"left factors have unequal dimensions {nLs}")
    nL, r = nLs[0], c_i.dim
    rho = comp.block_states
    limit = 1e3 * tol.eq_tol

    # left part: E_ab -> T_m E_ab T_m*, probed on the stack of the nL^2
    # units S_m* (E_ab (x) I) S_m, in the order a * nL + b
    shift_unitaries = []
    for m in range(d):
        prev = (m - 1) % d
        Sm3 = S[m].reshape(nL, nRs[m], -1)
        X = np.einsum("arx,bry->abxy", Sm3.conj(), Sm3).reshape(
            nL * nL, r, r)
        C5 = (S[prev] @ c_i.apply(X) @ dagger(S[prev])).reshape(
            -1, nL, nRs[prev], nL, nRs[prev])
        G = np.einsum("nirjr->nij", C5) / nRs[prev]
        resid = C5 - np.einsum("nij,rs->nirjs", G, np.eye(nRs[prev]))
        if np.any(np.linalg.norm(resid.reshape(len(G), -1), axis=1) > limit):
            raise IsomorphismSolveFailed(
                "left action is not of the form T E T* (x) I")
        shift_unitaries.append(_solve_conjugation_unitary(G, nL, tol))

    # right part: split every Kraus operator along the cycle, all the
    # blocks B = S_m V S_{m-1}* of one step at once
    canonical = c_i.minimal_kraus().kraus
    xi_kraus, recomposed = [], np.zeros_like(canonical)
    for m in range(d):
        prev = (m - 1) % d
        T = shift_unitaries[m]
        B = S[m] @ canonical @ dagger(S[prev])
        B5 = B.reshape(-1, nL, nRs[m], nL, nRs[prev])
        L = np.einsum("ia,karis->krs", T, B5) / nL
        resid = B5 - np.einsum("ia,krs->karis", T.conj(), L)
        if np.any(np.linalg.norm(resid.reshape(len(L), -1), axis=1) > limit):
            raise IsomorphismSolveFailed(
                "a Kraus block is not of the form T* (x) L")
        xi_kraus.append(L)
        recomposed += dagger(S[m]) @ B @ S[prev]
    if np.any(np.linalg.norm(recomposed - canonical, 2, axis=(1, 2)) > limit):
        raise IsomorphismSolveFailed(
            "a Kraus operator has blocks outside the one-step shift")

    cd = ComponentData(channel=c_i, cycle=cycle, isometries=S,
                       left_dim=nL, right_dims=nRs,
                       shift_unitaries=tuple(shift_unitaries),
                       xi_kraus=tuple(xi_kraus), block_states=rho)
    for m in range(d):
        prev = (m - 1) % d
        push = sum(L @ rho[prev] @ dagger(L) for L in cd.xi_kraus[m])
        if hs_norm(push - rho[m]) > 1e3 * tol.eq_tol:
            raise IsomorphismSolveFailed(
                f"reduced channel does not carry rho_{prev} to rho_{m}")
    return cd


def structured_kraus(cd: ComponentData,
                     tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Reassemble the component channel from its factorized data,
    V_k = sum_m S_m* (T_m* (x) L_{m,k}) S_{m-1}, all k of a step in one
    einsum; return it with its residual, the spectral norm of the transfer
    difference."""
    nL, kraus = cd.left_dim, 0
    for m, (L, T) in enumerate(zip(cd.xi_kraus, cd.shift_unitaries)):
        B = np.einsum("ba,kij->kaibj", T.conj(), L).reshape(
            len(L), nL * L.shape[1], nL * L.shape[2])
        kraus = kraus + dagger(cd.isometries[m]) @ B @ cd.isometries[m - 1]
    rebuilt = from_kraus(kraus, tol=tol, label=f"{cd.channel.label}|rebuilt")
    err = blockwise_norm(rebuilt.transfer - cd.channel.transfer)
    if err > 1e3 * tol.eq_tol:
        raise ReconstructionMismatch(
            f"structured Kraus reconstruction error {err:.3e}")
    return rebuilt, err


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

        # column p * right_total + offsets[m] + s is S_m* (T~_m B_j e_p (x) e_s)
        G3 = np.zeros((r, lj, right_total), dtype=complex)
        for m in range(d):
            G3[:, :, offsets[m]:offsets[m + 1]] = np.einsum(
                "xis,ip->xps",
                dagger(cd.isometries[m]).reshape(r, nL, cd.right_dims[m]),
                tilde[m] @ Bj)
        G = G3.reshape(r, lj * right_total)
        embeddings.append(G)

        def psi(E, G=G, G3=G3, lj=lj):
            # G (I (x) E) G* = sum_i G_i E G_i*, G_i = G[:, i-th block]
            X = sum(g @ E @ dagger(g) for g in G3.transpose(1, 0, 2))
            C5 = (dagger(G) @ cd.channel.apply(X) @ G).reshape(
                -1, lj, right_total, lj, right_total)
            out = np.einsum("niris->nrs", C5) / lj
            resid = C5 - np.einsum("ij,nrs->nirjs", np.eye(lj), out)
            if np.linalg.norm(resid.reshape(len(out), -1), axis=1).max() \
                    > 1e3 * tol.eq_tol:
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
