"""Period and cyclic structure of channels.

Minimal components as orbits of the channel on the minimal central
projections of N (:func:`mfnc_decompose`).  Each orbit is handed over as
one :class:`Component` record: its period and cyclic projections, and the
tensor factorization into a unitary shift part and a chain of reduced
channels, read off the blocks of its Kraus operators as the orbit is
found.  :func:`structured_kraus` reassembles the Kraus operators from that
record, and :func:`fixed_multiblock` reads the fixed points off it as the
commutant of the monodromy carried around the cycle (Carbone-Jencova,
arXiv 1905.00857).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from chanstruct.algebra import (
    AlgebraStructure,
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
    kraus_transfer,
    range_isometry,
    round_projector,
    spectral_norm,
    subspace_distance,
)


class OrbitNotClosed(RuntimeError):
    """The channel does not permute the minimal central projections of N."""


class IsomorphismSolveFailed(RuntimeError):
    """The Kraus blocks of a component do not factor along its cycle."""


class ReconstructionMismatch(RuntimeError):
    """Structured Kraus operators fail to reproduce the channel."""


class CenterMismatch(RuntimeError):
    """The monodromy commutant carried around the cycle does not span the
    fixed points."""


@dataclass(frozen=True)
class Component:
    """One minimal component, in the coordinates of the isometry W onto
    the range of its projection Z_i, factored along its cycle.

    cyclic_projections are the blocks Q_m of N, numbered so that
    Phi(Q_m) = Q_{m-1}; S_m = U_j W are partial isometries onto
    K_m^L (x) K_m^R, T_m the shift unitaries K_m^L -> K_{m-1}^L,
    xi_kraus[m] the Kraus operators L_{m,k} of the reduced channel Xi_m:
    B(K_m^R) -> B(K_{m-1}^R), stacked as a (K, nR_m, nR_{m-1}) array with
    the same K for every m, and block_states[m] the state of E_N on
    K_m^R.
    """

    projection: np.ndarray       # Z_i in the ambient space
    channel: ChannelSpec         # restriction of the channel, r-dimensional
    cyclic_projections: tuple    # Q_m
    isometries: tuple            # S_m, each (nL*nR_m) x r
    left_dim: int
    right_dims: tuple
    shift_unitaries: tuple       # T_m
    xi_kraus: tuple              # per m: the stack of L_{m,k}
    block_states: tuple          # rho_m
    fixed_points: MatrixSubspace     # F_i = span of W* b W for b in F

    @property
    def period(self) -> int:
        return len(self.cyclic_projections)


@dataclass(frozen=True)
class FixedBlockData:
    """Fixed points of a periodic component as a direct sum of blocks.

    left_bases[j] spans the eigenspace of the monodromy for
    eigenvalues[j]; central_projections[j] is the matching minimal central
    projection of F; sigma, on the direct sum of the K_m^R (dimension
    right_total), is the uniform mixture of the block states.
    """

    left_bases: tuple
    eigenvalues: tuple
    central_projections: tuple
    sigma: np.ndarray
    right_total: int

    @property
    def n_blocks(self) -> int:
        return len(self.eigenvalues)


# ---------------------------------------------------------------------------
# MFNC decomposition
# ---------------------------------------------------------------------------

def _diag_sort_key(P: np.ndarray):
    return tuple(np.round(np.real(np.diag(P)), 6))


def mfnc_decompose(c: ChannelSpec, F: MatrixSubspace, st: AlgebraStructure,
                   s, tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Split the channel into its minimal components, returned as a tuple
    of factored :class:`Component`.

    ``F`` is the fixed-point algebra, ``st`` the atomic structure of the
    decoherence-free algebra N (:func:`algebra.atomic_structure`), ``s``
    the spectrum (:func:`structure.spectrum`), whose expectation E_N gives
    the block states.  The channel has a faithful invariant state, so F
    lies in N and Z(F) & Z(N) is the Phi-fixed part of Z(N).  Phi permutes
    the minimal central projections of N, and the minimal projections of
    Z(F) & Z(N) are the sums over its orbits.  Each orbit is one
    component, its projections numbered by Phi(Q_m) = Q_{m-1}.
    """
    states = extract_block_states(s.apply_expectation, st, tol=tol)
    atoms = st.central_projections
    image = []
    for P in atoms:
        PhiP = c.apply(P)
        hits = [k for k, Q in enumerate(atoms)
                if spectral_norm(PhiP - Q) <= tol.cycle_tol]
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
        S = tuple(st.block_unitaries[j] @ W for j in order)
        nLs = tuple(st.left_dims[j] for j in order)
        nRs = tuple(st.right_dims[j] for j in order)
        rho = tuple(states[j] for j in order)
        if len(set(nLs)) != 1:
            raise IsomorphismSolveFailed(
                f"left factors have unequal dimensions {nLs}")
        shifts, xi_kraus = _factor_kraus(c_i, S, nLs[0], nRs, rho, tol)
        F_i = MatrixSubspace.from_span(dagger(W) @ F.basis @ W,
                                       dim=W.shape[1], tol=tol)
        components.append(Component(
            projection=Zi, channel=c_i,
            cyclic_projections=tuple(local[k] for k in pos), isometries=S,
            left_dim=nLs[0], right_dims=nRs, shift_unitaries=shifts,
            xi_kraus=xi_kraus, block_states=rho, fixed_points=F_i))
    components.sort(key=lambda comp: block_order(comp.projection))
    return tuple(components)


def _factor_kraus(c_i: ChannelSpec, S, nL: int, nRs, rho,
                  tol: Tolerances) -> tuple:
    """Shift unitaries T_m and reduced Kraus stacks L_m of one component.

    Each Kraus operator of the component shifts the cyclic projections
    forward by one step, so it splits into blocks T_m* (x) L_{m,k}; the
    L blocks share the index k across m, which is what makes the
    reassembled Kraus operators reproduce the channel exactly.  The
    reduced channels must carry the block state rho_{m-1} to rho_m.
    """
    d = len(S)
    limit = tol.cycle_tol

    # split every Kraus operator along the cycle, all the blocks
    # B = S_m V S_{m-1}* of one step at once: realigned to rows (a, i) and
    # columns (k, r, s), T_m* (x) L_{m,k} is the rank-one
    # vec(T_m*) vec(L_m)^T, so T_m* is the polar factor of the top left
    # singular vector
    canonical = c_i.minimal_kraus(tol).kraus
    shift_unitaries, xi_kraus = [], []
    recomposed = np.zeros_like(canonical)
    for m in range(d):
        prev = (m - 1) % d
        B = S[m] @ canonical @ dagger(S[prev])
        B5 = B.reshape(-1, nL, nRs[m], nL, nRs[prev])
        u = np.linalg.svd(B5.transpose(1, 3, 0, 2, 4).reshape(nL * nL, -1),
                          full_matrices=False)[0][:, 0]
        W, _, Vh = np.linalg.svd(u.reshape(nL, nL))
        T = fix_global_phase(dagger(W @ Vh), tol=tol)
        L = np.einsum("ia,karis->krs", T, B5) / nL
        resid = B5 - np.einsum("ia,krs->karis", T.conj(), L)
        if np.any(np.linalg.norm(resid.reshape(len(L), -1), axis=1) > limit):
            raise IsomorphismSolveFailed(
                "a Kraus block is not of the form T* (x) L")
        shift_unitaries.append(T)
        xi_kraus.append(L)
        recomposed += dagger(S[m]) @ B @ S[prev]
    if np.any(np.linalg.norm(recomposed - canonical, 2, axis=(1, 2)) > limit):
        raise IsomorphismSolveFailed(
            "a Kraus operator has blocks outside the one-step shift")

    for m in range(d):
        prev = (m - 1) % d
        push = sum(L @ rho[prev] @ dagger(L) for L in xi_kraus[m])
        if hs_norm(push - rho[m]) > limit:
            raise IsomorphismSolveFailed(
                f"reduced channel does not carry rho_{prev} to rho_{m}")
    return tuple(shift_unitaries), tuple(xi_kraus)


def structured_kraus(comp: Component,
                     tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Reassemble the component channel from its factorized data,
    V_k = sum_m S_m* (T_m* (x) L_{m,k}) S_{m-1}, all k of a step in one
    einsum; return it with its residual, the spectral norm of the transfer
    difference: the split of the Kraus pair ([V1, V], [V1, -V]), V1 the
    rebuilt operators and V the component's."""
    nL, kraus = comp.left_dim, 0
    for m, (L, T) in enumerate(zip(comp.xi_kraus, comp.shift_unitaries)):
        B = np.einsum("ba,kij->kaibj", T.conj(), L).reshape(
            len(L), nL * L.shape[1], nL * L.shape[2])
        kraus = kraus + dagger(comp.isometries[m]) @ B @ comp.isometries[m - 1]
    rebuilt = from_kraus(kraus, tol=tol, label=f"{comp.channel.label}|rebuilt")
    V1, V = rebuilt.kraus, comp.channel.kraus
    err = blockwise_norm(kraus_transfer(np.concatenate([V1, V]),
                                        np.concatenate([V1, -V])))
    if err > tol.cycle_tol:
        raise ReconstructionMismatch(
            f"structured Kraus reconstruction error {err:.3e}")
    return rebuilt, err


# ---------------------------------------------------------------------------
# Fixed points of a periodic component
# ---------------------------------------------------------------------------

def fixed_multiblock(comp: Component,
                     tol: Tolerances = DEFAULT_TOL) -> FixedBlockData:
    """Fixed points of the component via the monodromy of the shifts.

    The product of the shift unitaries around the cycle acts on K_0^L and
    T~_m carries it to K_m^L.  The fixed points are its commutant carried
    around the cycle: with B_j an orthonormal basis of its j-th eigenspace,
    F is the span of the matrix units
    sum_m S_m* (T~_m B_j e_pq B_j* T~_m* (x) I) S_m over all j, p, q, and
    their sums over p = q are its minimal central projections.  The
    component's fixed points must equal that span within cycle_tol, or
    CenterMismatch is raised.  The eigenvalues are fixed only up to one
    common phase, so the blocks are listed by arg(lam_j conj(lam_ref)) in
    [0, 2 pi), an arg within derived_tol of 2 pi counting as 0; lam_ref
    belongs to the block whose central projection comes first by
    :func:`algebra.block_order`.
    """
    d = comp.period
    T = comp.shift_unitaries
    nL = comp.left_dim
    r = comp.channel.dim
    tilde = [None] * d
    acc = T[0]
    tilde[d - 1] = T[0]
    for m in range(d - 2, -1, -1):
        acc = T[m + 1] @ acc
        tilde[m] = acc

    w, V = np.linalg.eig(tilde[0])
    clusters = cluster_values(w, gap=tol.derived_tol)
    left_bases = [np.linalg.qr(V[:, cl])[0] for cl in clusters]
    eigenvalues = [complex(np.mean(w[cl])) for cl in clusters]

    units, central = [], []
    for Bj in left_bases:
        # the row H_m[p, s] = (T~_m B_j e_p (x) e_s)* S_m, so that
        # X[p, q] = sum_m,s H_m[p, s]* H_m[q, s]
        X = 0
        for m in range(d):
            S3 = comp.isometries[m].reshape(nL, comp.right_dims[m], r)
            H = np.einsum("ip,isy->psy", (tilde[m] @ Bj).conj(), S3)
            X = X + np.einsum("psx,qsy->pqxy", H.conj(), H)
        central.append(round_projector(np.einsum("ppxy->xy", X), tol=tol))
        units.append(X.reshape(-1, r, r))
    ref = eigenvalues[min(range(len(central)),
                          key=lambda j: block_order(central[j]))]
    arg = np.angle(np.array(eigenvalues) * np.conj(ref)) % (2 * np.pi)
    arg[arg > 2 * np.pi - tol.derived_tol] = 0.0
    order = np.argsort(arg, kind="stable")
    carried = MatrixSubspace.from_span(np.concatenate(units), dim=r, tol=tol)
    distance = subspace_distance(carried, comp.fixed_points)
    if distance > tol.cycle_tol:
        raise CenterMismatch(
            f"the monodromy commutant carried around the cycle is "
            f"{distance:.3e} from the fixed points")

    return FixedBlockData(
        left_bases=tuple(left_bases[j] for j in order),
        eigenvalues=tuple(eigenvalues[j] for j in order),
        central_projections=tuple(central[j] for j in order),
        sigma=scipy.linalg.block_diag(*comp.block_states) / d,
        right_total=sum(comp.right_dims))
