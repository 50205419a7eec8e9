"""Finite-dimensional von Neumann algebra engine.

Commutants, centers and atomic factor decompositions (block form
P_j H ~ H_L (x) H_R).  An algebra is a :class:`MatrixSubspace` that is
closed under adjoints and products; :func:`atomic_structure` checks the
closure and splits the algebra by its own elements, with no random draw.
Commutators are taken on the operators' live rows and columns only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    KERNEL_FOLD_ROWS,
    MatrixSubspace,
    Tolerances,
    dagger,
    fix_global_phase,
    gram_candidates,
    kron_blocks,
    span_basis,
    support_groups,
    take,
)


class NotAlgebra(RuntimeError):
    """Subspace fails closure under products at tolerance."""


def restrict_to_commutant(sub: MatrixSubspace, ops,
                          tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Subspace of ``sub`` commuting with every operator in ``ops``.  For S
    with live rows R and columns C, [B, S] is B[R, R] S[R, :] - S[R, C]
    B[C, :] on R and B[R', R] S[R, C] on the rest R'; the operators of one
    |R|, |C| fill fold blocks together, each used before the next."""
    D, every = sub.ambient_dim, np.arange(sub.ambient_dim)[None]
    ops = np.asarray(ops, dtype=complex).reshape(-1, D, D)

    def constraints():
        for V, R, C in support_groups(
                ops, ops.any(axis=2), ops.any(axis=1),
                lambda r, c: KERNEL_FOLD_ROWS // (r * D + (D - r) * c)):
            S = V if C.shape[1] == D else V @ (C[:, :, None] == every)
            yield lambda B: take(B, R, R) @ S - V @ take(B, C, every)
            if R.shape[1] < D:
                other = (every != R[:, :, None]).all(axis=1).nonzero()[1]
                yield lambda B: take(B, other.reshape(len(R), -1), R) @ V
    return sub.restrict(constraints(), tol)


def commutator_gram(gens, dim: int) -> list:
    """The split of the Gram matrix G of the commutators with ``gens`` and
    their adjoints W: <vec A, G vec A> = sum_W ||[A, W]||^2 for any
    generators, with G = H + H* with H = (S^T (x) I + I (x) S) / 2 - 2 X,
    S = sum_W W* W, the Gram matrix of the live rows of the g and the g*,
    and X = sum_g conj(g) (x) g the transfer matrix of A -> sum_g g A g*;
    H is split by :func:`numerics.kron_blocks`."""
    g = np.asarray(gens, dtype=complex).reshape(-1, dim, dim)
    G, Gt = g[g.any(axis=2)], np.swapaxes(g, 1, 2)[g.any(axis=1)]
    S, eye = dagger(G) @ G + Gt.T @ Gt.conj(), np.eye(dim)[None]
    H = kron_blocks(np.concatenate([S.T[None] / 2, eye / 2, -2 * g.conj()]),
                    np.concatenate([eye, S[None], g]))
    return [(idx, B + dagger(B)) for idx, B in H]


def commutant(gens, dim=None, tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """{A : AS = SA, AS* = S*A for all generators S}; a unital *-algebra:
    the candidates of :func:`commutator_gram`'s Gram matrix restricted by
    the exact commutators."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise DimensionMismatch(f"generator shape {g.shape} != {(dim, dim)}")
    g = np.reshape(gens, (-1, dim, dim))
    candidates = gram_candidates(commutator_gram(g, dim))
    return restrict_to_commutant(candidates, np.concatenate([g, dagger(g)]),
                                 tol)


def center(alg: MatrixSubspace,
           tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """alg intersected with its commutant (always abelian)."""
    return restrict_to_commutant(alg, alg.basis, tol=tol)


@dataclass(frozen=True)
class AlgebraStructure:
    """Atomic decomposition of a unital *-algebra.

    central_projections: minimal central projections P_j (D x D, exact).
    block_unitaries: U_j as (left*right x D) matrices mapping P_j H onto
        C^left (x) C^right so the algebra becomes B(C^left) (x) I.
    """

    ambient_dim: int
    central_projections: tuple
    block_unitaries: tuple
    left_dims: tuple
    right_dims: tuple

    @property
    def n_blocks(self) -> int:
        return len(self.central_projections)


def block_order(P: np.ndarray):
    """Sort key of a projection: larger rank first, then by its diagonal."""
    d = np.round(np.real(np.diag(P)), 6)
    return (-int(round(np.real(np.trace(P)))), tuple(-d))


def _minimal_ranges(basis, W0: np.ndarray, tol: Tolerances) -> list:
    """Isometries onto the minimal ranges inside range(W0) of the algebra
    spanned by the stack ``basis``, split by its own elements.

    A range W is minimal when the compressed algebra span(W* B W) is one-
    dimensional.  Otherwise W splits in two at the widest gap between the
    eigenvalues w of the largest in HS norm of the parts b + b* and
    i(b - b*) of the compressed basis, traces removed, and each part is
    compressed and split again.  For a k-dimensional compression their
    squared norms add up to at least 4(k - 1), so the element picked has
    norm at least 1; should its widest gap be at most
    derived_tol * max(1, |w|), NotAlgebra is raised.
    """
    comp = span_basis(dagger(W0) @ basis @ W0, tol)
    if len(comp) <= 1:
        return [W0]
    n = W0.shape[1]
    parts = np.concatenate([comp + dagger(comp), 1j * (comp - dagger(comp))])
    parts -= np.trace(parts, axis1=1, axis2=2)[:, None, None] * np.eye(n) / n
    w, V = np.linalg.eigh(
        parts[np.argmax(np.linalg.norm(parts, axis=(1, 2)))])
    cut = int(np.argmax(np.diff(w))) + 1
    if w[cut] - w[cut - 1] <= tol.derived_tol * max(1.0, np.abs(w).max()):
        raise NotAlgebra("a non-scalar element has one eigenvalue cluster")
    return [W for part in (V[:, :cut], V[:, cut:])
            for W in _minimal_ranges(basis, W0 @ part, tol)]


def atomic_structure(alg: MatrixSubspace,
                     tol: Tolerances = DEFAULT_TOL) -> AlgebraStructure:
    """Minimal central projections and block factorizations of ``alg``,
    split by its own elements (:func:`_minimal_ranges`), with no random
    draw.

    The minimal ranges of the center are the ranges of the minimal central
    projections P_j = W_j W_j*.  In each block, the minimal ranges E_a of
    the compressed algebra are its nL minimal projections, each of rank nR;
    the compression E_a* comp E_1 spans one matrix unit x_a from E_1 to
    E_a, and U_j is the polar factor of [E_a x_a]_a, carried back by W_j*.
    NotAlgebra is raised when ``alg`` is not closed, or when the ranges do
    not make the blocks of a direct sum of factors M_nL (x) I_nR.
    """
    D = alg.ambient_dim
    defect = max(alg.closure_defects())
    if defect > tol.check_tol:
        raise NotAlgebra(f"closure defect {defect:.3e}")
    cen = center(alg, tol=tol)
    ranges = _minimal_ranges(cen.basis, np.eye(D), tol)
    if len(ranges) != cen.dim:
        raise NotAlgebra(f"{len(ranges)} minimal central ranges for a "
                         f"center of dimension {cen.dim}")

    blocks = []
    for W in ranges:
        nblk = W.shape[1]
        comp = span_basis(dagger(W) @ alg.basis @ W, tol)
        E = _minimal_ranges(comp, np.eye(nblk), tol)
        nL, nR = len(E), nblk // len(E)
        if len(comp) != nL * nL or any(Ea.shape[1] != nR for Ea in E):
            raise NotAlgebra(f"block algebra of dimension {len(comp)} with "
                             f"minimal ranges {[Ea.shape[1] for Ea in E]}")
        units = []
        for Ea in E:
            x = span_basis(dagger(Ea) @ comp @ E[0], tol)
            if len(x) != 1:
                raise NotAlgebra(f"{len(x)} matrix units between two "
                                 "minimal projections")
            units.append(Ea @ x[0])
        u, _, vh = np.linalg.svd(np.hstack(units), full_matrices=False)
        U = fix_global_phase(dagger(u @ vh) @ dagger(W), tol)
        _check_factorization(U, comp, W, nL, nR, tol)
        blocks.append((W @ dagger(W), U, nL, nR))

    blocks.sort(key=lambda blk: block_order(blk[0]))
    return AlgebraStructure(
        ambient_dim=D,
        central_projections=tuple(b[0] for b in blocks),
        block_unitaries=tuple(b[1] for b in blocks),
        left_dims=tuple(b[2] for b in blocks),
        right_dims=tuple(b[3] for b in blocks),
    )


def _check_factorization(U, comp, W, nL, nR, tol):
    """Every element of the stack ``comp``, carried by U W, must be
    a (x) I within check_tol * max(1, ||b||)."""
    Ut = U @ W                                   # (nL*nR, nblk)
    X5 = (Ut @ comp @ dagger(Ut)).reshape(-1, nL, nR, nL, nR)
    a = np.einsum("kirjr->kij", X5) / nR
    resid = np.linalg.norm(
        (X5 - np.einsum("kij,rs->kirjs", a, np.eye(nR))).reshape(len(X5), -1),
        axis=1)
    bound = tol.check_tol * np.maximum(1.0, np.linalg.norm(comp, axis=(1, 2)))
    if np.any(resid > bound):
        raise NotAlgebra(f"factorization residual {resid.max():.3e}")

