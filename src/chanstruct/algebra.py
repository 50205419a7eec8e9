"""Finite-dimensional von Neumann algebra engine.

Commutants, generated algebras, centers, atomic factor decompositions
(block form P_j H ~ H_L (x) H_R), and the block states that an
expectation onto such an algebra leaves on the right factors.  An
algebra is a :class:`MatrixSubspace` that is closed under adjoints and
products; :func:`atomic_structure` checks the closure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    MatrixSubspace,
    Tolerances,
    dagger,
    fix_global_phase,
    gram_kernel,
    range_isometry,
    round_projector,
    span_basis,
)


class NotAlgebra(RuntimeError):
    """Subspace fails closure under products at tolerance."""


class DegenerateRandomElement(RuntimeError):
    """Random spectral separation failed after the allowed redraws."""


def restrict_to_commutant(sub: MatrixSubspace, ops,
                          tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Subspace of ``sub`` commuting with every operator in ``ops``."""
    return sub.restrict((lambda B, S=np.asarray(S, dtype=complex):
                         B @ S - S @ B for S in ops), tol)


def commutator_gram(gens, dim: int):
    """(G, constraint) of the commutators with ``gens`` and their adjoints
    W: <vec A, G vec A> = sum_W ||[A, W]||^2 for any generators, with
    G = S^T (x) I + I (x) S - 2 (X + X*), S = sum_W W* W and X the
    transfer matrix of A -> sum_g g A g*."""
    g = np.asarray(gens, dtype=complex).reshape(-1, dim, dim)
    W = np.concatenate([g, g.conj().transpose(0, 2, 1)])
    S, eye = np.einsum("kba,kbc->ac", W.conj(), W), np.eye(dim)
    X = np.tensordot(g.conj(), g, (0, 0)).transpose(0, 2, 1, 3) \
        .reshape(dim * dim, dim * dim)
    G = np.kron(S.T, eye) + np.kron(eye, S) - 2 * (X + dagger(X))
    return G, lambda B: B[:, None] @ W - W @ B[:, None]


def commutant(gens, dim=None, tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """{A : AS = SA, AS* = S*A for all generators S}; a unital *-algebra:
    the Gram kernel of :func:`commutator_gram`."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise DimensionMismatch(f"generator shape {g.shape} != {(dim, dim)}")
    return gram_kernel(*commutator_gram(gens, dim), tol)


def generated_algebra(gens, dim=None,
                      tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Smallest unital *-algebra containing the generators.

    Closes under products until the dimension stabilizes (word length
    <= dim^2 always suffices at finite dimension).
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    basis = span_basis([np.eye(dim), *gens, *(dagger(g) for g in gens)], tol)
    for _ in range(dim * dim):
        prods = (basis[:, None] @ basis).reshape(-1, dim, dim)
        new = span_basis(np.concatenate([basis, prods]), tol)
        stable, basis = len(new) == len(basis), new
        if stable:
            break
    return MatrixSubspace(dim, basis)


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


def _random_combo(basis, rng) -> np.ndarray:
    """Complex Gaussian combination of the stacked basis (zero if empty)."""
    z = rng.standard_normal((len(basis), 2)) @ [1, 1j]
    return np.tensordot(z, np.asarray(basis), 1)


def _random_hermitian_combo(basis, rng) -> np.ndarray:
    c = _random_combo(basis, rng)
    return c + dagger(c)


def _cluster_real(values: np.ndarray, gap: float) -> list[list[int]]:
    order = np.argsort(values)
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[clusters[-1][-1]] <= gap:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return clusters


def block_order(P: np.ndarray):
    """Sort key of a projection: larger rank first, then by its diagonal."""
    d = np.round(np.real(np.diag(P)), 6)
    return (-int(round(np.real(np.trace(P)))), tuple(-d))


MAX_DRAWS = 50
"""Random elements drawn in :func:`atomic_structure` before it gives up on
separating the central or the block spectrum."""


def atomic_structure(alg: MatrixSubspace, tol: Tolerances = DEFAULT_TOL,
                     seed: int = 0) -> AlgebraStructure:
    """Minimal central projections and block factorizations of ``alg``.

    Central projections come from the spectral decomposition of a random
    Hermitian central element (redrawn until its eigenvalue clusters
    separate); within each block, minimal projections and matrix units
    built from a random Hermitian block element give the unitary U_j.
    """
    D = alg.ambient_dim
    defect = max(alg.closure_defects())
    if defect > 100 * tol.eq_tol:
        raise NotAlgebra(f"closure defect {defect:.3e}")
    rng = np.random.default_rng(seed)
    cen = center(alg, tol=tol)
    k = cen.dim

    projections = None
    for _ in range(MAX_DRAWS):
        h = _random_hermitian_combo(cen.basis, rng)
        w, V = np.linalg.eigh(h)
        gap = 10 * tol.eq_tol * max(1.0, float(np.max(np.abs(w))))
        clusters = _cluster_real(w, gap)
        if len(clusters) != k:
            continue
        if k > 1 and min(abs(w[c1[0]] - w[c2[-1]]) for c1 in clusters
                         for c2 in clusters if c1 is not c2) <= gap:
            continue
        projections = []
        for cl in clusters:
            cols = V[:, cl]
            projections.append(round_projector(cols @ dagger(cols), tol))
        break
    if projections is None:
        raise DegenerateRandomElement(
            f"central element not separated after {MAX_DRAWS} draws (seed {seed})")

    blocks = []
    for P in projections:
        W = range_isometry(P, tol)
        nblk = W.shape[1]
        comp = span_basis(dagger(W) @ alg.basis @ W, tol)
        r = len(comp)
        nL = int(round(np.sqrt(r)))
        if nL * nL != r:
            raise NotAlgebra(f"block algebra dimension {r} is not a square")
        if nblk % nL != 0:
            raise NotAlgebra(f"block size {nblk} not divisible by {nL}")
        nR = nblk // nL
        Ut = _factor_unitary(comp, nblk, nL, nR, rng, tol)
        U = fix_global_phase(Ut @ dagger(W), tol)
        _check_factorization(U, comp, W, nL, nR, tol)
        blocks.append((P, U, nL, nR))

    blocks.sort(key=lambda blk: block_order(blk[0]))
    return AlgebraStructure(
        ambient_dim=D,
        central_projections=tuple(b[0] for b in blocks),
        block_unitaries=tuple(b[1] for b in blocks),
        left_dims=tuple(b[2] for b in blocks),
        right_dims=tuple(b[3] for b in blocks),
    )


def _factor_unitary(comp, nblk, nL, nR, rng, tol):
    """Unitary (nL*nR x nblk) conjugating a factor to B(C^nL) (x) I."""
    if nL == 1:
        # Algebra is scalars on the block; any orthonormal basis works.
        return np.eye(nblk, dtype=complex)
    for _ in range(MAX_DRAWS):
        h = _random_hermitian_combo(comp, rng)
        w, V = np.linalg.eigh(h)
        gap = 10 * tol.eq_tol * max(1.0, float(np.max(np.abs(w))))
        clusters = _cluster_real(w, gap)
        if len(clusters) != nL or any(len(c) != nR for c in clusters):
            continue
        minimal = [round_projector(V[:, cl] @ dagger(V[:, cl]), tol)
                   for cl in clusters]
        c_rand = _random_combo(comp, rng)
        isoms = [minimal[0]]
        ok = True
        for E in minimal[1:]:
            x = E @ c_rand @ minimal[0]
            scale = np.sqrt(max(np.real(np.trace(dagger(x) @ x)), 0.0) / nR)
            if scale <= tol.rank_tol:
                ok = False
                break
            v = x / scale
            # polar correction keeps v a partial isometry E -> minimal[0]
            g = dagger(v) @ v
            wg, Vg = np.linalg.eigh(g)
            inv_sqrt = np.zeros_like(wg)
            pos = wg > tol.rank_tol
            inv_sqrt[pos] = 1.0 / np.sqrt(wg[pos])
            v = v @ (Vg * inv_sqrt) @ dagger(Vg)
            isoms.append(v)
        if not ok:
            continue
        F = range_isometry(minimal[0], tol)     # (nblk, nR) basis of E_1 range
        G = np.column_stack([isoms[i] @ F[:, r]
                             for i in range(nL) for r in range(nR)])
        # re-orthonormalize via polar decomposition
        u, s, vh = np.linalg.svd(G, full_matrices=False)
        if s.min() < 0.5:
            continue
        G = u @ vh
        return dagger(G)
    raise DegenerateRandomElement(
        f"factor separation failed after {MAX_DRAWS} draws")


def _check_factorization(U, comp, W, nL, nR, tol):
    """Every element of the stack ``comp``, carried by U W, must be
    a (x) I within 100 * eq_tol * max(1, ||b||)."""
    Ut = U @ W                                   # (nL*nR, nblk)
    X5 = (Ut @ comp @ dagger(Ut)).reshape(-1, nL, nR, nL, nR)
    a = np.einsum("kirjr->kij", X5) / nR
    resid = np.linalg.norm(
        (X5 - np.einsum("kij,rs->kirjs", a, np.eye(nR))).reshape(len(X5), -1),
        axis=1)
    bound = 100 * tol.eq_tol * np.maximum(1.0, np.linalg.norm(comp, axis=(1, 2)))
    if np.any(resid > bound):
        raise NotAlgebra(f"factorization residual {resid.max():.3e}")


def extract_block_states(apply_fn, structure: AlgebraStructure,
                         tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Read the defining block states off an expectation's action.

    ``apply_fn`` evaluates the expectation on a stack of matrices; for each
    block it gets the nR^2 matrices U*(I (x) E_rs)U at once, and the state
    entries come from E(U*(I (x) E_rs)U) = rho[s, r] P_j.
    """
    states = []
    for P, U, nL, nR in zip(structure.central_projections,
                            structure.block_unitaries,
                            structure.left_dims, structure.right_dims):
        U3 = U.reshape(nL, nR, -1)
        X = np.einsum("irx,isy->rsxy", U3.conj(), U3).reshape(
            nR * nR, *P.shape)
        rho = np.einsum("xy,nyx->n", P, apply_fn(X)).reshape(nR, nR).T \
            / (nL * nR)
        rho = (rho + dagger(rho)) / 2
        rho = rho / np.real(np.trace(rho))
        states.append(rho)
    return tuple(states)
