"""Finite-dimensional von Neumann algebra engine.

Commutants, generated algebras, centers, atomic factor decompositions
(block form P_j H ~ H_L (x) H_R), and conditional expectations onto
subalgebras determined by one faithful block state per factor.
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
    hs_norm,
    range_isometry,
    reduce_span,
    round_projector,
    transfer_of,
    unvec,
    vec,
)


class NotAlgebra(ValueError):
    """Subspace fails closure under products at tolerance."""


class DegenerateRandomElement(RuntimeError):
    """Random spectral separation failed after the allowed redraws."""


class NotFaithful(ValueError):
    """A block state has an eigenvalue below rank_tol."""


@dataclass(frozen=True)
class OperatorAlgebra:
    """A *-closed unital subalgebra, stored as an HS-orthonormal basis."""

    subspace: MatrixSubspace
    contains_identity: bool = True
    star_closed: bool = True

    @property
    def ambient_dim(self) -> int:
        return self.subspace.ambient_dim

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def basis(self):
        return self.subspace.basis

    def closure_defect(self) -> float:
        """Largest residual of a basis product or adjoint outside the span."""
        worst = 0.0
        for a in self.basis:
            worst = max(worst, self.subspace.residual(dagger(a)))
            for b in self.basis:
                worst = max(worst, self.subspace.residual(a @ b))
        return worst

    @classmethod
    def from_span(cls, mats, dim=None, tol: Tolerances = DEFAULT_TOL,
                  check: bool = False) -> "OperatorAlgebra":
        sub = MatrixSubspace.from_span(mats, dim=dim, tol=tol)
        alg = cls(sub)
        if check and alg.closure_defect() > 10 * tol.eq_tol:
            raise NotAlgebra(f"closure defect {alg.closure_defect():.3e}")
        return alg


def full_algebra(dim: int) -> OperatorAlgebra:
    return OperatorAlgebra(MatrixSubspace(dim, np.eye(dim * dim)))


def restrict_to_commutant(sub: MatrixSubspace, ops,
                          tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Subspace of ``sub`` commuting with every operator in ``ops``."""
    return sub.restrict((lambda B, S=np.asarray(S, dtype=complex):
                         B @ S - S @ B for S in ops), tol)


def commutant(gens, dim=None, tol: Tolerances = DEFAULT_TOL) -> OperatorAlgebra:
    """{A : AS = SA, AS* = S*A for all generators S}; a unital *-algebra."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise DimensionMismatch(f"generator shape {g.shape} != {(dim, dim)}")
    ops = reduce_span(gens + [dagger(g) for g in gens], dim=dim, tol=tol)
    sub = restrict_to_commutant(full_algebra(dim).subspace, ops, tol=tol)
    return OperatorAlgebra(sub)


def generated_algebra(gens, dim=None, tol: Tolerances = DEFAULT_TOL,
                      max_rounds: int | None = None) -> OperatorAlgebra:
    """Smallest unital *-algebra containing the generators.

    Closes under products until the dimension stabilizes (word length
    <= dim^2 always suffices at finite dimension).
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    seed = [np.eye(dim, dtype=complex)] + gens + [dagger(g) for g in gens]
    basis = reduce_span(seed, dim=dim, tol=tol)
    rounds = max_rounds if max_rounds is not None else dim * dim
    for _ in range(rounds):
        prods = [a @ b for a in basis for b in basis]
        new = reduce_span(basis + prods, dim=dim, tol=tol)
        if len(new) == len(basis):
            basis = new
            break
        basis = new
    return OperatorAlgebra(MatrixSubspace(dim, tuple(basis)))


def center(alg: OperatorAlgebra, tol: Tolerances = DEFAULT_TOL) -> OperatorAlgebra:
    """alg intersected with its commutant (always abelian)."""
    sub = restrict_to_commutant(alg.subspace, list(alg.basis), tol=tol)
    return OperatorAlgebra(sub)


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


def atomic_structure(alg: OperatorAlgebra, tol: Tolerances = DEFAULT_TOL,
                     seed: int = 0, max_draws: int = 50) -> AlgebraStructure:
    """Minimal central projections and block factorizations of ``alg``.

    Central projections come from the spectral decomposition of a random
    Hermitian central element (redrawn until its eigenvalue clusters
    separate); within each block, minimal projections and matrix units
    built from a random Hermitian block element give the unitary U_j.
    """
    D = alg.ambient_dim
    defect = alg.closure_defect()
    if defect > 100 * tol.eq_tol:
        raise NotAlgebra(f"closure defect {defect:.3e}")
    rng = np.random.default_rng(seed)
    cen = center(alg, tol=tol)
    k = cen.dim

    projections = None
    for _ in range(max_draws):
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
            f"central element not separated after {max_draws} draws (seed {seed})")

    blocks = []
    for P in projections:
        W = range_isometry(P, tol)
        nblk = W.shape[1]
        comp = reduce_span([dagger(W) @ b @ W for b in alg.basis],
                           dim=nblk, tol=tol)
        r = len(comp)
        nL = int(round(np.sqrt(r)))
        if nL * nL != r:
            raise NotAlgebra(f"block algebra dimension {r} is not a square")
        if nblk % nL != 0:
            raise NotAlgebra(f"block size {nblk} not divisible by {nL}")
        nR = nblk // nL
        Ut = _factor_unitary(comp, nblk, nL, nR, rng, tol, max_draws)
        U = fix_global_phase(Ut @ dagger(W), tol)
        _check_factorization(U, comp, W, nL, nR, tol)
        blocks.append((P, U, nL, nR))

    def sort_key(blk):
        P = blk[0]
        d = np.round(np.real(np.diag(P)), 6)
        return (-int(round(np.real(np.trace(P)))), tuple(-d))

    blocks.sort(key=sort_key)
    return AlgebraStructure(
        ambient_dim=D,
        central_projections=tuple(b[0] for b in blocks),
        block_unitaries=tuple(b[1] for b in blocks),
        left_dims=tuple(b[2] for b in blocks),
        right_dims=tuple(b[3] for b in blocks),
    )


def _factor_unitary(comp, nblk, nL, nR, rng, tol, max_draws):
    """Unitary (nL*nR x nblk) conjugating a factor to B(C^nL) (x) I."""
    if nL == 1:
        # Algebra is scalars on the block; any orthonormal basis works.
        return np.eye(nblk, dtype=complex)
    for _ in range(max_draws):
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
        wE, VE = np.linalg.eigh(minimal[0])
        F = VE[:, wE > 0.5]                     # (nblk, nR) basis of E_1 range
        G = np.column_stack([isoms[i] @ F[:, r]
                             for i in range(nL) for r in range(nR)])
        # re-orthonormalize via polar decomposition
        u, s, vh = np.linalg.svd(G, full_matrices=False)
        if s.min() < 0.5:
            continue
        G = u @ vh
        return dagger(G)
    raise DegenerateRandomElement(
        f"factor separation failed after {max_draws} draws")


def _check_factorization(U, comp, W, nL, nR, tol):
    Ut = U @ W                                   # (nL*nR, nblk)
    for b in comp:
        X = Ut @ b @ dagger(Ut)
        X4 = X.reshape(nL, nR, nL, nR)
        a = np.einsum("irjr->ij", X4) / nR
        resid = np.linalg.norm(X4 - np.einsum("ij,rs->irjs", a, np.eye(nR)))
        if resid > 100 * tol.eq_tol * max(1.0, hs_norm(b)):
            raise NotAlgebra(f"factorization residual {resid:.3e}")


# ---------------------------------------------------------------------------
# Conditional expectations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalExpectation:
    """Idempotent unital CP projection with the module property.

    Determined by an atomic structure of its range plus one faithful
    state per block acting on the right tensor factor.
    """

    transfer: np.ndarray
    range_algebra: OperatorAlgebra
    structure: AlgebraStructure
    block_states: tuple

    @property
    def dim(self) -> int:
        return self.structure.ambient_dim

    def apply(self, X: np.ndarray) -> np.ndarray:
        return unvec(self.transfer @ vec(np.asarray(X, dtype=complex)), self.dim)


def _apply_block_expectation(structure: AlgebraStructure, states, X):
    D = structure.ambient_dim
    out = np.zeros((D, D), dtype=complex)
    for P, U, nL, nR, rho in zip(structure.central_projections,
                                 structure.block_unitaries,
                                 structure.left_dims, structure.right_dims,
                                 states):
        Y = U @ (P @ X @ P) @ dagger(U)
        Y4 = Y.reshape(nL, nR, nL, nR)
        a = np.einsum("irjs,sr->ij", Y4, rho)
        out += dagger(U) @ np.kron(a, np.eye(nR)) @ U
    return out


def expectation_onto(alg: OperatorAlgebra, states,
                     tol: Tolerances = DEFAULT_TOL, seed: int = 0,
                     structure: AlgebraStructure | None = None,
                     ) -> ConditionalExpectation:
    """Conditional expectation onto ``alg`` with the given block states.

    ``states`` lists one faithful density per block, ordered as in the
    atomic structure (computed here when not supplied).
    """
    if structure is None:
        structure = atomic_structure(alg, tol=tol, seed=seed)
    states = [np.asarray(r, dtype=complex) for r in states]
    if len(states) != structure.n_blocks:
        raise DimensionMismatch(
            f"{len(states)} states for {structure.n_blocks} blocks")
    for rho, nR in zip(states, structure.right_dims):
        if rho.shape != (nR, nR):
            raise DimensionMismatch(f"state shape {rho.shape} != {(nR, nR)}")
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
        if w.min() < tol.rank_tol:
            raise NotFaithful(f"block state eigenvalue {w.min():.3e}")
    transfer = transfer_of(
        lambda X: _apply_block_expectation(structure, states, X),
        structure.ambient_dim)
    return ConditionalExpectation(transfer=transfer, range_algebra=alg,
                                  structure=structure,
                                  block_states=tuple(states))


def extract_block_states(apply_fn, structure: AlgebraStructure,
                         tol: Tolerances = DEFAULT_TOL) -> tuple:
    """Read the defining block states off an expectation's action.

    ``apply_fn(X)`` evaluates the expectation; for each block the state
    entries come from E(U*(I (x) E_rs)U) = rho[s, r] P_j.
    """
    states = []
    for P, U, nL, nR in zip(structure.central_projections,
                            structure.block_unitaries,
                            structure.left_dims, structure.right_dims):
        rank = nL * nR
        rho = np.zeros((nR, nR), dtype=complex)
        for r in range(nR):
            for s in range(nR):
                B = np.zeros((nR, nR), dtype=complex)
                B[r, s] = 1.0
                X = dagger(U) @ np.kron(np.eye(nL), B) @ U
                rho[s, r] = np.trace(P @ apply_fn(X)) / rank
        rho = (rho + dagger(rho)) / 2
        rho = rho / np.real(np.trace(rho))
        states.append(rho)
    return tuple(states)


@dataclass(frozen=True)
class InvariantStateFamily:
    """Parametrization of all densities invariant under an expectation's
    preadjoint: convex sums over blocks of (left state) (x) (block state)."""

    structure: AlgebraStructure
    block_states: tuple

    def state(self, weights, left_states) -> np.ndarray:
        D = self.structure.ambient_dim
        out = np.zeros((D, D), dtype=complex)
        for lam, omega, U, rho in zip(weights, left_states,
                                      self.structure.block_unitaries,
                                      self.block_states):
            out += lam * dagger(U) @ np.kron(np.asarray(omega), rho) @ U
        return out


def expectation_invariant_states(E: ConditionalExpectation) -> InvariantStateFamily:
    return InvariantStateFamily(structure=E.structure,
                                block_states=E.block_states)
