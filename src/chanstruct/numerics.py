"""Tolerance policy and shared linear-algebra primitives.

Conventions pinned here and used by every other module:

* Vectorization is column-stacking: ``vec(X) = X.flatten(order="F")``,
  so that ``vec(M X N) = kron(N.T, M) vec(X)``.
* The matrix space carries the Hilbert-Schmidt inner product
  ``<A, B> = trace(A* B)``, under which vec() is an isometry.
* All equality decisions are relative spectral-norm tests against a
  level of ``Tolerances``, each a fixed multiple of ``eq_tol``.
* Every kernel (commutants, centers, M, N, the walk oracles) is decided
  by one SVD of the folded constraint matrix in
  :func:`kernel_coefficients`: singular values sigma <= rank_tol *
  max(sigma_max, 1) span the kernel.  :func:`gram_kernel` first keeps the
  eigenvectors of a Gram matrix with lambda <= GRAM_CANDIDATE_CUTOFF *
  max(lambda_max, 1); only the exact constraint on them decides.  Spans
  keep the rows of one SVD with sigma > rank_tol * max(sigma_max, 1)
  (:func:`span_basis`), the same rule, so a numerically zero stack spans
  nothing.  Subspaces are cut down by the kernel of
  constraints on their stacked basis (:meth:`MatrixSubspace.restrict`),
  and distances compare the bases (:func:`subspace_distance`), never
  forming D^2 x D^2 projectors.
* A D^2 x D^2 operator is held as its split, (index, stack) pairs: the
  (m, s) indices of m diagonal blocks of size s and their (m, s, s) stack,
  zero off the blocks.  A Kronecker sum sum_r A_r (x) B_r (a Gram or
  Choi matrix) is split along its terms' supports, never formed
  (:func:`kron_blocks`): exact, and one block is the same code.  A
  transfer matrix (T, its rho-weighted form, a difference of channels) is
  the split of its Kraus pair (:func:`kraus_transfer`).  The Schur form
  and Sylvester solve (:func:`sorted_schur`), Gram eigh, 2-norm and
  products (:func:`block_apply`) run block by block.
* An operator of low rank is kept as factors E = X Y* and its residuals
  are written as factors too: X (Y* X - I) Y* for idempotency,
  [X, -T X] [T* Y, Y]* for the commutator with T (:func:`commutator_norm`)
  and [X1, -X2] [Y1, Y2]* for a difference.  Their spectral norm comes
  from two thin QRs and one SVD of the small triangular product
  (:func:`lowrank_norm`), never from the D^2 x D^2 matrix.
* A linear action on matrices takes a (k, D, D) stack and returns the
  stack of its images: one call covers every block unit that
  ``algebra.extract_block_states`` reads, and one basis row of the
  products in a closure test (:meth:`MatrixSubspace.closure_defects`).
  :func:`vec`, :func:`unvec` and :func:`dagger` act on the last two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotNearProjection(RuntimeError):
    """Matrix handed to round_projector is not close to a projection."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds: eq_tol (``--tol``) and its multiples by role.

    ===============  ==========  ===========================================
    level            value       decides
    ===============  ==========  ===========================================
    rank_tol         eq_tol/10   every rank, span and kernel (relative
                                 singular values); state eigenvalue floor
    eq_tol           eq_tol      equalities (relative spectral norm);
                                 ledger: the L2 contraction and isometry
    peripheral_band  10 eq_tol   |lam| > 1 - band is peripheral, and
                                 |lam - 1| <= band is the eigenvalue 1
    derived_tol      10 eq_tol   cluster gaps, projector rounding, product
                                 closure of F; ledger: the expectations,
                                 the walk oracles
    check_tol        100 eq_tol  a stage's self-checks: closure, the M
                                 re-check, eigenpairs and their
                                 conditioning, invariance, walk columns;
                                 ledger: unitality, distances of two routes
    cycle_tol        1e3 eq_tol  the cycles layer, built on several stages
    ===============  ==========  ===========================================
    """

    eq_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.eq_tol < np.inf:
            raise ValueError(f"eq_tol {self.eq_tol} is not finite and > 0")

    rank_tol = property(lambda self: self.eq_tol / 10)
    peripheral_band = property(lambda self: 10 * self.eq_tol)
    derived_tol = property(lambda self: 10 * self.eq_tol)
    check_tol = property(lambda self: 100 * self.eq_tol)
    cycle_tol = property(lambda self: 1e3 * self.eq_tol)


DEFAULT_TOL = Tolerances()


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix or of each in a stack."""
    X = np.asarray(X)
    return np.swapaxes(X, -1, -2).reshape(*X.shape[:-2], -1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    return np.swapaxes(v.reshape(*v.shape[:-1], dim, dim), -1, -2)


def hs_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def spectral_norm(A: np.ndarray) -> float:
    if min(A.shape) == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def components(n: int, i, j) -> list[np.ndarray]:
    """Connected components of the graph on range(n) with the edges (i, j)
    both ways, as one (m, s) array of ascending rows per block size s: each
    index takes its neighbours' least label, then its label's label
    (pointer jumping), until the labels settle."""
    i, j = np.concatenate([i, j]), np.concatenate([j, i])
    label, new = None, np.arange(n)
    while new.any() and not np.array_equal(new, label):  # all 0: one block
        label = new.copy()
        np.minimum.at(new, i, label[j])
        new = new[new]
    order, sizes = np.argsort(new, kind="stable"), np.bincount(new, minlength=n)
    starts = np.cumsum(sizes) - sizes
    return [order[starts[sizes == s, None] + np.arange(s)]
            for s in np.unique(sizes[sizes > 0])]


def kron_blocks(A: np.ndarray, B: np.ndarray) -> list:
    """The split of K = sum_r A_r (x) B_r, for two (r, D, D) stacks, along
    the supports of its terms, K never formed: K[(p, q), (p', q')] =
    sum_r A_r[p, p'] B_r[q, q'] (row p D + q) joins (p, q) and (p', q')
    when some r has A_r[p, p'] != 0 and B_r[q, q'] != 0, so the split is
    that of K's exact nonzero pattern or coarser."""
    D = A.shape[-1]
    supports = np.hstack([A != 0, B != 0]).reshape(len(A), -1)
    blocks = [np.arange(D * D)[None]]       # a term with no zero joins all
    if not supports.all(axis=1).any():
        terms = list({row.tobytes(): r
                      for r, row in enumerate(supports)}.values())
        ra, p, p2 = np.nonzero(A[terms])
        rb, q, q2 = np.nonzero(B[terms])
        nb = np.bincount(rb, minlength=len(terms))[ra]  # per A entry: B
        ea = np.repeat(np.arange(len(ra)), nb)
        eb = np.arange(len(ea)) - np.repeat(np.cumsum(nb) - nb, nb) \
            + np.searchsorted(rb, ra)[ea]
        blocks = components(D * D, p[ea] * D + q[eb], p2[ea] * D + q2[eb])
    a, b = A.reshape(len(A), -1), B.reshape(len(B), -1)

    def entries(idx):      # terms gathered a few at a time, never more than
        p, q = np.divmod(idx, D)            # the D^4 entries of K at once
        fa, fb = (x[:, :, None] * D + x[:, None] for x in (p, q))
        step = max(1, D ** 4 // fa.size)
        return sum(np.einsum("r...,r...->...", a[t:t + step][:, fa],
                             b[t:t + step][:, fb])
                   for t in range(0, len(a), step))
    return [(idx, entries(idx)) for idx in blocks]


def kraus_transfer(X: np.ndarray, Y: np.ndarray) -> list:
    """The split of the transfer matrix of x -> sum_k X_k* x Y_k, for two
    (K, D, D) stacks: sum_k Y_k^T (x) X_k* (:func:`kron_blocks`); a
    channel's T is that of (V, V)."""
    return kron_blocks(np.swapaxes(Y, -1, -2), dagger(X))


def block_apply(blocks, X: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """M X, or M* X, for M given by its split."""
    out = np.zeros(X.shape, dtype=complex)
    for idx, S in blocks:
        out[idx] = (dagger(S) if adjoint else S) @ X[idx]
    return out


def blockwise_norm(blocks) -> float:
    """Spectral norm of a square matrix given by its split: the largest
    over its blocks, one batched SVD per block size."""
    return max((float(np.linalg.svd(S, compute_uv=False)[:, 0].max())
                for _, S in blocks), default=0.0)


def dagger(A: np.ndarray) -> np.ndarray:
    """Adjoint of a matrix or of each matrix in a stack."""
    return np.swapaxes(A.conj(), -1, -2)


def lowrank_norm(X: np.ndarray, Y: np.ndarray) -> float:
    """Spectral norm of X Y* for X (m x r) and Y (n x r): with thin QRs
    X = Q_x R_x and Y = Q_y R_y it is the norm of R_x R_y*, at most
    r x r."""
    if min(X.shape) == 0 or min(Y.shape) == 0:
        return 0.0
    return spectral_norm(np.linalg.qr(X, mode="r") @
                         dagger(np.linalg.qr(Y, mode="r")))


def commutator_norm(T, X: np.ndarray, Y: np.ndarray) -> float:
    """||E T - T E|| for E = X Y* and T given by its split, from the
    factors [X, -T X] [T* Y, Y]*."""
    return lowrank_norm(np.hstack([X, -block_apply(T, X)]),
                        np.hstack([block_apply(T, Y, adjoint=True), Y]))


KERNEL_FOLD_ROWS = 2048
"""Constraint rows gathered before they are folded into the triangular
factor of :func:`kernel_coefficients`; memory stays at one such block."""


def span_basis(mats, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis, stacked as (r, a, b), of the span of one or more
    equally shaped matrices: the rows of one SVD with
    sigma > rank_tol * max(sigma_max, 1), the rule of
    :func:`kernel_coefficients`."""
    mats = np.asarray(mats, dtype=complex)
    _, s, vh = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    return vh[s > tol.rank_tol * max(s[0], 1.0)].reshape(-1, *mats.shape[1:])


def kernel_coefficients(blocks, k: int,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal k x r columns spanning the joint kernel of a constraint
    matrix with k columns, given as a stream of row blocks.

    Blocks, cut to at most ``KERNEL_FOLD_ROWS`` rows (one tall QR is
    slower than several short ones), are folded into a triangular factor R
    of at most k rows with one QR per ``KERNEL_FOLD_ROWS`` rows; one SVD of
    R, padded with zero rows to k x k, then decides the kernel on all
    constraints together: sigma <= rank_tol * max(sigma_max, 1).  The
    constraints come from operators of norm O(1); the floor of 1 keeps
    constraints that all hold (a numerically zero matrix) from reading as
    full rank.
    """
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    R = np.zeros((0, k), dtype=complex)
    pending, rows = [], 0
    for chunk in (b[i:i + KERNEL_FOLD_ROWS] for b in blocks
                  for i in range(0, b.shape[0], KERNEL_FOLD_ROWS)):
        pending.append(chunk)
        rows += chunk.shape[0]
        if rows >= KERNEL_FOLD_ROWS:
            R = np.linalg.qr(np.vstack([R, *pending]), mode="r")
            pending, rows = [], 0
    if pending:
        R = np.linalg.qr(np.vstack([R, *pending]), mode="r")
    R = np.vstack([R, np.zeros((k - len(R), k))])
    _, s, vh = np.linalg.svd(R, full_matrices=False)
    return vh[s <= tol.rank_tol * max(s[0], 1.0)].conj().T


def range_isometry(P: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection; exactly the
    identity when P is the identity within derived_tol."""
    D = P.shape[0]
    if spectral_norm(P - np.eye(D)) <= tol.derived_tol:
        return np.eye(D, dtype=complex)
    w, V = np.linalg.eigh((P + dagger(P)) / 2)
    return V[:, w > 0.5]


@dataclass(frozen=True, eq=False)
class MatrixSubspace:
    """A subspace of D x D matrices with an HS-orthonormal basis, stacked
    as a (dim, D, D) array."""

    ambient_dim: int
    basis: np.ndarray = ()

    def __post_init__(self):
        D = self.ambient_dim
        object.__setattr__(self, "basis", np.asarray(
            self.basis, dtype=complex).reshape(-1, D, D))

    @classmethod
    def from_span(cls, mats, dim: int | None = None,
                  tol: Tolerances = DEFAULT_TOL) -> "MatrixSubspace":
        """Orthonormal basis of the span of ``mats`` (SVD with rank_tol)."""
        if dim is None:
            if not len(mats):
                raise ValueError("need dim for an empty span")
            dim = np.shape(mats[0])[0]
        if not len(mats):
            return cls(dim)
        return cls(dim, span_basis(mats, tol))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_columns(cls, B: np.ndarray, dim: int) -> "MatrixSubspace":
        """Subspace whose basis is the unvec'd orthonormal columns of B;
        the inverse of :meth:`basis_matrix`."""
        return cls(dim, B.T.reshape(-1, dim, dim).transpose(0, 2, 1))

    def basis_matrix(self) -> np.ndarray:
        """D^2 x dim matrix whose columns are vec'd basis elements."""
        return self.basis.transpose(0, 2, 1).reshape(
            self.dim, self.ambient_dim ** 2).T

    def project(self, X: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of X, or of each matrix in a stack of
        them, onto the subspace."""
        coeff = np.tensordot(np.asarray(X), self.basis.conj(),
                             axes=([-2, -1], [1, 2]))
        return np.tensordot(coeff, self.basis, 1)

    def residual(self, X: np.ndarray):
        """HS-distance of X, or of each matrix in a stack of them, from the
        subspace."""
        return np.linalg.norm(X - self.project(X), axis=(-2, -1))

    def closure_defects(self) -> tuple[float, float]:
        """(adjoint, product) defects: the largest residual of the adjoint
        of a basis element and of the product of two.  The products are
        taken one basis row at a time, so memory stays at one (k, D, D)
        stack."""
        B = self.basis
        adjoint = float(self.residual(dagger(B)).max(initial=0.0))
        product = max((float(self.residual(a @ B).max()) for a in B),
                      default=0.0)
        return adjoint, product

    def restrict(self, constraints,
                 tol: Tolerances = DEFAULT_TOL) -> "MatrixSubspace":
        """Subspace of the elements on which every constraint vanishes.

        ``constraints`` yields linear maps evaluated on the whole stacked
        basis: each takes the (k, D, D) array and returns (k, ...) values.
        """
        k = self.dim
        if k == 0:
            return self
        coeff = kernel_coefficients(
            (fn(self.basis).reshape(k, -1).T for fn in constraints), k, tol)
        return MatrixSubspace(self.ambient_dim,
                              np.tensordot(coeff.T, self.basis, 1))


GRAM_CANDIDATE_CUTOFF = 1e-6
"""Stage-1 cutoff of :func:`gram_kernel` on Gram eigenvalues, which are
squared singular values: far above rank_tol^2 and above eigh rounding.
Fixed, not a multiple of eq_tol: it bounds the rounding of eigh, not an
equality, and rank_tol still decides every kernel.  Scaled down with a
small ``--tol``, the candidate span could miss the kernel by more than
rank_tol."""


def gram_kernel(G, constraint,
                tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Kernel of a linear constraint on D x D matrices with Gram matrix G,
    given by its split (<vec A, G vec A> = ||constraint(A)||^2): the exact
    constraint restricts the candidates from one eigh per block size,
    embedded block-sparse, and alone decides."""
    parts = [(idx, *np.linalg.eigh(S)) for idx, S in G]
    n = sum(idx.size for idx, _, _ in parts)
    cut = GRAM_CANDIDATE_CUTOFF * max(max(w.max() for _, w, _ in parts), 1.0)
    columns = []
    for idx, w, V in parts:
        b, e = np.nonzero(w <= cut)          # block and eigenvector
        C = np.zeros((n, len(b)), dtype=complex)
        C[idx[b], np.arange(len(b))[:, None]] = V[b, :, e]
        columns.append(C)
    return MatrixSubspace.from_columns(np.hstack(columns), math.isqrt(n)) \
        .restrict([constraint], tol)


def round_projector(P: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Snap a near-projection to an exact orthogonal projection.

    Eigenvalues must lie within derived_tol of {0, 1}; those at least 0.5
    map to 1, the rest to 0, keeping eigenvectors.
    """
    P = np.asarray(P, dtype=complex)
    nrm = spectral_norm(P)
    if nrm == 0:
        return np.zeros_like(P)
    herm_defect = spectral_norm(P - dagger(P))
    if herm_defect > tol.derived_tol * nrm:
        raise NotNearProjection(f"Hermiticity defect {herm_defect:.3e}")
    H = (P + dagger(P)) / 2
    w, V = np.linalg.eigh(H)
    slack = tol.derived_tol * max(1.0, nrm)
    bad = [x for x in w if not (abs(x) <= slack or abs(x - 1) <= slack)]
    if bad:
        raise NotNearProjection(f"eigenvalue(s) {bad} not near {{0,1}}")
    rounded = (w >= 0.5).astype(float)
    return (V * rounded) @ dagger(V)


def subspace_distance(S1: MatrixSubspace, S2: MatrixSubspace) -> float:
    """Spectral norm of the difference of the HS projectors onto the spans.

    For spans of equal dimension that is ||B1 - B2 (B2* B1)||, the sine of
    the largest principal angle, with B1, B2 the orthonormal basis
    matrices; spans of different dimensions are at distance 1.
    """
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims {S1.ambient_dim} and {S2.ambient_dim} differ")
    if S1.dim != S2.dim:
        return 1.0
    B1, B2 = S1.basis_matrix(), S2.basis_matrix()
    return spectral_norm(B1 - B2 @ (dagger(B2) @ B1))


def cluster_values(values, gap: float) -> list[list[int]]:
    """Greedy clustering of complex values: indices whose values lie
    within ``gap`` of a cluster centroid join that cluster.  Values are
    taken by descending modulus and, within moduli that steps of at most
    ``gap`` join, by arg in [0, 2 pi), an arg within ``gap`` of 2 pi
    counting as 0: rounding in |lam| or across the real axis does not
    reorder them."""
    clusters: list[list[int]] = []
    centroids: list[complex] = []
    m = np.sort(np.abs(values))[::-1]
    starts = m[1:][m[:-1] - m[1:] > gap]      # moduli that open a level
    arg = np.angle(values) % (2 * np.pi)
    arg[arg > 2 * np.pi - gap] = 0.0
    order = sorted(range(len(values)), key=lambda i: (
        np.sum(starts >= abs(values[i])), arg[i]))
    for i in order:
        v = values[i]
        placed = False
        for c, cen in enumerate(centroids):
            if abs(v - cen) <= gap:
                clusters[c].append(i)
                k = len(clusters[c])
                centroids[c] = cen + (v - cen) / k
                placed = True
                break
        if not placed:
            clusters.append([i])
            centroids.append(v)
    return clusters


def sorted_schur(blocks, select):
    """(Z1, L, A11, rest) of a matrix M given by its split: each block is
    B = Z A Z* in complex Schur form with the k_b eigenvalues that
    ``select(lam) -> bool`` picks first, and L_b = [I R] Z*, R solving
    A11 R - R A22 = A12 (one ``ztrsyl``).  Z1 (n x k) holds the first k_b
    Schur vectors of each block and L (k x n) its L_b: Z1 L is the spectral
    projector onto the picked eigenvalues along the others.  A11 is the
    split of Z1* M Z1, rest the other eigenvalues."""
    n = sum(idx.size for idx, _ in blocks)
    parts, rest = [], []                      # (rows, Z_1, A_11, L) stacks
    for idx, S in blocks:
        if idx.shape[1] == 1:
            pick = np.array([bool(select(x)) for x in S[:, 0, 0]], dtype=bool)
            rest.append(S[~pick, 0, 0])
            parts.append((idx[pick], np.ones((pick.sum(), 1, 1)), S[pick],
                          np.ones((pick.sum(), 1, 1))))
            continue
        for rows, B in zip(idx, S):
            A, Z, k = scipy.linalg.schur(B, output="complex",
                                         sort=lambda x: bool(select(x)))
            rest.append(np.diag(A)[k:])
            R = np.zeros((k, len(A) - k), dtype=complex)
            if 0 < k < len(A):
                X, scale, info = scipy.linalg.lapack.ztrsyl(
                    A[:k, :k], A[k:, k:], A[:k, k:], isgn=-1)
                if info < 0:
                    raise np.linalg.LinAlgError(
                        f"Illegal value in the {-info} term")
                R = X / scale
            parts.append((rows[None], Z[None, :, :k], A[None, :k, :k],
                          (np.hstack([np.eye(k), R]) @ dagger(Z))[None]))
    k = sum(Z.shape[0] * Z.shape[2] for _, Z, _, _ in parts)
    Z1, L = np.zeros((n, k), dtype=complex), np.zeros((k, n), dtype=complex)
    a11, first = [], 0
    for rows, Z, A, Lb in parts:
        m, _, kb = Z.shape
        cols = first + np.arange(m * kb).reshape(m, kb)
        first += cols.size
        Z1[rows[:, :, None], cols[:, None, :]] = Z
        L[cols[:, :, None], rows[:, None, :]] = Lb
        if cols.size:
            a11.append((cols, A))
    return Z1, L, a11, np.concatenate(rest + [np.zeros(0)])


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(A)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def fix_global_phase(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Rescale by a unit scalar so the first nonzero entry (column-stacked
    order) is real positive."""
    v = vec(M)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return M
    idx = np.nonzero(np.abs(v) > tol.rank_tol * nrm)[0]
    if idx.size == 0:
        return M
    z = v[idx[0]]
    return M * (abs(z) / z)
