"""Tolerance policy and shared linear-algebra primitives.

Conventions pinned here and used by every other module:

* Vectorization is column-stacking: ``vec(X) = X.flatten(order="F")``,
  so that ``vec(M X N) = kron(N.T, M) vec(X)``.
* The matrix space carries the Hilbert-Schmidt inner product
  ``<A, B> = trace(A* B)``, under which vec() is an isometry.
* All equality decisions are relative spectral-norm tests against a
  level of ``Tolerances``, each a fixed multiple of ``eq_tol``.
* Every kernel (commutants, centers, M, N, the walk oracles) is decided
  by one SVD of the folded constraint matrix (:func:`kernel_coefficients`)
  or per class of coupled columns, on its own rows (:func:`split_kernel`):
  singular values sigma <= rank_tol * max(sigma_max, 1) span the kernel.
  :func:`gram_candidates` keeps the eigenvectors of a Gram matrix with
  lambda <= GRAM_CANDIDATE_CUTOFF * max(lambda_max, 1) as candidates
  only: the exact constraint restricts them and decides.  Spans keep the
  rows of one SVD with sigma > rank_tol * max(sigma_max, 1)
  (:func:`span_basis`), the same rule, so a numerically zero stack spans
  nothing.  Subspaces are cut down by the kernel of constraints on their
  stacked basis (:meth:`MatrixSubspace.restrict`), and distances compare
  the bases (:func:`subspace_distance`), never forming D^2 x D^2
  projectors.
* A D^2 x D^2 operator is held as its split, (index, stack) pairs: the
  (m, s) indices of m diagonal blocks of size s and their (m, s, s) stack,
  zero off the blocks.  A Kronecker sum sum_r A_r (x) B_r (a Gram or
  Choi matrix) is split along its terms' supports, never formed
  (:func:`kron_blocks`), exactly: where a product of nonzeros saves
  KRON_SCATTER_FACTOR block entries, the blocks sum those products (sum
  m s^2 at a time), else they gather every term (D^4 entries at a time).  A
  transfer matrix (T, its rho-weighted form) is the split of its Kraus
  pair (:func:`kraus_transfer`), and a difference of channels has the
  HS norm of thin factors (:func:`transfer_distance`).  Eigenvalues and
  inverse iteration (:func:`unit_projector`), Gram eigh, 2-norm and
  products (:func:`block_apply`) run block by block.
* An operator of low rank is kept as factors E = X Y* and its residuals
  are written as factors too: X (Y* X - I) Y* for idempotency,
  [X, -T X] [T* Y, Y]* for the commutator with T (:func:`commutator_norm`)
  and [X1, -X2] [Y1, Y2]* for a difference.  Their spectral norm comes
  from two thin QRs and one SVD of the small triangular product
  (:func:`lowrank_norm`), never from the D^2 x D^2 matrix.
* A linear action on matrices takes a (k, D, D) stack and returns the
  stack of its images: one call covers the whole basis in a restriction
  (:meth:`MatrixSubspace.restrict`), and one basis row of the products
  in a closure test (:meth:`MatrixSubspace.closure_defects`).
  :func:`vec`, :func:`unvec` and :func:`dagger` act on the last two axes.
  Operators act on their live rows and columns, QRs on their live rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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
                                 ledger: unitality, L2 contraction, isometry
    peripheral_band  10 eq_tol   |lam| > 1 - band and |lam - 1| <= band
                                 is the eigenvalue 1; the ledger counts
                                 |lam| > 1 - band against dim N
    derived_tol      10 eq_tol   cluster gaps, projector rounding, product
                                 closure of F; ledger: the same closure,
                                 the expectations, the walk oracles
    check_tol        100 eq_tol  a stage's self-checks: closure, the M
                                 re-check, eigenvector conditioning,
                                 invariance, walk columns; ledger: N's
                                 eigenpairs, distances of two routes
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
            for s in np.flatnonzero(np.bincount(sizes[sizes > 0]))]


KRON_SCATTER_FACTOR = 32
"""Block entries per product of nonzeros above which :func:`kron_blocks`
scatters: below, on D <= 16, its few dozen numpy calls cost more."""


def kron_blocks(A: np.ndarray, B: np.ndarray) -> list:
    """The split of K = sum_r A_r (x) B_r, for two (r, D, D) stacks, along
    the supports of its terms, K never formed: K[(p, q), (p', q')] =
    sum_r A_r[p, p'] B_r[q, q'] (row p D + q) joins (p, q) and (p', q')
    when some r has A_r[p, p'] != 0 and B_r[q, q'] != 0, so the split is
    that of K's exact nonzero pattern or coarser.  If its sum m s^2 entries
    (m blocks of each size s) exceed ``KRON_SCATTER_FACTOR`` times the mean
    products of nonzeros per distinct support, they sum the products, sum
    m s^2 at most at a time; else they gather each term, D^4 at most."""
    def addends(A, B):  # (i, j, v): each product v of nonzeros, in K[i, j]
        (ra, p, p2), (rb, q, q2) = np.nonzero(A), np.nonzero(B)
        nb = np.bincount(rb, minlength=len(B))[ra]     # per A entry: B's
        a = np.repeat(np.arange(len(ra)), nb)
        b = np.arange(len(a)) - np.repeat(
            np.cumsum(nb) - nb - np.searchsorted(rb, ra), nb)
        return (p[a] * D + q[b], p2[a] * D + q2[b],
                A[ra, p, p2][a] * B[rb, q, q2][b])
    D, supports = A.shape[-1], np.hstack([A != 0, B != 0])
    blocks, pairs = [np.arange(D * D)[None]], math.inf  # no zero: one block
    if not supports.all(axis=(1, 2)).any():
        terms = supports[list({row.tobytes(): r
                               for r, row in enumerate(supports)}.values())]
        i, j, _ = addends(terms[:, :D], terms[:, D:])
        blocks, pairs = components(D * D, i, j), len(i) / len(terms)
    sizes = [idx.size * idx.shape[1] for idx in blocks]
    if KRON_SCATTER_FACTOR * pairs < sum(sizes):
        bases, start, slot = np.cumsum([0, *sizes]), *np.zeros((2, D * D), int)
        for idx, b0, b1 in zip(blocks, bases, bases[1:]):  # K[i, j] is at
            start[idx] = np.arange(b0, b1, idx.shape[1]).reshape(idx.shape)
            slot[idx] = np.arange(idx.shape[1])     # start[i] + slot[j]
        out = np.zeros(bases[-1], dtype=np.result_type(A, B))
        step = len(out) // max(1, (np.count_nonzero(A, axis=(1, 2))
                                   * np.count_nonzero(B, axis=(1, 2))).max())
        for t in range(0, len(A), step):    # a term's products fit in out
            i, j, v = addends(A[t:t + step], B[t:t + step])
            np.add.at(out, start[i] + slot[j], v)
        return [(idx, out[b0:b1].reshape(-1, idx.shape[1], idx.shape[1]))
                for idx, b0, b1 in zip(blocks, bases, bases[1:])]
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


def live_rows(X: np.ndarray) -> np.ndarray:
    """X without its all-zero rows; X itself, not copied, if it has none."""
    return X if np.count_nonzero(X) == X.size or (
        live := X.any(axis=1)).all() else X[live]


def support_groups(ops: np.ndarray, rows, cols, chunk):
    """(V, R, C) per chunk of chunk(r, c) nonzero operators of ``ops`` with
    r live rows R (m, r) and c live columns C (m, c) by the (K, D) masks
    ``rows``, ``cols``: V holds them on (R, C), a view where all are live."""
    n, every = cols.shape[1] + 1, np.arange(cols.shape[1])[None]
    if rows.all() and cols.all():       # views of ops: nothing gathered
        for t in range(0, len(ops), step := max(1, chunk(n - 1, n - 1))):
            yield ops[t:t + step], every, every
        return
    keys = rows.sum(axis=1) * n + cols.sum(axis=1)    # 0: a zero operator
    for key in sorted(set(keys.tolist()) - {0}):
        ks, step = np.flatnonzero(keys == key), max(1, chunk(*divmod(key, n)))
        for k in (ks[t:t + step] for t in range(0, len(ks), step)):
            R, C = (m[k].nonzero()[1].reshape(len(k), -1) for m in (rows, cols))
            yield ops[k[:, None, None], R[:, :, None], C[:, None]], R, C


def take(X: np.ndarray, R: np.ndarray, C: np.ndarray) -> np.ndarray:
    """X[..., R_i, C_i] per row i of R (m, r), C (m, c); a view if all live."""
    full = R.shape[1] == X.shape[-2] and C.shape[1] == X.shape[-1]
    return X[..., None, :, :] if full else X[..., R[:, :, None], C[:, None]]


def lowrank_core(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R_x R_y* from thin QRs X = Q_x R_x, Y = Q_y R_y of the live rows."""
    return np.linalg.qr(live_rows(X), mode="r") @ dagger(
        np.linalg.qr(live_rows(Y), mode="r"))


def transfer_distance(A: np.ndarray, B: np.ndarray) -> float:
    """HS norm, a bound on the 2-norm, of T_A - T_B for two Kraus stacks:
    T realigns the Choi matrix sum_k vec(V_k) vec(V_k)*, so it is that of
    X Y* with X = [vec A, vec B] and Y = [vec A, -vec B]."""
    X = np.concatenate([A, B]).reshape(len(A) + len(B), -1).T
    return hs_norm(lowrank_core(X, X * np.repeat([1, -1], [len(A), len(B)])))


def lowrank_norm(X: np.ndarray, Y: np.ndarray) -> float:
    """Spectral norm of X Y* from :func:`lowrank_core`."""
    return spectral_norm(lowrank_core(X, Y))


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
    shape = mats.shape[1:]
    _, s, vh = np.linalg.svd(mats.reshape(len(mats), math.prod(shape)),
                             full_matrices=False)
    return vh[s > tol.rank_tol * max(s.max(initial=0.0), 1.0)].reshape(
        -1, *shape)


def kernel_coefficients(blocks, k: int,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal k x r columns spanning the joint kernel of a constraint
    matrix with k columns, given as a stream of row blocks.

    Blocks, less their zero rows and cut to at most ``KERNEL_FOLD_ROWS``
    rows (one tall QR is slower than several short ones), are folded into a
    triangular factor R of at most k rows, one QR per ``KERNEL_FOLD_ROWS``
    rows; one SVD of R (sigma = 0 past its rows) decides the kernel of all
    constraints: sigma <= rank_tol * max(sigma_max, 1).  The constraints
    come from operators of norm O(1); the floor of 1 keeps constraints that
    all hold, a numerically zero matrix, from reading as full rank.
    """
    R, pending = np.zeros((0, k), dtype=complex), []
    for chunk in (b[i:i + KERNEL_FOLD_ROWS] for b in map(live_rows, blocks)
                  for i in range(0, b.shape[0], KERNEL_FOLD_ROWS)):
        pending.append(chunk)
        if sum(map(len, pending)) >= KERNEL_FOLD_ROWS:
            R, pending = np.linalg.qr(np.vstack([R, *pending]), mode="r"), []
    R = np.linalg.qr(np.vstack([R, *pending]), mode="r") if pending else R
    _, s, vh = np.linalg.svd(R)            # s descends; vh is k x k
    return vh[np.sum(s > tol.rank_tol * max(s.max(initial=0), 1)):].conj().T


def split_kernel(rows, cols, vals, k: int, tol=DEFAULT_TOL) -> np.ndarray:
    """:func:`kernel_coefficients` of the k-column C with nonzeros C[rows,
    cols] = vals (repeats summed): one QR and SVD per class of the columns
    that C's exact pattern couples (:func:`components`), on its own rows
    padded to s.  C's singular values are the classes', sigma_max of all;
    only the kernel columns are formed."""
    key, at = np.unique(np.asarray(rows) * k + cols, return_inverse=True)
    v = np.bincount(at, np.real(vals)) + 1j * np.bincount(at, np.imag(vals))
    (r, c), v = np.divmod(key[v != 0], k), v[v != 0]
    classes = components(k, c, c[np.searchsorted(r, r)])  # r is sorted
    label, pos = np.zeros(k, int), np.zeros(k, int)   # least column, place
    for cl in classes:
        label[cl], pos[cl] = cl[:, :1], np.arange(cl.shape[1])
    n, lc = r.max(initial=0) + 1, label[c]
    pair, at = np.unique(lc * n + r, return_inverse=True)  # (class, row)
    at -= np.searchsorted(pair // n, pair // n)[at]        # row in class
    count, parts = np.bincount(pair // n, minlength=k), []
    for cl in classes:
        height = np.maximum(count[cl[:, 0]], cl.shape[1])  # R is s x s
        for h in np.flatnonzero(np.bincount(height)):
            group, e = cl[height == h], np.isin(lc, cl[height == h, 0])
            A = np.zeros((len(group), h, cl.shape[1]), dtype=complex)
            A[np.searchsorted(group[:, 0], lc[e]), at[e], pos[c[e]]] = v[e]
            _, sigma, vh = np.linalg.svd(np.linalg.qr(A, mode="r"))
            parts.append((group, sigma, vh))
    cut = tol.rank_tol * max(max(p[1].max() for p in parts), 1.0)
    # right singular vector e of class b, on the rows cl[b], is slot cl[b, e]
    kept = [(g[b], g[b, e], vh[b, e].conj()) for g, sigma, vh in parts
            for b, e in [np.nonzero(sigma <= cut)]]
    slots = np.sort(np.concatenate([slot for _, slot, _ in kept]))
    V = np.zeros((k, len(slots)), dtype=complex)
    for rows, slot, x in kept:             # the kernel columns, by slot
        V[rows, np.searchsorted(slots, slot)[:, None]] = x
    return V


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
"""Cutoff of :func:`gram_candidates` on Gram eigenvalues, which are
squared singular values: far above rank_tol^2 and above eigh rounding.
Fixed, not a multiple of eq_tol: it bounds the rounding of eigh, not an
equality, and rank_tol still decides every kernel.  Scaled down with a
small ``--tol``, the candidate span could miss the kernel by more than
rank_tol."""


def gram_candidates(G) -> MatrixSubspace:
    """Candidates for the kernel of a linear constraint on D x D matrices
    with Gram matrix G, given by its split (<vec A, G vec A> =
    ||constraint(A)||^2): the eigenvectors with lambda <= cutoff from one
    eigh per block size, embedded block-sparse.  They span the kernel and
    may hold more; only the exact constraint on them decides."""
    parts = [(idx, *np.linalg.eigh(S)) for idx, S in G]
    n = sum(idx.size for idx, _, _ in parts)
    cut = GRAM_CANDIDATE_CUTOFF * max(max(w.max() for _, w, _ in parts), 1.0)
    columns = []
    for idx, w, V in parts:
        b, e = np.nonzero(w <= cut)          # block and eigenvector
        C = np.zeros((n, len(b)), dtype=complex)
        C[idx[b], np.arange(len(b))[:, None]] = V[b, :, e]
        columns.append(C)
    return MatrixSubspace.from_columns(np.hstack(columns), math.isqrt(n))


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


def unit_projector(blocks, band: float):
    """(Z, L, ones, rest) for a matrix M, given by its split, whose
    eigenvalue 1 is semisimple.  One batched ``eigvals`` per block size;
    |lam| > 1 - band and |lam - 1| <= band pick the k_b eigenvalues of a
    block B that count as 1 (``ones``, the others ``rest``).  Inverse
    iteration on B and B* at their mean + band/1e3 (``eig`` where 3 steps
    leave a residual above 1e-12 ||B||_F) spans their right and left
    invariant subspaces, Z_b orthonormal and W_b; L_b = (W_b* Z_b)^-1 W_b*
    (Z_b = L_b = I if k_b = s).  Z (n x k) and L (k x n) gather them: Z L
    is the spectral projector onto ker(M - I) along range(M - I)."""
    n = sum(idx.size for idx, _ in blocks)
    parts, ones, rest = [], [], []          # (rows, Z_b, L_b) stacks
    for idx, S in blocks:
        s = idx.shape[1]            # 1 x 1 blocks are read directly
        lam = S[:, 0] if s == 1 else np.linalg.eigvals(S)
        pick = (np.abs(lam) > 1.0 - band) & (np.abs(lam - 1) <= band)
        ones.append(lam[pick])
        rest.append(lam[~pick])
        counts = pick.sum(axis=1)
        for k in np.flatnonzero(np.bincount(counts[counts > 0])):
            b = counts == k
            B, mu = S[b], lam[b][pick[b]].reshape(-1, k).mean(axis=1)
            Z = L = np.broadcast_to(np.eye(s), B.shape)
            if k < s:
                shifted = B - (mu + band / 1e3)[:, None, None] * np.eye(s)
                Z = W = np.exp(2j * np.pi * np.sqrt(2) * np.outer(
                    np.arange(1, s + 1), np.arange(1, k + 1)))  # full rank
                for _ in range(3):
                    Z = np.linalg.qr(np.linalg.solve(shifted, Z))[0]
                    W = np.linalg.qr(np.linalg.solve(dagger(shifted), W))[0]
                bad = sum(np.linalg.norm(A @ X - X @ (dagger(X) @ A @ X),
                                         axis=(1, 2))
                          for A, X in ((B, Z), (dagger(B), W))) \
                    > 1e-12 * np.linalg.norm(B, axis=(1, 2))
                if bad.any():       # the k_b eigenvalues nearest 1
                    w, V = np.linalg.eig(B[bad])
                    near = np.argsort(np.abs(w - 1), axis=1)[:, None, :k]
                    Z[bad] = np.linalg.qr(np.take_along_axis(V, near, 2))[0]
                    W[bad] = np.take_along_axis(
                        dagger(np.linalg.inv(V)), near, 2)
                L = np.linalg.solve(dagger(W) @ Z, dagger(W))
            parts.append((idx[b], Z, L))
    off = np.cumsum([0] + [Z.shape[0] * Z.shape[2] for _, Z, _ in parts])
    Z1, L1 = np.zeros((n, off[-1]), complex), np.zeros((off[-1], n), complex)
    for (rows, Z, Lb), f in zip(parts, off):
        cols = f + np.arange(Z.shape[0] * Z.shape[2]).reshape(len(Z), -1)
        Z1[rows[:, :, None], cols[:, None, :]] = Z
        L1[cols[:, :, None], rows[:, None, :]] = Lb
    return (Z1, L1, *(np.concatenate(x + [np.zeros(0)])
                      for x in (ones, rest)))


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
