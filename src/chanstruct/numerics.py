"""Tolerance policy and shared linear-algebra primitives.

Conventions pinned here and used by every other module:

* Vectorization is column-stacking: ``vec(X) = X.flatten(order="F")``,
  so that ``vec(M X N) = kron(N.T, M) vec(X)``.
* The matrix space carries the Hilbert-Schmidt inner product
  ``<A, B> = trace(A* B)``, under which vec() is an isometry.
* All equality decisions are relative spectral-norm tests against
  ``Tolerances.eq_tol``.
* Every kernel (fixed points, commutants, centers, the walk oracles) is
  decided by one SVD of the folded constraint matrix in
  :func:`kernel_coefficients`: singular values sigma <= rank_tol *
  max(sigma_max, 1) span the kernel.  Spans keep the rows of one SVD with
  sigma > rank_tol * sigma_max (:func:`span_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class DimensionMismatch(ValueError):
    """Operands have incompatible dimensions."""


class NotNearProjection(ValueError):
    """Matrix handed to round_projector is not close to a projection."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    eq_tol: relative spectral-norm equality threshold.
    rank_tol: relative singular-value cutoff for rank/kernel decisions.
    peripheral_band: eigenvalues with ``|lam| > 1 - peripheral_band``
        count as peripheral.
    projector_round: eigenvalues >= this round to 1 in round_projector.
    """

    eq_tol: float = 1e-8
    rank_tol: float = 1e-9
    peripheral_band: float = 1e-7
    projector_round: float = 0.5

    def __post_init__(self):
        for name in ("eq_tol", "rank_tol", "peripheral_band", "projector_round"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


DEFAULT_TOL = Tolerances()


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(X).flatten(order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def hs_inner(A: np.ndarray, B: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(A* B)."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shapes {A.shape} and {B.shape} differ")
    return complex(np.sum(A.conj() * B))


def hs_norm(A: np.ndarray) -> float:
    return float(np.linalg.norm(A))


def spectral_norm(A: np.ndarray) -> float:
    if min(A.shape) == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def dagger(A: np.ndarray) -> np.ndarray:
    return A.conj().T


KERNEL_FOLD_ROWS = 2048
"""Constraint rows gathered before they are folded into the triangular
factor of :func:`kernel_coefficients`; memory stays at one such block."""


def span_basis(mats, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis, stacked as (r, a, b), of the span of one or more
    equally shaped matrices: the rows of one SVD with
    sigma > rank_tol * sigma_max."""
    mats = np.asarray(mats, dtype=complex)
    _, s, vh = np.linalg.svd(mats.reshape(len(mats), -1), full_matrices=False)
    return vh[s > tol.rank_tol * s[0]].reshape(-1, *mats.shape[1:])


def kernel_coefficients(blocks, k: int,
                        tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal k x r columns spanning the joint kernel of a constraint
    matrix with k columns, given as a stream of row blocks.

    Blocks are folded into a k x k triangular factor R with one QR per
    ``KERNEL_FOLD_ROWS`` rows; one SVD of R then decides the kernel on all
    constraints together: sigma <= rank_tol * max(sigma_max, 1).  The
    constraints come from operators of norm O(1); the floor of 1 keeps
    constraints that all hold (a numerically zero matrix) from reading as
    full rank.
    """
    if k == 0:
        return np.zeros((0, 0), dtype=complex)
    R = np.zeros((k, k), dtype=complex)
    pending, rows = [], 0
    for block in blocks:
        pending.append(block)
        rows += block.shape[0]
        if rows >= KERNEL_FOLD_ROWS:
            R = np.linalg.qr(np.vstack([R, *pending]), mode="r")
            pending, rows = [], 0
    if pending:
        R = np.linalg.qr(np.vstack([R, *pending]), mode="r")
    _, s, vh = np.linalg.svd(R, full_matrices=False)
    return vh[s <= tol.rank_tol * max(s[0], 1.0)].conj().T


def transfer_of(action, dim: int) -> np.ndarray:
    """Column-stacked transfer matrix of a linear map on dim x dim matrices:
    column b * dim + a is vec(action(E_ab))."""
    return np.column_stack([vec(action(unvec(e, dim)))
                            for e in np.eye(dim * dim, dtype=complex)])


def range_isometry(P: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal columns spanning the range of a projection; exactly the
    identity when P is the identity within 10 * eq_tol."""
    D = P.shape[0]
    if spectral_norm(P - np.eye(D)) <= 10 * tol.eq_tol:
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

    def basis_matrix(self) -> np.ndarray:
        """D^2 x dim matrix whose columns are vec'd basis elements."""
        return self.basis.transpose(0, 2, 1).reshape(self.dim, -1).T

    def projector(self) -> np.ndarray:
        """HS-orthogonal projector onto the span (D^2 x D^2)."""
        B = self.basis_matrix()
        return B @ B.conj().T

    def project(self, X: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of X onto the subspace."""
        coeff = np.tensordot(self.basis.conj(), np.asarray(X), 2)
        return np.tensordot(coeff, self.basis, 1)

    def residual(self, X: np.ndarray) -> float:
        """HS-distance of X from the subspace."""
        return hs_norm(X - self.project(X))

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


def reduce_span(mats, dim: int | None = None,
                tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (as a list) of the span of ``mats``."""
    return list(MatrixSubspace.from_span(mats, dim=dim, tol=tol).basis)


def kernel_basis(L: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Numerical kernel of a linear map on vectorized D x D matrices.

    ``L`` is an (m, D^2) matrix; returns the HS-orthonormal basis of its
    kernel under the cutoff of :func:`kernel_coefficients`.
    """
    L = np.asarray(L, dtype=complex)
    n = L.shape[1]
    dim = int(round(np.sqrt(n)))
    if dim * dim != n:
        raise DimensionMismatch(f"{n} columns is not a squared dimension")
    coeff = kernel_coefficients([L], n, tol)
    return MatrixSubspace(dim, [unvec(v, dim) for v in coeff.T])


def round_projector(P: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Snap a near-projection to an exact orthogonal projection.

    Eigenvalues must lie within 10*eq_tol of {0, 1}; those at least
    ``projector_round`` map to 1, the rest to 0, keeping eigenvectors.
    """
    P = np.asarray(P, dtype=complex)
    nrm = spectral_norm(P)
    if nrm == 0:
        return np.zeros_like(P)
    herm_defect = spectral_norm(P - dagger(P))
    if herm_defect > 10 * tol.eq_tol * nrm:
        raise NotNearProjection(f"Hermiticity defect {herm_defect:.3e}")
    H = (P + dagger(P)) / 2
    w, V = np.linalg.eigh(H)
    slack = 10 * tol.eq_tol * max(1.0, nrm)
    bad = [x for x in w if not (abs(x) <= slack or abs(x - 1) <= slack)]
    if bad:
        raise NotNearProjection(f"eigenvalue(s) {bad} not near {{0,1}}")
    rounded = (w >= tol.projector_round).astype(float)
    return (V * rounded) @ dagger(V)


def subspace_distance(S1: MatrixSubspace, S2: MatrixSubspace) -> float:
    """Spectral norm of the difference of the HS projectors onto the spans."""
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dims {S1.ambient_dim} and {S2.ambient_dim} differ")
    return spectral_norm(S1.projector() - S2.projector())


def subspace_intersection(S1: MatrixSubspace, S2: MatrixSubspace,
                          tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Intersection of two matrix subspaces (kernel of both complements)."""
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch("ambient dims differ")
    n = S1.ambient_dim ** 2
    eye = np.eye(n)
    L = np.vstack([eye - S1.projector(), eye - S2.projector()])
    return kernel_basis(L, tol=tol)


def cluster_values(values, gap: float) -> list[list[int]]:
    """Greedy clustering of complex values: indices whose values lie
    within ``gap`` of a cluster centroid join that cluster."""
    clusters: list[list[int]] = []
    centroids: list[complex] = []
    order = sorted(range(len(values)), key=lambda i: (-abs(values[i]),
                                                      np.angle(values[i])))
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


def spectral_projector(M: np.ndarray, select) -> np.ndarray:
    """(Non-orthogonal) spectral projector of a general square matrix.

    ``select(lam) -> bool`` picks the eigenvalue cluster; the projector
    onto the corresponding invariant subspace along the complementary one
    is computed from a sorted Schur form plus a Sylvester solve.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    T, Z, sdim = scipy.linalg.schur(M, output="complex",
                                    sort=lambda x: bool(select(x)))
    k = int(sdim)
    if k == 0:
        return np.zeros_like(M)
    if k == n:
        return np.eye(n, dtype=complex)
    A11 = T[:k, :k]
    A12 = T[:k, k:]
    A22 = T[k:, k:]
    R = scipy.linalg.solve_sylvester(A11, -A22, A12)
    P = np.zeros((n, n), dtype=complex)
    P[:k, :k] = np.eye(k)
    P[:k, k:] = R
    return Z @ P @ dagger(Z)


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
