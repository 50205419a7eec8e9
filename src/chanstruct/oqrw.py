"""Open quantum random walks.

A walk assigns a local space h_i to each vertex and a transition operator
L_{i,j}: h_j -> h_i to each edge, with sum_i L_{i,j}* L_{i,j} = I per
column.  Flattening to a channel on the direct sum of the h_i makes the
generic machinery applicable; the block structure also admits direct
characterizations of the multiplicative domain and the decoherence-free
algebra which serve as independent oracles.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chanstruct.channel import (
    ChannelSpec,
    from_kraus,
    matrix_from_json,
    matrix_to_json,
)
from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    MatrixSubspace,
    Tolerances,
    dagger,
    hs_norm,
    kernel_coefficients,
    span_basis,
    spectral_norm,
    split_kernel,
)


class ColumnNotNormalized(ValueError):
    """A column of transition operators fails sum L*L = I."""


class NotUnitary(ValueError):
    """A builder received a non-unitary operator."""


@dataclass(frozen=True)
class OqrwSpec:
    """Validated open quantum random walk.

    transitions maps (to_vertex, from_vertex) to the operator L_{i,j};
    absent keys are zero.  Vertex order fixes the block layout of the
    flattened channel.
    """

    vertices: tuple
    local_dims: tuple
    transitions: dict = field(compare=False)
    homogeneous: bool = False
    label: str = ""

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def total_dim(self) -> int:
        return int(sum(self.local_dims))

    @cached_property
    def offsets(self) -> tuple:
        return tuple(int(x) for x in
                     np.concatenate([[0], np.cumsum(self.local_dims)]))

    def block(self, A: np.ndarray, i: int, j: int) -> np.ndarray:
        """Block (i, j) of A, or of each matrix in a stack of them."""
        off = self.offsets
        return A[..., off[i]:off[i + 1], off[j]:off[j + 1]]


def build(vertices, local_dims, transitions,
          tol: Tolerances = DEFAULT_TOL, label: str = "") -> OqrwSpec:
    """Validate vertex data and transition operators into an OqrwSpec."""
    vertices, local_dims = tuple(vertices), tuple(local_dims)
    if len(set(vertices)) != len(vertices):
        raise DimensionMismatch(f"repeated vertex labels in {list(vertices)}")
    if not all(isinstance(d, numbers.Integral) and d > 0 for d in local_dims):
        raise DimensionMismatch(
            f"local dimensions {list(local_dims)} are not positive integers")
    local_dims = tuple(int(d) for d in local_dims)
    if len(local_dims) != len(vertices):
        raise DimensionMismatch("one local dimension per vertex required")
    ops = {}
    for (i, j), L in transitions.items():
        if not (0 <= i < len(vertices) and 0 <= j < len(vertices)):
            raise DimensionMismatch(
                f"transition ({i},{j}) names a vertex outside "
                f"0..{len(vertices) - 1}")
        L = np.asarray(L, dtype=complex)
        if L.shape != (local_dims[i], local_dims[j]):
            raise DimensionMismatch(
                f"transition ({i},{j}) has shape {L.shape}, expected "
                f"({local_dims[i]}, {local_dims[j]})")
        if not np.all(np.isfinite(L)):
            raise ValueError(f"transition ({i},{j}) has non-finite entries")
        if hs_norm(L) > 0:
            ops[(i, j)] = L
    for j in range(len(vertices)):
        col = sum((dagger(L) @ L for (i, jj), L in ops.items() if jj == j),
                  np.zeros((local_dims[j], local_dims[j])))
        defect = spectral_norm(col - np.eye(local_dims[j]))
        if defect > tol.check_tol:
            raise ColumnNotNormalized(
                f"column {j} has unitality defect {defect:.3e}")
    homogeneous = _is_homogeneous(vertices, local_dims, ops, tol)
    return OqrwSpec(vertices=vertices, local_dims=local_dims,
                    transitions=ops, homogeneous=homogeneous, label=label)


def _is_homogeneous(vertices, local_dims, ops, tol: Tolerances) -> bool:
    """True when every vertex sees the same operators (entries within
    eq_tol) keyed by displacement around the cyclic vertex list."""
    n = len(vertices)
    if len(set(local_dims)) != 1:
        return False
    reference = {(i - 0) % n: L for (i, j), L in ops.items() if j == 0}
    for j in range(1, n):
        seen = {(i - j) % n: L for (i, jj), L in ops.items() if jj == j}
        if set(seen) != set(reference):
            return False
        for disp, L in seen.items():
            if not np.allclose(L, reference[disp], rtol=0, atol=tol.eq_tol):
                return False
    return bool(reference)


def to_channel(w: OqrwSpec, tol: Tolerances = DEFAULT_TOL) -> ChannelSpec:
    """Flatten the walk to a channel on the direct sum of the h_i."""
    D, off = w.total_dim, w.offsets
    steps = sorted(w.transitions.items())
    kraus = np.zeros((len(steps), D, D), dtype=complex)
    for V, ((i, j), L) in zip(kraus, steps):
        V[off[i]:off[i + 1], off[j]:off[j + 1]] = L
    return from_kraus(kraus, tol=tol, label=w.label or "oqrw")


# ---------------------------------------------------------------------------
# Block-structure oracles for M and N
# ---------------------------------------------------------------------------

def _diagonal_conditions(w: OqrwSpec, spans):
    """A_ii M = M A_kk for M = P Q*, P in spans[i, j], Q in spans[k, j] over
    the common sources j, as (i, k, M) per vertex pair.  The stack S of the
    P Q* enters as the R of its QR, batched by shape: R*R = S*S keeps the
    Gram matrix, hence the kernel, of the constraint."""
    h, prods = w.local_dims, {}
    for j, ends in itertools.groupby(sorted(spans, key=lambda e: e[::-1]),
                                     key=lambda e: e[1]):
        for (i, _), (k, _) in itertools.product(list(ends), repeat=2):
            prods.setdefault((i, k), []).append(np.einsum(
                "pab,qcb->pqac", spans[(i, j)], spans[(k, j)].conj())
                .reshape(-1, h[i] * h[k]))
    S = {key: np.vstack(x) for key, x in sorted(prods.items())}
    for shape in {x.shape for x in S.values()}:
        keys = [key for key, x in S.items() if x.shape == shape]
        S.update(zip(keys, np.linalg.qr(np.stack([S[k] for k in keys]), "r")))
    for (i, k), R in S.items():
        yield i, k, R.reshape(-1, h[i], h[k])


def _first_diagonal(w: OqrwSpec, spans, unit, tol) -> np.ndarray:
    """Coefficient rows over the block-diagonal units (row-major, vertex i's
    from unit[i]) cut out by the one-step conditions: row (r, a, c) of
    (i, k, M) holds M[r, b, c] at (i; a, b), -M[r, a, b] at (k; b, c)."""
    h, rows, cols, vals, base = w.local_dims, [], [], [], 0
    for i, k, M in _diagonal_conditions(w, spans):
        (r, p, q), m = np.nonzero(M), M[M != 0]
        a, c, row = np.c_[:h[i]], np.c_[:h[k]], base + r * h[i] * h[k]
        rows += [row + a * h[k] + q, row + p * h[k] + c]
        cols += [unit[i] + a * h[i] + p, unit[k] + q * h[k] + c]
        vals += [np.tile(m, (h[i], 1)), np.tile(-m, (h[k], 1))]
        base += M.size
    return split_kernel(*(np.concatenate([x.ravel() for x in v])
                          for v in (rows, cols, vals)), unit[-1], tol).T


def _off_diagonal(w: OqrwSpec, tol) -> MatrixSubspace:
    """The sum of B(W_i, W_l) at the blocks (l, i), l != i, with W_i the
    common kernel of the L* entering i."""
    W = [kernel_coefficients([dagger(L) for (i, _), L
                              in w.transitions.items() if i == v],
                             w.local_dims[v], tol)
         for v in range(w.n_vertices)]
    D, dead = w.total_dim, [(v, Wv) for v, Wv in enumerate(W) if Wv.size]
    parts = [np.zeros((0, D, D), dtype=complex)]
    for (l, Wl), (i, Wi) in itertools.permutations(dead, 2):
        E = np.zeros((Wl.shape[1] * Wi.shape[1], D, D), dtype=complex)
        w.block(E, l, i)[...] = np.einsum("xa,yb->abxy", Wl, Wi.conj()) \
            .reshape(len(E), len(Wl), len(Wi))
        parts.append(E)
    return MatrixSubspace(D, np.concatenate(parts))


def _algebra(w: OqrwSpec, X: np.ndarray, off_diagonal: MatrixSubspace):
    D, v = w.total_dim, np.repeat(np.arange(w.n_vertices), w.local_dims)
    diagonal = np.zeros((len(X), D, D), dtype=complex)
    diagonal[:, v[:, None] == v] = X        # the units, row-major, as in X
    return MatrixSubspace(D, np.concatenate([diagonal, off_diagonal.basis]))


@dataclass(frozen=True)
class OqrwDfaReport:
    """Path-condition decoherence-free algebra with its off-diagonal
    part, and the multiplicative domain, the first step of the chain."""

    algebra: MatrixSubspace
    off_diagonal: MatrixSubspace
    multiplicative_domain: MatrixSubspace


def _advance_spans(w: OqrwSpec, spans, tol):
    """Span of (n+1)-step path operators from the n-step spans."""
    steps, out = {}, {}                 # the transitions by their source
    for (i, k), L in w.transitions.items():
        steps.setdefault(k, []).append((i, L))
    for (k, j), Ps in spans.items():
        for i, L in steps.get(k, ()):
            out.setdefault((i, j), []).extend(L @ P for P in Ps)
    bases = {key: span_basis(mats, tol) for key, mats in out.items()}
    return {key: basis for key, basis in bases.items() if len(basis)}


def oqrw_dfa(w: OqrwSpec, tol: Tolerances = DEFAULT_TOL) -> OqrwDfaReport:
    """N from the block conditions of n-step path operators, intersected
    over n = 1, 2, ... until the dimension repeats or falls to 1, and M
    from those of n = 1.

    The one-step conditions are A_ii L_ij L_kj* = L_ij L_kj* A_kk for edges
    (i, j), (k, j), and A_li L_ij = 0 = L_ij* A_il for l != i.  No condition
    couples an off-diagonal block to any other block, so M is a kernel on
    the block-diagonal units plus, at each block (l, i), exactly
    B(W_i, W_l), W_i the common kernel of the L* entering i.  An n-step
    path into i ends with a one-step path into i and so has a range inside
    the one-step ranges: the off-diagonal conditions of n = 1 imply those
    of every n, the off-diagonal part stays the sum of B(W_i, W_l),
    nonzero only if two vertices have a dead corner W_i != 0, and only the
    diagonal part (coefficient rows, embedded at the end) shrinks along the
    chain.  Each step ends it or lowers its dimension, at most D^2."""
    off_diagonal = _off_diagonal(w, tol)
    spans = {key: (L / hs_norm(L))[None] for key, L in w.transitions.items()
             if hs_norm(L) > tol.rank_tol}
    h, unit = w.local_dims, np.cumsum([0, *np.square(w.local_dims)])
    first = X = _first_diagonal(w, spans, unit, tol)
    prev_dim, dim = None, len(X) + off_diagonal.dim
    while dim != prev_dim and dim > 1:      # X's blocks: A[i] (dim, 1, d, d)
        spans, A = _advance_spans(w, spans, tol), [x.reshape(
            len(X), 1, d, d) for x, d in zip(np.split(X, unit[1:-1], 1), h)]
        X = kernel_coefficients(
            ((A[i] @ M - M @ A[k]).reshape(len(X), -1).T
             for i, k, M in _diagonal_conditions(w, spans)), len(X), tol).T @ X
        prev_dim, dim = dim, len(X) + off_diagonal.dim
    return OqrwDfaReport(algebra=_algebra(w, X, off_diagonal),
                         off_diagonal=off_diagonal,
                         multiplicative_domain=_algebra(w, first, off_diagonal))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def builder_cyclic_shift(d: int, unitaries,
                         tol: Tolerances = DEFAULT_TOL) -> OqrwSpec:
    """Walk on Z_d whose only moves are i-1 -> i via the unitary U_i."""
    unitaries = [np.asarray(U, dtype=complex) for U in unitaries]
    if d < 1 or len(unitaries) != d:
        raise DimensionMismatch("need d >= 1 and one unitary per vertex")
    h = unitaries[0].shape[0]
    for i, U in enumerate(unitaries):
        if U.shape != (h, h) or \
                spectral_norm(dagger(U) @ U - np.eye(h)) > tol.check_tol:
            raise NotUnitary(f"operator {i} is not unitary on a common space")
    transitions = {(i, (i - 1) % d): unitaries[i] for i in range(d)}
    return build(range(d), [h] * d, transitions, tol=tol,
                 label=f"cyclic-shift-{d}")


def pauli_pair(d: int):
    """Generalized Pauli unitaries: Z diagonal in phases, X the cyclic
    shift, obeying ZX = omega XZ with omega = exp(2i pi/d)."""
    omega = np.exp(2j * np.pi / d)
    Z = np.diag(omega ** np.arange(d))
    X = np.zeros((d, d), dtype=complex)
    for j in range(d):
        X[(j + 1) % d, j] = 1
    return Z, X


def builder_pauli_walk(d: int, alpha: float,
                       tol: Tolerances = DEFAULT_TOL) -> OqrwSpec:
    """Two-vertex walk mixing a phase unitary (stay) and a shift (move)."""
    if d < 2:
        raise ValueError("d must be at least 2")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie strictly between 0 and 1")
    Z, X = pauli_pair(d)
    stay = np.sqrt(alpha) * Z
    move = np.sqrt(1 - alpha) * X
    transitions = {(0, 0): stay, (1, 1): stay, (0, 1): move, (1, 0): move}
    return build([0, 1], [d, d], transitions, tol=tol,
                 label=f"pauli-walk-{d}")


def builder_nn_cycle(n: int, L_plus, L_minus,
                     tol: Tolerances = DEFAULT_TOL) -> OqrwSpec:
    """Homogeneous nearest-neighbor walk on Z_n with steps L_plus (up)
    and L_minus (down); for n < 3 the two steps would share an edge."""
    if n < 3:
        raise ValueError("n must be at least 3")
    L_plus = np.asarray(L_plus, dtype=complex)
    L_minus = np.asarray(L_minus, dtype=complex)
    h = L_plus.shape[0]
    transitions = {}
    for i in range(n):
        transitions[((i + 1) % n, i)] = L_plus
        transitions[((i - 1) % n, i)] = L_minus
    return build(range(n), [h] * n, transitions, tol=tol,
                 label=f"nn-cycle-{n}")


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def oqrw_to_json(w: OqrwSpec) -> dict:
    return {
        "vertices": list(w.vertices),
        "local_dims": list(w.local_dims),
        "transitions": [
            {"from": int(j), "to": int(i), "matrix": matrix_to_json(L)}
            for (i, j), L in sorted(w.transitions.items())
        ],
        "label": w.label,
    }


def oqrw_from_json(data, tol: Tolerances = DEFAULT_TOL) -> OqrwSpec:
    transitions = {
        (int(t["to"]), int(t["from"])): matrix_from_json(t["matrix"])
        for t in data["transitions"]
    }
    return build(data["vertices"], data["local_dims"], transitions,
                 tol=tol, label=data.get("label", ""))
