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
)
from chanstruct.structure import NoStabilization


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
        col = sum(dagger(L) @ L for (i, jj), L in ops.items() if jj == j)
        if np.isscalar(col):
            col = np.zeros((local_dims[j], local_dims[j]))
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
    D = w.total_dim
    off = w.offsets
    kraus = []
    for (i, j), L in sorted(w.transitions.items()):
        V = np.zeros((D, D), dtype=complex)
        V[off[i]:off[i + 1], off[j]:off[j + 1]] = L
        kraus.append(V)
    return from_kraus(kraus, tol=tol, label=w.label or "oqrw")


# ---------------------------------------------------------------------------
# Block-structure oracles for M and N
# ---------------------------------------------------------------------------

def _diagonal_conditions(w: OqrwSpec, spans):
    """A_ii M = M A_kk for M = P Q*, P in spans[i, j], Q in spans[k, j] over
    the common sources j: one closure per vertex pair (i, k).  The stack S
    of the P Q* enters as the triangular R of its QR: R*R = S*S keeps the
    Gram matrix, hence the kernel, of the constraint."""
    n, h = w.n_vertices, w.local_dims
    for i, k in itertools.product(range(n), repeat=2):
        prods = [np.einsum("pab,qcb->pqac", spans[(i, j)],
                           spans[(k, j)].conj()).reshape(-1, h[i] * h[k])
                 for j in range(n) if (i, j) in spans and (k, j) in spans]
        if prods:
            M = np.linalg.qr(np.concatenate(prods), mode="r") \
                .reshape(-1, h[i], h[k])
            yield lambda A, i=i, k=k, M=M: (w.block(A, i, i)[:, None] @ M
                                            - M @ w.block(A, k, k)[:, None])


def _diagonal_chain(w: OqrwSpec, spans, tol):
    """The diagonal parts cut out of the sum h_i^2 block-diagonal matrix
    units by the conditions of 1-, 2-, ... step paths, cumulatively;
    spans holds the one-step operators."""
    D = w.total_dim
    vertex = np.repeat(np.arange(w.n_vertices), w.local_dims)
    rows, cols = np.nonzero(vertex[:, None] == vertex)
    units = np.zeros((len(rows), D, D))
    units[np.arange(len(rows)), rows, cols] = 1
    diagonal = MatrixSubspace(D, units)
    while True:
        diagonal = diagonal.restrict(_diagonal_conditions(w, spans), tol)
        yield diagonal
        spans = _advance_spans(w, spans, tol)


def _off_diagonal(w: OqrwSpec, tol) -> MatrixSubspace:
    """The sum of B(W_i, W_l) at the blocks (l, i), l != i, with W_i the
    common kernel of the L* entering i."""
    W = [kernel_coefficients([dagger(L) for (i, _), L
                              in w.transitions.items() if i == v],
                             w.local_dims[v], tol)
         for v in range(w.n_vertices)]
    D = w.total_dim
    parts = [np.zeros((0, D, D), dtype=complex)]
    for (l, Wl), (i, Wi) in itertools.permutations(enumerate(W), 2):
        E = np.zeros((Wl.shape[1] * Wi.shape[1], D, D), dtype=complex)
        w.block(E, l, i)[...] = np.einsum("xa,yb->abxy", Wl, Wi.conj()) \
            .reshape(len(E), len(Wl), len(Wi))
        parts.append(E)
    return MatrixSubspace(D, np.concatenate(parts))


def _algebra(diagonal: MatrixSubspace, off_diagonal: MatrixSubspace):
    return MatrixSubspace(diagonal.ambient_dim, np.concatenate(
        [diagonal.basis, off_diagonal.basis]))


@dataclass(frozen=True)
class OqrwDfaReport:
    """Path-condition decoherence-free algebra with its off-diagonal
    part, and the multiplicative domain, the first step of the chain."""

    algebra: MatrixSubspace
    off_diagonal: MatrixSubspace
    multiplicative_domain: MatrixSubspace


def _advance_spans(w: OqrwSpec, spans, tol):
    """Span of (n+1)-step path operators from the n-step spans."""
    out = {}
    for (k, j), Ps in spans.items():
        for (i, kk), L in w.transitions.items():
            if kk != k:
                continue
            out.setdefault((i, j), []).extend(L @ P for P in Ps)
    bases = {key: span_basis(mats, tol) for key, mats in out.items()}
    return {key: basis for key, basis in bases.items() if len(basis)}


def oqrw_dfa(w: OqrwSpec, n_max: int | None = None,
             tol: Tolerances = DEFAULT_TOL) -> OqrwDfaReport:
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
    diagonal part shrinks along the chain."""
    cap = n_max if n_max is not None else w.total_dim ** 2
    off_diagonal = _off_diagonal(w, tol)
    spans = {key: span_basis([L], tol) for key, L in w.transitions.items()}
    steps = _diagonal_chain(w, spans, tol)
    first = next(steps)
    prev_dim = None
    for _, diagonal in zip(range(cap), itertools.chain([first], steps)):
        dim = diagonal.dim + off_diagonal.dim
        if dim == prev_dim or dim <= 1:
            break
        prev_dim = dim
    else:
        raise NoStabilization(
            f"path-condition chain still at dim {prev_dim} after n={cap}")
    return OqrwDfaReport(algebra=_algebra(diagonal, off_diagonal),
                         off_diagonal=off_diagonal,
                         multiplicative_domain=_algebra(first, off_diagonal))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def builder_cyclic_shift(d: int, unitaries,
                         tol: Tolerances = DEFAULT_TOL) -> OqrwSpec:
    """Walk on Z_d whose only moves are i-1 -> i via the unitary U_i."""
    unitaries = [np.asarray(U, dtype=complex) for U in unitaries]
    if len(unitaries) != d:
        raise DimensionMismatch("need one unitary per vertex")
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
    and L_minus (down)."""
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
