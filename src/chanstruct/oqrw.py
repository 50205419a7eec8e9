"""Open quantum random walks.

A walk assigns a local space h_i to each vertex and a transition operator
L_{i,j}: h_j -> h_i to each edge, with sum_i L_{i,j}* L_{i,j} = I per
column.  Flattening to a channel on the direct sum of the h_i makes the
generic machinery applicable; the block structure also admits direct
characterizations of the multiplicative domain and the decoherence-free
algebra which serve as independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chanstruct.algebra import OperatorAlgebra, full_algebra
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
    span_basis,
    spectral_norm,
    subspace_intersection,
)
from chanstruct.structure import NoStabilization


class ColumnNotNormalized(ValueError):
    """A column of transition operators fails sum L*L = I."""


class NotHomogeneous(ValueError):
    """Operation requires a homogeneous walk on a common local space."""


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
    cyclic: bool = False
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

    def operator(self, i: int, j: int) -> np.ndarray:
        """L as a matrix h_j -> h_i (zero when the edge is absent)."""
        L = self.transitions.get((i, j))
        if L is None:
            return np.zeros((self.local_dims[i], self.local_dims[j]),
                            dtype=complex)
        return L

    def block(self, A: np.ndarray, i: int, j: int) -> np.ndarray:
        """Block (i, j) of A, or of each matrix in a stack of them."""
        off = self.offsets
        return A[..., off[i]:off[i + 1], off[j]:off[j + 1]]


def build(vertices, local_dims, transitions,
          tol: Tolerances = DEFAULT_TOL, cyclic: bool = False,
          label: str = "") -> OqrwSpec:
    """Validate vertex data and transition operators into an OqrwSpec."""
    vertices = tuple(vertices)
    local_dims = tuple(int(d) for d in local_dims)
    if len(local_dims) != len(vertices):
        raise DimensionMismatch("one local dimension per vertex required")
    ops = {}
    for (i, j), L in transitions.items():
        L = np.asarray(L, dtype=complex)
        if L.shape != (local_dims[i], local_dims[j]):
            raise DimensionMismatch(
                f"transition ({i},{j}) has shape {L.shape}, expected "
                f"({local_dims[i]}, {local_dims[j]})")
        if hs_norm(L) > 0:
            ops[(i, j)] = L
    for j in range(len(vertices)):
        col = sum(dagger(L) @ L for (i, jj), L in ops.items() if jj == j)
        if np.isscalar(col):
            col = np.zeros((local_dims[j], local_dims[j]))
        defect = spectral_norm(col - np.eye(local_dims[j]))
        if defect > 100 * tol.eq_tol:
            raise ColumnNotNormalized(
                f"column {j} has unitality defect {defect:.3e}")
    homogeneous = _is_homogeneous(vertices, local_dims, ops)
    return OqrwSpec(vertices=vertices, local_dims=local_dims,
                    transitions=ops, homogeneous=homogeneous,
                    cyclic=cyclic, label=label)


def _is_homogeneous(vertices, local_dims, ops) -> bool:
    """True when every vertex sees the same operators keyed by
    displacement around the (cyclically interpreted) vertex list."""
    n = len(vertices)
    if len(set(local_dims)) != 1:
        return False
    reference = {(i - 0) % n: L for (i, j), L in ops.items() if j == 0}
    for j in range(1, n):
        seen = {(i - j) % n: L for (i, jj), L in ops.items() if jj == j}
        if set(seen) != set(reference):
            return False
        for disp, L in seen.items():
            if not np.allclose(L, reference[disp], atol=1e-12):
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


def local_map(w: OqrwSpec, tol: Tolerances = DEFAULT_TOL) -> ChannelSpec:
    """The vertex-independent local channel of a homogeneous walk."""
    if not w.homogeneous:
        raise NotHomogeneous("local map requires a homogeneous walk")
    ops = [L for (i, j), L in sorted(w.transitions.items()) if j == 0]
    return from_kraus(ops, tol=tol, label=f"{w.label or 'oqrw'}|local")


# ---------------------------------------------------------------------------
# Block-structure oracles for M and N
# ---------------------------------------------------------------------------

def _block_condition_rows(w: OqrwSpec, spans):
    """Multiplicative-domain style conditions from per-edge operator spans.

    spans maps (i, j) to a basis of the reachable operators h_j -> h_i.
    Yields functions of a stack of full matrices A expressing, per column j:
    A_ii P Q* = P Q* A_kk for P in spans[i,j], Q in spans[k,j], and
    A_li P = 0 = Q* A_lk for off-diagonal blocks (l, i).
    """
    n = w.n_vertices
    for j in range(n):
        incoming = [(i, spans[(i, j)]) for i in range(n) if (i, j) in spans]
        for i, Ps in incoming:
            for k, Qs in incoming:
                for P in Ps:
                    for Q in Qs:
                        M = P @ dagger(Q)

                        def diag_fn(A, i=i, k=k, M=M):
                            return w.block(A, i, i) @ M - M @ w.block(A, k, k)
                        yield diag_fn
            for l in range(n):
                if l == i:
                    continue
                for P in Ps:
                    def off_left(A, l=l, i=i, P=P):
                        return w.block(A, l, i) @ P
                    yield off_left

                    def off_right(A, l=l, i=i, P=P):
                        return dagger(P) @ w.block(A, i, l)
                    yield off_right


def oqrw_multiplicative_domain(w: OqrwSpec,
                               tol: Tolerances = DEFAULT_TOL) -> OperatorAlgebra:
    """M from the one-step block conditions on the transition operators."""
    spans = {key: [L] for key, L in w.transitions.items()}
    sub = full_algebra(w.total_dim).subspace.restrict(
        _block_condition_rows(w, spans), tol)
    return OperatorAlgebra(sub)


@dataclass(frozen=True)
class OqrwDfaReport:
    """Path-condition decoherence-free algebra with its block split."""

    algebra: OperatorAlgebra
    diagonal: MatrixSubspace
    off_diagonal: MatrixSubspace
    dead_corners: tuple          # dim of W_i per vertex
    diagonal_forced: bool        # at most one W_i nonzero
    stabilized_at: int


def _advance_spans(w: OqrwSpec, spans, tol):
    """Span of (n+1)-step path operators from the n-step spans."""
    out = {}
    for (k, j), Ps in spans.items():
        for (i, kk), L in w.transitions.items():
            if kk != k:
                continue
            out.setdefault((i, j), []).extend(L @ P for P in Ps)
    return {key: span_basis(mats, tol)
            for key, mats in out.items()
            if any(hs_norm(m) > tol.rank_tol for m in mats)}


def oqrw_dfa(w: OqrwSpec, n_max: int | None = None,
             tol: Tolerances = DEFAULT_TOL) -> OqrwDfaReport:
    """N from path-operator conditions, intersected until stabilization.

    Also splits N into its block-diagonal and block-off-diagonal parts
    and evaluates the dead-corner criterion: off-diagonal elements can
    only exist when at least two vertices have a nonzero common
    orthogonal complement of the incoming ranges.
    """
    D = w.total_dim
    cap = n_max if n_max is not None else D * D
    spans = {key: span_basis([L], tol) for key, L in w.transitions.items()}
    sub = full_algebra(D).subspace
    prev_dim = None
    stabilized = None
    for n in range(1, cap + 1):
        sub = sub.restrict(_block_condition_rows(w, spans), tol)
        if prev_dim is not None and sub.dim == prev_dim:
            stabilized = n
            break
        if sub.dim <= 1:
            stabilized = n
            break
        prev_dim = sub.dim
        spans = _advance_spans(w, spans, tol)
    if stabilized is None:
        raise NoStabilization(
            f"path-condition chain still at dim {sub.dim} after n={cap}")

    off = w.offsets
    mask = np.zeros((D, D))
    for i in range(w.n_vertices):
        mask[off[i]:off[i + 1], off[i]:off[i + 1]] = 1
    units = np.eye(D * D).reshape(-1, D, D)
    diag_space = MatrixSubspace(D, units[mask.ravel() == 1])
    offd_space = MatrixSubspace(D, units[mask.ravel() == 0])
    diagonal = subspace_intersection(sub, diag_space, tol=tol)
    off_diagonal = subspace_intersection(sub, offd_space, tol=tol)

    dead = []
    for i in range(w.n_vertices):
        cols = [L for (ii, j), L in w.transitions.items() if ii == i]
        if cols:
            stacked = np.concatenate(cols, axis=1)
            rank = np.linalg.matrix_rank(stacked, tol=1e3 * tol.rank_tol)
        else:
            rank = 0
        dead.append(w.local_dims[i] - rank)
    forced = sum(1 for x in dead if x > 0) <= 1
    return OqrwDfaReport(algebra=OperatorAlgebra(sub), diagonal=diagonal,
                         off_diagonal=off_diagonal, dead_corners=tuple(dead),
                         diagonal_forced=forced, stabilized_at=stabilized)


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
                spectral_norm(dagger(U) @ U - np.eye(h)) > 100 * tol.eq_tol:
            raise NotUnitary(f"operator {i} is not unitary on a common space")
    transitions = {(i, (i - 1) % d): unitaries[i] for i in range(d)}
    return build(range(d), [h] * d, transitions, tol=tol, cyclic=True,
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
    return build([0, 1], [d, d], transitions, tol=tol, cyclic=True,
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
    return build(range(n), [h] * n, transitions, tol=tol, cyclic=True,
                 label=f"nn-cycle-{n}")


def detect_special_basis(L_plus, L_minus, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis making one step operator diagonal and the other
    off-diagonal, when such a basis exists (2x2 operators only).

    Returns a 2x2 unitary whose columns are the basis, or None.
    """
    L_plus = np.asarray(L_plus, dtype=complex)
    L_minus = np.asarray(L_minus, dtype=complex)
    for A, B in ((L_minus, L_plus), (L_plus, L_minus)):
        basis = _diagonalizing_basis_with_offdiag(A, B, tol)
        if basis is not None:
            return basis
    return None


def _diagonalizing_basis_with_offdiag(A, B, tol):
    """Basis where A is diagonal and B off-diagonal, or None."""
    scale = max(spectral_norm(A), spectral_norm(B), 1.0)
    if spectral_norm(A @ dagger(A) - dagger(A) @ A) > 100 * tol.eq_tol * scale:
        return None                      # A cannot be unitarily diagonalized
    if spectral_norm(A - np.trace(A) / 2 * np.eye(2)) <= 100 * tol.eq_tol * scale:
        # degenerate: A is (near) scalar, any basis keeps it diagonal;
        # B must square to a scalar without being one itself
        if spectral_norm(B - np.trace(B) / 2 * np.eye(2)) <= 100 * tol.eq_tol * scale:
            return None
        B2 = B @ B
        lam = np.trace(B2) / 2
        if spectral_norm(B2 - lam * np.eye(2)) > 100 * tol.eq_tol * scale ** 2:
            return None
        if abs(lam) > (100 * tol.eq_tol * scale) ** 2:
            BtB = dagger(B) @ B
            if spectral_norm(BtB - np.trace(BtB) / 2 * np.eye(2)) \
                    > 100 * tol.eq_tol * scale ** 2:
                # non-normal B: the sought basis diagonalizes B*B
                basis = np.linalg.eigh(BtB)[1]
            else:
                # normal B: split the +/- sqrt(lam) eigenlines evenly
                V = np.linalg.qr(np.linalg.eig(B)[1])[0]
                f0 = (V[:, 0] + V[:, 1]) / np.sqrt(2)
                f1 = (V[:, 0] - V[:, 1]) / np.sqrt(2)
                basis = np.column_stack([f0, f1])
        else:
            # nilpotent: B = |u><v| with orthogonal u, v
            u_, s_, vh_ = np.linalg.svd(B)
            basis = np.column_stack([vh_[0].conj(), u_[:, 0]])
        return _validated_basis(A, B, basis, tol, scale)
    w, V = np.linalg.eig(A)
    V = np.linalg.qr(V)[0]               # orthogonal since A is normal
    return _validated_basis(A, B, V, tol, scale)


def _validated_basis(A, B, basis, tol, scale):
    Ad = dagger(basis) @ A @ basis
    Bd = dagger(basis) @ B @ basis
    diag_ok = abs(Ad[0, 1]) + abs(Ad[1, 0]) <= 1e3 * tol.eq_tol * scale
    off_ok = abs(Bd[0, 0]) + abs(Bd[1, 1]) <= 1e3 * tol.eq_tol * scale
    return basis if (diag_ok and off_ok) else None


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
