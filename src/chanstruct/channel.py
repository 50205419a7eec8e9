"""Quantum channels in Kraus form and their derived objects.

A channel here is the unital dual map ``Phi(A) = sum_k V_k* A V_k`` with
``sum_k V_k* V_k = I``; its preadjoint acts on densities as
``Phi_*(rho) = sum_k V_k rho V_k*`` and preserves trace.

The Kraus operators are one (K, D, D) stack, used on their supports; its
(K, D^2) row-major reshape Vm is the Kraus matrix.

Choi convention (pinned): ``C = sum_ij E_ij (x) Phi(E_ij) = A A*`` with
A = Vm* (the columns are the row-major conj(V_k)); C is PSD iff Phi is
completely positive and rank(C) is the minimal Kraus count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    Tolerances,
    dagger,
    kraus_transfer,
    live_rows,
    spectral_norm,
    support_groups,
    take,
)


class NotUnital(ValueError):
    """Kraus list fails sum V* V = I within eq_tol; ``channel`` is the
    rejected map."""

    def __init__(self, channel: ChannelSpec):
        super().__init__(f"sum V*V deviates from I by "
                         f"{channel.unitality_defect:.3e}")
        self.channel = channel


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A validated channel: dimension, Kraus operators stacked as a
    (K, D, D) array, free-form label.  The stages read the transfer matrix
    only through ``transfer_blocks``, its split found once from the Kraus
    supports; no stage forms it dense."""

    dim: int
    kraus: np.ndarray
    label: str = ""

    @cached_property
    def unitality_defect(self) -> float:
        V = live_rows(self.kraus.reshape(-1, self.dim))  # the V_k's rows
        return spectral_norm(dagger(V) @ V - np.eye(self.dim))

    @cached_property
    def supports(self) -> tuple:
        """The live rows and the live columns of each V_k, (K, D) masks."""
        return self.kraus.any(axis=2), self.kraus.any(axis=1)

    @cached_property
    def kraus_blocks(self) -> list:
        """(V_k[R, C], R, C), D^2 entries a chunk (numerics.support_groups)."""
        return list(support_groups(self.kraus, *self.supports, lambda r, c:
                                   self.dim ** 2 // max(r, c) ** 2))

    def _sandwich(self, A, blocks) -> np.ndarray:
        A, D = np.asarray(A, dtype=complex), self.dim
        if A.shape[-2:] != (D, D):
            raise DimensionMismatch(f"expected {(D, D)}, got {A.shape}")
        out = np.zeros((A.size // D ** 2, D * D), dtype=complex)
        for V, R, C in blocks:          # each matrix as one row of out
            X = (dagger(V) @ take(A, R, R) @ V).reshape(len(out), -1)
            if C.shape[1] == D:         # then the chunk is one operator
                out += X
            else:
                np.add.at(out, (slice(None), (C[:, :, None] * D
                                              + C[:, None]).ravel()), X)
        return out.reshape(A.shape)

    def apply(self, A: np.ndarray) -> np.ndarray:
        """Phi(A) = sum_k V_k* A V_k, of one matrix or of each in a stack,
        on the supports: V_k[R, C]* A[R, R] V_k[R, C] at (C, C)."""
        return self._sandwich(A, self.kraus_blocks)

    def preadjoint_apply(self, rho: np.ndarray) -> np.ndarray:
        """Phi_*(rho) = sum_k V_k rho V_k* (trace preserving), likewise."""
        return self._sandwich(rho, [(dagger(V), C, R)
                                    for V, R, C in self.kraus_blocks])

    @cached_property
    def transfer_blocks(self) -> list:
        """The split of the transfer matrix T = sum_k V_k^T (x) V_k* of Phi
        (column-stacking; numerics.kraus_transfer), the HS adjoint of
        Phi_*'s: T[(i, j), (l, m)] = sum_k V_k[l, i] conj(V_k[m, j])."""
        return kraus_transfer(self.kraus, self.kraus)

    def minimal_kraus(self, tol: Tolerances = DEFAULT_TOL) -> "ChannelSpec":
        """Equivalent channel whose Kraus count is the Choi rank: with the
        SVD Vm = U diag(s) Wh, C = A A* has the eigenpairs (s^2, Wh*), so
        the operators are s_i Wh[i] (ascending in s), pairwise
        HS-orthogonal."""
        D, Vm = self.dim, self.kraus.reshape(-1, self.dim ** 2)
        live = Vm.any(axis=0)               # a zero column adds nothing
        _, s, wh = np.linalg.svd(live_rows(Vm.T).T, full_matrices=False)
        keep = s[::-1] ** 2 > tol.rank_tol * s[0] ** 2
        ops = np.zeros((keep.sum(), D * D), dtype=complex)
        ops[:, live] = (s[::-1, None] * wh[::-1])[keep]
        return ChannelSpec(D, ops.reshape(-1, D, D), self.label + " (minimal)")


def from_kraus(matrices, tol: Tolerances = DEFAULT_TOL,
               label: str = "") -> ChannelSpec:
    """Validate Kraus operators, a (K, D, D) array (kept as given when
    complex) or a list of D x D matrices, into a ChannelSpec (unitality
    enforced)."""
    if not isinstance(matrices, np.ndarray):
        matrices = list(matrices)
        if len(shapes := {np.shape(M) for M in matrices}) > 1:
            raise DimensionMismatch(f"Kraus shapes differ: {shapes}")
    V = np.asarray(matrices, dtype=complex)
    if not len(V):
        raise ValueError("Kraus list must be nonempty")
    if V.ndim != 3 or V.shape[1] != V.shape[2]:
        raise DimensionMismatch(
            f"Kraus operators of shape {V.shape[1:]} are not D x D")
    if not np.all(np.isfinite(V)):
        raise ValueError("Kraus operator has non-finite entries")
    c = ChannelSpec(V.shape[1], V, label=label)
    if c.unitality_defect > tol.eq_tol:
        raise NotUnital(c)
    return c


# ---------------------------------------------------------------------------
# JSON wire format: matrices row-major, complex entries as [re, im] pairs.
# ---------------------------------------------------------------------------

def matrix_to_json(M: np.ndarray) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    pairs = np.array(rows)                  # a ValueError if ragged
    if pairs.dtype.kind not in "biuf" or pairs.shape[2:] != (2,):
        raise ValueError(f"not rows of [re, im] pairs: shape {pairs.shape}")
    return pairs.astype(float).view(complex)[..., 0]


def channel_to_json(c: ChannelSpec) -> dict:
    return {
        "dim": c.dim,
        "kraus": [matrix_to_json(V) for V in c.kraus],
        "label": c.label,
    }


def channel_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> ChannelSpec:
    mats = [matrix_from_json(m) for m in data["kraus"]]
    # checked first: verify reads a NotUnital as a failed ledger entry
    if mats and len(mats[0]) != int(data["dim"]):
        raise DimensionMismatch(f"declared dim {data['dim']} but the "
                                f"matrices have {len(mats[0])} rows")
    return from_kraus(mats, tol=tol, label=data.get("label", ""))
