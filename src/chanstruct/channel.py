"""Quantum channels in Kraus form and their derived objects.

A channel here is the unital dual map ``Phi(A) = sum_k V_k* A V_k`` with
``sum_k V_k* V_k = I``; its preadjoint acts on densities as
``Phi_*(rho) = sum_k V_k rho V_k*`` and preserves trace.

The Kraus operators are one (K, D, D) stack; its (K, D^2) row-major
reshape Vm is the Kraus matrix.

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
    spectral_norm,
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
        V = self.kraus.reshape(-1, self.dim)     # the V_k stacked as rows
        return spectral_norm(dagger(V) @ V - np.eye(self.dim))

    def apply(self, A: np.ndarray) -> np.ndarray:
        """Phi(A) = sum_k V_k* A V_k, of one matrix or of each in a stack."""
        A = np.asarray(A, dtype=complex)
        if A.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch(f"expected {(self.dim, self.dim)}, got {A.shape}")
        return sum(dagger(V) @ A @ V for V in self.kraus)

    def preadjoint_apply(self, rho: np.ndarray) -> np.ndarray:
        """Phi_*(rho) = sum_k V_k rho V_k* (trace preserving)."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"expected {(self.dim, self.dim)}, got {rho.shape}")
        return sum(V @ rho @ dagger(V) for V in self.kraus)

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
        D = self.dim
        _, s, wh = np.linalg.svd(self.kraus.reshape(-1, D * D),
                                 full_matrices=False)
        keep = s[::-1] ** 2 > tol.rank_tol * s[0] ** 2
        ops = (s[::-1, None] * wh[::-1])[keep].reshape(-1, D, D)
        return ChannelSpec(self.dim, ops, label=self.label + " (minimal)")


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
    return np.array([[complex(c[0], c[1]) for c in row] for row in rows])


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
