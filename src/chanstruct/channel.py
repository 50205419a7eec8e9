"""Quantum channels in Kraus form and their derived objects.

A channel here is the unital dual map ``Phi(A) = sum_k V_k* A V_k`` with
``sum_k V_k* V_k = I``; its preadjoint acts on densities as
``Phi_*(rho) = sum_k V_k rho V_k*`` and preserves trace.

Choi convention (pinned): ``C = sum_ij E_ij (x) Phi(E_ij)`` with E_ij the
matrix units; C is PSD iff Phi is completely positive and rank(C) is the
minimal Kraus count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    Tolerances,
    dagger,
    spectral_norm,
)


class NotUnital(ValueError):
    """Kraus list fails sum V* V = I within tolerance."""


class NotCP(ValueError):
    """Choi matrix has a significantly negative eigenvalue."""


@dataclass(frozen=True)
class ChannelSpec:
    """A validated channel: dimension, Kraus list, free-form label."""

    dim: int
    kraus: tuple
    label: str = ""
    tol: Tolerances = field(default=DEFAULT_TOL, compare=False)

    @property
    def unitality_defect(self) -> float:
        D = self.dim
        acc = sum(dagger(V) @ V for V in self.kraus)
        return spectral_norm(acc - np.eye(D))

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
    def transfer(self) -> np.ndarray:
        """D^2 x D^2 matrix of Phi in the column-stacking convention; its HS
        adjoint is the transfer matrix of Phi_*."""
        return sum(np.kron(V.T, dagger(V)) for V in self.kraus)

    def power(self, n: int) -> np.ndarray:
        """Transfer matrix of Phi^n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        return np.linalg.matrix_power(self.transfer, n)

    @cached_property
    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij E_ij (x) Phi(E_ij)."""
        D = self.dim
        C = np.zeros((D * D, D * D), dtype=complex)
        for V in self.kraus:
            w = V.conj().flatten(order="C")
            C += np.outer(w, w.conj())
        return C

    def minimal_kraus(self) -> "ChannelSpec":
        """Equivalent channel whose Kraus count is the Choi rank.

        The returned Kraus operators are pairwise HS-orthogonal.
        """
        C = self.choi
        cnorm = spectral_norm(C)
        w, U = np.linalg.eigh((C + dagger(C)) / 2)
        if cnorm > 0 and w.min() < -self.tol.eq_tol * cnorm:
            raise NotCP(f"Choi eigenvalue {w.min():.3e}")
        keep = w > self.tol.rank_tol * max(cnorm, 1e-300)
        ops = []
        for i in np.nonzero(keep)[0]:
            v = np.sqrt(w[i]) * U[:, i]
            ops.append(v.reshape(self.dim, self.dim, order="C").conj())
        return ChannelSpec(self.dim, tuple(ops), label=self.label + " (minimal)",
                           tol=self.tol)

    def stinespring(self) -> "StinespringData":
        """Isometry V = sum_k V_k (x) |e_k> with V*(A (x) I)V = Phi(A)."""
        K = len(self.kraus)
        arr = np.stack(self.kraus)            # (K, D, D)
        V = arr.transpose(1, 0, 2).reshape(self.dim * K, self.dim)
        return StinespringData(isometry=V, env_dim=K)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "kraus": [matrix_to_json(V) for V in self.kraus],
            "label": self.label,
        }


@dataclass(frozen=True)
class StinespringData:
    """Stacked-Kraus isometry V: H -> H (x) K and the environment size."""

    isometry: np.ndarray
    env_dim: int


def from_kraus(matrices, tol: Tolerances = DEFAULT_TOL,
               label: str = "") -> ChannelSpec:
    """Validate a Kraus list into a ChannelSpec (unitality enforced)."""
    mats = [np.asarray(M, dtype=complex) for M in matrices]
    if not mats:
        raise ValueError("Kraus list must be nonempty")
    D = mats[0].shape[0]
    for M in mats:
        if M.shape != (D, D):
            raise DimensionMismatch(f"Kraus shapes differ: {M.shape} vs {(D, D)}")
        if not np.all(np.isfinite(M)):
            raise ValueError("Kraus operator has non-finite entries")
    c = ChannelSpec(D, tuple(mats), label=label, tol=tol)
    defect = c.unitality_defect
    if defect > tol.eq_tol:
        raise NotUnital(f"sum V*V deviates from I by {defect:.3e}")
    return c


# ---------------------------------------------------------------------------
# JSON wire format: matrices row-major, complex entries as [re, im] pairs.
# ---------------------------------------------------------------------------

def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(M, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(c[0], c[1]) for c in row] for row in rows])


def channel_to_json(c: ChannelSpec) -> dict:
    return c.to_json_dict()


def channel_from_json(data: dict, tol: Tolerances = DEFAULT_TOL) -> ChannelSpec:
    mats = [matrix_from_json(m) for m in data["kraus"]]
    c = from_kraus(mats, tol=tol, label=data.get("label", ""))
    if c.dim != int(data["dim"]):
        raise DimensionMismatch(
            f"declared dim {data['dim']} but matrices are {c.dim}x{c.dim}")
    return c
