"""Structure theory of a single channel.

Fixed points F, multiplicative domain M, decoherence-free algebra N,
reversible/stable splitting, conditional expectations onto F and N,
invariant states, irreducibility and the decoherence spectral gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chanstruct import algebra as alg_mod
from chanstruct.algebra import (
    ConditionalExpectation,
    OperatorAlgebra,
    atomic_structure,
    commutant,
    extract_block_states,
    restrict_to_commutant,
)
from chanstruct.channel import ChannelSpec
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    dagger,
    hs_norm,
    kernel_basis,
    reduce_span,
    spectral_norm,
    spectral_projector,
    unvec,
    vec,
)


class NoFaithfulInvariantState(RuntimeError):
    """Operation requires a faithful invariant state and none was found."""


class PeripheralJordanBlock(RuntimeError):
    """A peripheral eigenvalue appears numerically defective."""


class NoStabilization(RuntimeError):
    """The multiplicative-domain chain did not stabilize by the cap."""


class CesaroNotConverged(RuntimeError):
    """Cesaro-averaged expectation disagrees with the spectral one."""


class NoInvariantState(RuntimeError):
    """No PSD fixed point of the preadjoint was found (internal error for
    unital trace-preserving maps at finite dimension)."""


@dataclass(frozen=True)
class FixedPointSpace:
    """Fixed points of a channel; an algebra whenever product-closed."""

    subspace: MatrixSubspace
    is_algebra: bool

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def as_algebra(self) -> OperatorAlgebra:
        if not self.is_algebra:
            raise alg_mod.NotAlgebra("fixed-point space is not product-closed")
        return OperatorAlgebra(self.subspace)


@dataclass(frozen=True)
class InvariantStateReport:
    """Eigenvalue-1 space of the preadjoint and a maximal-support fixed
    density built from it."""

    basis: MatrixSubspace
    rho_max: np.ndarray
    faithful: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class PeripheralData:
    """Peripheral eigen-decomposition and the expectation onto N."""

    eigenvalues: tuple
    eigenmatrices: tuple
    e_n_transfer: np.ndarray
    reversible: MatrixSubspace

    @property
    def dim(self) -> int:
        return self.reversible.ambient_dim

    def apply_expectation(self, X: np.ndarray) -> np.ndarray:
        return unvec(self.e_n_transfer @ vec(np.asarray(X, dtype=complex)),
                     self.dim)


@dataclass(frozen=True)
class L2Structure:
    """Weighted L2 geometry <x, y> = trace(rho x* y) for a faithful rho."""

    rho: np.ndarray
    gram_sqrt: np.ndarray
    gram_inv_sqrt: np.ndarray

    @classmethod
    def from_state(cls, rho: np.ndarray,
                   tol: Tolerances = DEFAULT_TOL) -> "L2Structure":
        rho = np.asarray(rho, dtype=complex)
        w, V = np.linalg.eigh((rho + dagger(rho)) / 2)
        if w.min() < tol.rank_tol:
            raise NoFaithfulInvariantState(
                f"state eigenvalue {w.min():.3e} below rank_tol")
        s = (V * np.sqrt(w)) @ dagger(V)
        s_inv = (V / np.sqrt(w)) @ dagger(V)
        D = rho.shape[0]
        return cls(rho=rho,
                   gram_sqrt=np.kron(s.T, np.eye(D)),
                   gram_inv_sqrt=np.kron(s_inv.T, np.eye(D)))

    def norm(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=complex)
        return float(np.sqrt(max(np.real(
            np.trace(self.rho @ dagger(x) @ x)), 0.0)))

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ dagger(x) @ y))

    def map_norm(self, transfer: np.ndarray) -> float:
        """Operator norm of a map in the rho-weighted L2 geometry."""
        return spectral_norm(self.gram_sqrt @ transfer @ self.gram_inv_sqrt)


@dataclass(frozen=True)
class GapReport:
    """Finite-horizon and asymptotic decoherence decay rates."""

    finite_horizon: float
    asymptotic: float
    horizon: int
    per_step: tuple
    uniform_bound: bool


# ---------------------------------------------------------------------------
# Fixed points and invariant states
# ---------------------------------------------------------------------------

def fixed_points(c: ChannelSpec, tol: Tolerances = DEFAULT_TOL) -> FixedPointSpace:
    """Kernel of (transfer - I); flagged as algebra when product-closed."""
    sub = kernel_basis(c.transfer - np.eye(c.dim ** 2), tol=tol)
    closed = True
    for a in sub.basis:
        if sub.residual(dagger(a)) > tol.eq_tol:
            closed = False
            break
        for b in sub.basis:
            if sub.residual(a @ b) > 10 * tol.eq_tol:
                closed = False
                break
        if not closed:
            break
    return FixedPointSpace(subspace=sub, is_algebra=closed)


def invariant_states(c: ChannelSpec,
                     tol: Tolerances = DEFAULT_TOL) -> InvariantStateReport:
    """Preadjoint fixed densities and a maximal-support candidate.

    rho_max is the eigenvalue-1 spectral projection of the preadjoint
    applied to I/D, symmetrized, clipped at rank_tol and renormalized.
    """
    D = c.dim
    Ts = c.preadjoint_transfer
    basis = kernel_basis(Ts - np.eye(D * D), tol=tol)
    proj = spectral_projector(Ts, lambda lam: abs(lam - 1) <= tol.peripheral_band)
    rho = unvec(proj @ vec(np.eye(D) / D), D)
    rho = (rho + dagger(rho)) / 2
    w, V = np.linalg.eigh(rho)
    w = np.where(np.abs(w) <= tol.rank_tol, 0.0, w)
    rho = (V * w) @ dagger(V)
    tr = float(np.real(np.trace(rho)))
    if tr <= tol.rank_tol or w.min() < -10 * tol.rank_tol:
        raise NoInvariantState(
            f"projection of I/D gave trace {tr:.3e}, min eig {w.min():.3e}")
    rho /= tr
    resid = hs_norm(c.preadjoint_apply(rho) - rho)
    if resid > 100 * tol.eq_tol:
        raise NoInvariantState(f"candidate not invariant, residual {resid:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    return InvariantStateReport(basis=basis, rho_max=rho,
                                faithful=min_eig > 10 * tol.rank_tol,
                                min_eigenvalue=min_eig)


def fixed_points_commutant(c: ChannelSpec, inv: InvariantStateReport,
                           tol: Tolerances = DEFAULT_TOL) -> OperatorAlgebra:
    """F as the commutant of the Kraus operators (faithful case only)."""
    if not inv.faithful:
        raise NoFaithfulInvariantState(
            "commutant formula for F needs a faithful invariant state")
    return commutant(list(c.kraus), dim=c.dim, tol=tol)


def is_irreducible(c: ChannelSpec, inv: InvariantStateReport,
                   tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the fixed points are trivial (faithful case only)."""
    if not inv.faithful:
        raise NoFaithfulInvariantState(
            "irreducibility criterion needs a faithful invariant state")
    return fixed_points(c, tol=tol).dim == 1


# ---------------------------------------------------------------------------
# Multiplicative domain and decoherence-free algebra
# ---------------------------------------------------------------------------

def multiplicative_domain(c: ChannelSpec,
                          tol: Tolerances = DEFAULT_TOL) -> OperatorAlgebra:
    """M = commutant of {V_j V_k*}, re-verified on the definitional test."""
    gens = [Vj @ dagger(Vk) for Vj in c.kraus for Vk in c.kraus]
    M = commutant(gens, dim=c.dim, tol=tol)
    for b in M.basis:
        lhs = c.apply(dagger(b) @ b)
        rhs = dagger(c.apply(b)) @ c.apply(b)
        if spectral_norm(lhs - rhs) > 100 * tol.eq_tol:
            raise RuntimeError(
                "commutant route disagrees with the multiplicativity test")
    return M


def kraus_word_basis(c: ChannelSpec, n: int,
                     tol: Tolerances = DEFAULT_TOL) -> list:
    """Orthonormal basis of the span of length-n Kraus words."""
    basis = reduce_span(list(c.kraus), dim=c.dim, tol=tol)
    for _ in range(n - 1):
        basis = reduce_span([V @ B for V in c.kraus for B in basis],
                            dim=c.dim, tol=tol)
    return basis


def _word_generators(word_basis, dim, tol):
    return reduce_span([b @ dagger(w) for b in word_basis for w in word_basis],
                       dim=dim, tol=tol)


def dfa(c: ChannelSpec, tol: Tolerances = DEFAULT_TOL,
        n_max: int | None = None) -> OperatorAlgebra:
    """N = intersection of the multiplicative domains of all powers.

    Computed as the commutant of n-step Kraus words against their
    adjoints, intersected over n until the dimension stabilizes.
    """
    D = c.dim
    cap = n_max if n_max is not None else D * D
    current = alg_mod.full_algebra(D).subspace
    words = reduce_span(list(c.kraus), dim=D, tol=tol)
    prev_dim = None
    for n in range(1, cap + 1):
        gens = _word_generators(words, D, tol)
        current = restrict_to_commutant(current, gens, tol=tol)
        if prev_dim is not None and current.dim == prev_dim:
            return OperatorAlgebra(current)
        if current.dim <= 1:
            return OperatorAlgebra(current)
        prev_dim = current.dim
        words = reduce_span([V @ B for V in c.kraus for B in words],
                            dim=D, tol=tol)
    raise NoStabilization(
        f"multiplicative-domain chain still at dim {current.dim} after n={cap}")


# ---------------------------------------------------------------------------
# Peripheral splitting
# ---------------------------------------------------------------------------

def peripheral_subalgebra(c: ChannelSpec, inv: InvariantStateReport,
                          tol: Tolerances = DEFAULT_TOL) -> PeripheralData:
    """Peripheral eigen-decomposition of the transfer matrix and the
    spectral-projection realization of the expectation onto N."""
    if not inv.faithful:
        raise NoFaithfulInvariantState(
            "peripheral splitting needs a faithful invariant state")
    T = c.transfer
    w, V = np.linalg.eig(T)
    band = 1.0 - tol.peripheral_band
    idx = np.nonzero(np.abs(w) > band)[0]
    Vp = V[:, idx]
    if idx.size:
        s = np.linalg.svd(Vp, compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            raise PeripheralJordanBlock(
                f"peripheral eigenvector conditioning {s[-1] / s[0]:.3e}")
    E = spectral_projector(T, lambda lam: abs(lam) > band)
    mats = []
    for k, i in enumerate(idx):
        X = unvec(Vp[:, k], c.dim)
        resid = hs_norm(unvec(T @ Vp[:, k], c.dim) - w[i] * X)
        if resid > 100 * tol.eq_tol * hs_norm(X):
            raise PeripheralJordanBlock(
                f"eigenpair residual {resid:.3e} at lambda={w[i]:.6f}")
        mats.append(X)
    rev = MatrixSubspace.from_span(mats, dim=c.dim, tol=tol) if mats \
        else MatrixSubspace(c.dim, ())
    comm_defect = spectral_norm(E @ T - T @ E)
    if comm_defect > 100 * tol.eq_tol * max(1.0, spectral_norm(T)):
        raise PeripheralJordanBlock(
            f"expectation fails to commute with the channel: {comm_defect:.3e}")
    return PeripheralData(eigenvalues=tuple(w[idx]), eigenmatrices=tuple(mats),
                          e_n_transfer=E, reversible=rev)


def stable_subspace(p: PeripheralData,
                    tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Kernel of the expectation onto N; decays to 0 under iteration."""
    return kernel_basis(p.e_n_transfer, tol=tol)


def expectation_onto_dfa(c: ChannelSpec, p: PeripheralData,
                         tol: Tolerances = DEFAULT_TOL,
                         seed: int = 0) -> ConditionalExpectation:
    """Package the peripheral spectral projection as a conditional
    expectation with atomic-structure data for its range N."""
    N = OperatorAlgebra(p.reversible)
    structure = atomic_structure(N, tol=tol, seed=seed)
    states = extract_block_states(p.apply_expectation, structure, tol=tol)
    return ConditionalExpectation(transfer=p.e_n_transfer, range_algebra=N,
                                  structure=structure, block_states=states)


# ---------------------------------------------------------------------------
# Cesaro expectation onto the fixed points
# ---------------------------------------------------------------------------

def _lcm_upto(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out = out * i // math.gcd(out, i)
    return out


def _cesaro_average(T: np.ndarray, n: int) -> np.ndarray:
    """(1/n) sum_{k<n} T^k via binary doubling of partial sums."""
    size = T.shape[0]
    total = np.zeros_like(T)
    carry_pow = np.eye(size, dtype=complex)
    remaining = n
    # decompose n in binary: accumulate sums of blocks of length 2^j
    Sj = np.eye(size, dtype=complex)
    Pj = T.copy()
    while remaining:
        if remaining & 1:
            total = total + carry_pow @ Sj
            carry_pow = carry_pow @ Pj
        remaining >>= 1
        if remaining:
            Sj = Sj + Pj @ Sj
            Pj = Pj @ Pj
    return total / n


def cesaro_expectation(c: ChannelSpec, max_n: int = 10_000,
                       tol: Tolerances = DEFAULT_TOL,
                       seed: int = 0) -> tuple[ConditionalExpectation, float]:
    """Expectation onto F, spectral route cross-checked against Cesaro.

    The spectral projection onto the eigenvalue-1 eigenspace is returned;
    the Cesaro route evaluates the cube of a length-m running average
    composed with a trailing power of the channel.  The cubed average
    suppresses a unimodular eigenvalue mu != 1 like (m|1-mu|)^-3 (and
    exactly when its period divides m), while the trailing power damps
    contracting directions geometrically; max_n bounds the total number
    of channel applications.  The discrepancy between the two routes is
    reported (error beyond 100*eq_tol).
    """
    D = c.dim
    T = c.transfer
    E_spec = spectral_projector(T, lambda lam: abs(lam - 1) <= tol.peripheral_band)

    stride = _lcm_upto(min(D, 10))
    m = max_n // 5
    m = (m // stride) * stride if m >= stride else max(1, m)
    A = _cesaro_average(T, m)
    cesaro = A @ A @ A
    r = max_n - 3 * (m - 1)
    if r > 0:
        cesaro = cesaro @ np.linalg.matrix_power(T, r)
    discrepancy = spectral_norm(cesaro - E_spec)
    if discrepancy > 100 * tol.eq_tol:
        raise CesaroNotConverged(
            f"Cesaro and spectral expectations differ by {discrepancy:.3e} "
            f"at horizon {max_n}")

    fp = fixed_points(c, tol=tol)
    F = fp.as_algebra()
    structure = atomic_structure(F, tol=tol, seed=seed)

    def apply_spec(X):
        return unvec(E_spec @ vec(np.asarray(X, dtype=complex)), D)

    states = extract_block_states(apply_spec, structure, tol=tol)
    E = ConditionalExpectation(transfer=E_spec, range_algebra=F,
                               structure=structure, block_states=states)
    return E, discrepancy


# ---------------------------------------------------------------------------
# Decoherence spectral gap
# ---------------------------------------------------------------------------

def decoherence_gap(c: ChannelSpec, p: PeripheralData, l2: L2Structure,
                    max_n: int = 50,
                    tol: Tolerances = DEFAULT_TOL) -> GapReport:
    """Finite-horizon and asymptotic decay rates of the stable part.

    finite_horizon = min over n <= max_n of -(1/n) log of the rho-L2 norm
    of Phi^n restricted off N; asymptotic = -log(largest nonperipheral
    eigenvalue modulus).  Phi is a contraction in this geometry, so a norm
    above 1 by at most eq_tol is rounding and counts as 1 (rate 0).
    """
    D = c.dim
    T = c.transfer
    Q = np.eye(D * D) - p.e_n_transfer
    w = np.linalg.eigvals(T)
    nonper = np.abs(w)[np.abs(w) <= 1.0 - tol.peripheral_band]
    if nonper.size == 0 or nonper.max() <= tol.rank_tol:
        asymptotic = math.inf
    else:
        asymptotic = -math.log(float(nonper.max()))
    if spectral_norm(Q) <= tol.rank_tol:
        return GapReport(finite_horizon=math.inf, asymptotic=asymptotic,
                         horizon=0, per_step=(), uniform_bound=True)
    rates = []
    power = np.eye(D * D, dtype=complex)
    for n in range(1, max_n + 1):
        power = T @ power
        nrm = l2.map_norm(power @ Q)
        if nrm <= tol.rank_tol:
            rates.append(math.inf)
            break
        rates.append(0.0 if 1.0 <= nrm <= 1.0 + tol.eq_tol
                     else -math.log(nrm) / n)
    finite = min(rates) if rates else math.inf
    return GapReport(finite_horizon=finite, asymptotic=asymptotic,
                     horizon=max_n, per_step=tuple(rates),
                     uniform_bound=finite > 0)
