"""Structure theory of a single channel.

Fixed points F, multiplicative domain M, decoherence-free algebra N,
reversible/stable splitting, conditional expectations onto F and N,
invariant states and the decoherence spectral gap.

The spectral stages read the sorted Schur forms of the blocks of the
transfer matrix T (:func:`spectrum`), and one rule decides all of them: an
eigenvalue is peripheral when |lam| > 1 - peripheral_band, and among those
it is 1 when |lam - 1| <= peripheral_band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from chanstruct import algebra as alg_mod
from chanstruct.channel import ChannelSpec
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    block_apply,
    blockwise_norm,
    commutator_norm,
    dagger,
    hs_norm,
    kraus_transfer,
    sorted_schur,
    unvec,
    vec,
)


class NoFaithfulInvariantState(RuntimeError):
    """Operation requires a faithful invariant state and none was found."""


class PeripheralJordanBlock(RuntimeError):
    """A peripheral eigenvalue appears numerically defective."""


class NoStabilization(RuntimeError):
    """The multiplicative-domain chain did not stabilize by the cap."""


class NoInvariantState(RuntimeError):
    """No PSD fixed point of the preadjoint was found (internal error for
    unital trace-preserving maps at finite dimension)."""


@dataclass(frozen=True)
class Spectrum:
    """What the stages read off the sorted Schur form T = Z A Z* (see
    :func:`spectrum`): the peripheral block A_11 and its Schur vectors Z_1,
    whose span is the reversible part, the number and largest modulus of
    the other eigenvalues, E_N and E_F as factor pairs (X, Y) with
    E = X Y* of rank at most dim N, and F = range(E_F)."""

    a11: np.ndarray
    z1: np.ndarray
    stable_dim: int
    stable_radius: float
    e_n_factors: tuple
    e_f_factors: tuple
    fixed: MatrixSubspace

    @property
    def peripheral(self) -> int:
        return len(self.a11)

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.z1))

    @property
    def reversible(self) -> MatrixSubspace:
        """The span of the peripheral eigenmatrices, range(E_N)."""
        return MatrixSubspace.from_columns(self.z1, self.dim)

    def apply_expectation(self, X: np.ndarray) -> np.ndarray:
        """E_N(X), of one matrix or of each in a stack."""
        Xf, Yf = self.e_n_factors
        v = vec(np.asarray(X, dtype=complex))
        return unvec((v @ Yf.conj()) @ Xf.T, self.dim)


@dataclass(frozen=True)
class FixedPointSpace:
    """Fixed points of a channel; an algebra whenever product-closed.
    product_defect is the largest residual of a product of two basis
    elements outside the span."""

    subspace: MatrixSubspace
    is_algebra: bool
    product_defect: float

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def as_algebra(self) -> MatrixSubspace:
        if not self.is_algebra:
            raise alg_mod.NotAlgebra("fixed-point space is not product-closed")
        return self.subspace


@dataclass(frozen=True)
class InvariantStateReport:
    """A maximal-support fixed density of the preadjoint."""

    rho_max: np.ndarray
    faithful: bool
    min_eigenvalue: float


@dataclass(frozen=True)
class PeripheralData:
    """Peripheral eigenvalues and the commutation defect ||E_N T - T E_N||
    of the expectation onto N."""

    eigenvalues: tuple
    commutation_defect: float


@dataclass(frozen=True)
class L2Structure:
    """Weighted L2 geometry <x, y> = trace(rho x* y) for a faithful rho.
    Its orthogonal projection onto an algebra containing I is the unique
    rho-preserving conditional expectation onto it (Takesaki 1972)."""

    rho: np.ndarray
    sqrt: np.ndarray
    inv_sqrt: np.ndarray

    @classmethod
    def from_state(cls, rho: np.ndarray,
                   tol: Tolerances = DEFAULT_TOL) -> "L2Structure":
        rho = np.asarray(rho, dtype=complex)
        w, V = np.linalg.eigh((rho + dagger(rho)) / 2)
        if w.min() < tol.rank_tol:
            raise NoFaithfulInvariantState(
                f"state eigenvalue {w.min():.3e} below rank_tol")
        return cls(rho=rho, sqrt=(V * np.sqrt(w)) @ dagger(V),
                   inv_sqrt=(V / np.sqrt(w)) @ dagger(V))

    def norm(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=complex)
        return float(np.sqrt(max(np.real(
            np.trace(self.rho @ dagger(x) @ x)), 0.0)))

    def inner(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.trace(self.rho @ dagger(x) @ y))

    def map_norm(self, kraus: np.ndarray, factors=None) -> float:
        """Operator norm in the rho-weighted L2 geometry of the channel
        with Kraus stack ``kraus``, or of Phi (I - E) for the spectral
        projector E = X Y* of T with ``factors`` (X, Y): the 2-norm of
        W = G T G^-1, G x = x rho^1/2, the transfer matrix of
        x -> sum_k V_k* x rho^-1/2 V_k rho^1/2 (numerics.kraus_transfer),
        or of W - W E'.  G is HS-self-adjoint, so E' = G E G^-1 =
        (G X)(G^-1 Y)* is a spectral projector of W and lies in W's
        blocks."""
        W = kraus_transfer(kraus, self.inv_sqrt @ kraus @ self.sqrt)
        if factors is not None:
            D = len(self.rho)
            GX, GiY = ((R.T @ B.reshape(D, -1)).reshape(B.shape)
                       for R, B in zip((self.sqrt, self.inv_sqrt), factors))
            W = [(idx, S - S @ GX[idx] @ dagger(GiY[idx])) for idx, S in W]
        return blockwise_norm(W)

    def projection(self, B: np.ndarray) -> tuple:
        """Factors (B, W) of the rho-orthogonal projection P = B W* onto
        the span of the columns of B (vec'd matrices): with G the weight
        b -> b rho, so that <x, y> = <x, G y>_HS, P = B (B* G B)^-1 (G B)*
        and W = G B (B* G B)^-1, taken by one solve."""
        D = len(self.rho)
        GB = (self.rho.T @ B.reshape(D, -1)).reshape(B.shape)
        return B, dagger(np.linalg.solve(dagger(B) @ GB, dagger(GB)))


GAP_HORIZON = 50
"""The ``gap.horizon`` of a schema v1 report with a stable part; no rate
depends on it."""


@dataclass(frozen=True)
class GapReport:
    """Finite-horizon and asymptotic decoherence decay rates."""

    finite_horizon: float
    asymptotic: float
    horizon: int
    uniform_bound: bool


# ---------------------------------------------------------------------------
# Spectrum, fixed points and invariant states
# ---------------------------------------------------------------------------

def spectrum(T, tol: Tolerances = DEFAULT_TOL) -> Spectrum:
    """Spectral data of a unital CP map from the split of its transfer
    matrix T, sorted Schur form and Sylvester solve block by block
    (:func:`sorted_schur`): T Z_1 = Z_1 A_11 with the k peripheral
    eigenvalues (|lam| > 1 - band), and E_N = Z_1 L; with P_11 = Y_f L_11
    the spectral projector of A_11 at |lam - 1| <= band, E_F = (Z_1 Y_f)
    (L_11 L) = E_F E_N.  Both are kept as their rank-k factors.
    F = range(E_F), with the orthonormal basis Z_1 Y_f, and range(E_F*) is
    the invariant-state space: the preadjoint's transfer matrix is the HS
    adjoint of T.  The map is power-bounded, so every peripheral eigenvalue
    is semisimple and F is the kernel of T - I."""
    band = tol.peripheral_band
    Z1, L, a11, rest = sorted_schur(T, lambda lam: abs(lam) > 1.0 - band)
    Yf, L11, _, _ = sorted_schur(a11, lambda lam: abs(lam - 1) <= band)
    fixed, right_f = Z1 @ Yf, dagger(L11 @ L)
    return Spectrum(
        a11=block_apply(a11, np.eye(len(L))), z1=Z1, stable_dim=len(rest),
        stable_radius=float(np.abs(rest).max(initial=0.0)),
        e_n_factors=(Z1, dagger(L)), e_f_factors=(fixed, right_f),
        fixed=MatrixSubspace.from_columns(fixed, math.isqrt(len(Z1))))


def fixed_points(s: Spectrum, tol: Tolerances = DEFAULT_TOL) -> FixedPointSpace:
    """F = range(E_F); flagged as algebra when its adjoint defect is at
    most eq_tol and its product defect at most derived_tol."""
    adjoint, product = s.fixed.closure_defects()
    return FixedPointSpace(
        subspace=s.fixed, product_defect=product,
        is_algebra=adjoint <= tol.eq_tol and product <= tol.derived_tol)


def invariant_states(c: ChannelSpec, s: Spectrum,
                     tol: Tolerances = DEFAULT_TOL) -> InvariantStateReport:
    """Preadjoint fixed densities, range(E_F*), and a maximal-support
    candidate: rho_max = E_F* vec(I/D), symmetrized, clipped at rank_tol
    and renormalized."""
    D = c.dim
    X, Y = s.e_f_factors
    rho = unvec(Y @ (dagger(X) @ vec(np.eye(D) / D)), D)
    rho = (rho + dagger(rho)) / 2
    w, V = np.linalg.eigh(rho)
    w = np.where(np.abs(w) <= tol.rank_tol, 0.0, w)
    rho = (V * w) @ dagger(V)
    tr = float(np.real(np.trace(rho)))
    if tr <= tol.rank_tol or w.min() < -tol.eq_tol:
        raise NoInvariantState(
            f"projection of I/D gave trace {tr:.3e}, min eig {w.min():.3e}")
    rho /= tr
    resid = hs_norm(c.preadjoint_apply(rho) - rho)
    if resid > tol.check_tol:
        raise NoInvariantState(f"candidate not invariant, residual {resid:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    return InvariantStateReport(rho_max=rho,
                                faithful=min_eig > tol.eq_tol,
                                min_eigenvalue=min_eig)


def fixed_points_commutant(c: ChannelSpec, inv: InvariantStateReport,
                           M: MatrixSubspace,
                           tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """F as the commutant {V_k, V_k*}' of the Kraus operators (faithful
    case only): what commutes with each V_k and V_k* commutes with each
    V_j V_k*, so it is M = {V_j V_k*}' restricted by [V; V*]."""
    if not inv.faithful:
        raise NoFaithfulInvariantState(
            "commutant formula for F needs a faithful invariant state")
    return alg_mod.restrict_to_commutant(
        M, np.concatenate([c.kraus, dagger(c.kraus)]), tol)


# ---------------------------------------------------------------------------
# Multiplicative domain and decoherence-free algebra
# ---------------------------------------------------------------------------

def multiplicative_domain(c: ChannelSpec,
                          tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """M = {A : Phi(A* A) = Phi(A)* Phi(A), Phi(A A*) = Phi(A) Phi(A)*}: by
    Choi's theorem the commutant {V_j V_k*}' (the pairs j <= k; their
    adjoints are the rest), re-verified on the definitional test.  Products
    that are exactly zero, as most are on walks, are dropped: they leave
    the commutant unchanged, and no tolerance enters.  Only the pairs whose
    column supports meet are multiplied; the others are zero."""
    V = c.kraus
    cols = np.any(V != 0, axis=1)          # the columns each V_k reaches
    j, k = np.nonzero(np.triu(cols @ cols.T))
    P = V[j] @ dagger(V[k])
    M = alg_mod.commutant(P[np.any(P != 0, axis=(1, 2))], dim=c.dim, tol=tol)
    B = M.basis
    lhs, PB = np.split(c.apply(np.concatenate([dagger(B) @ B, B])), 2)
    if np.any(np.linalg.norm(lhs - dagger(PB) @ PB, 2, axis=(1, 2))
              > tol.check_tol):
        raise RuntimeError(
            "commutant route disagrees with the multiplicativity test")
    return M


def dfa(c: ChannelSpec, tol: Tolerances = DEFAULT_TOL,
        n_max: int | None = None,
        M: MatrixSubspace | None = None) -> MatrixSubspace:
    """N = intersection of the multiplicative domains of all powers.

    For A in M(Phi), Kadison-Schwarz gives Phi^2(A* A) = Phi(Phi(A)* Phi(A))
    >= Phi^2(A)* Phi^2(A), with equality iff Phi(A) is in M(Phi) (so too for
    A A*).  So C_m = M(Phi) ∩ ... ∩ M(Phi^m) = {A : Phi^j(A) in M, j < m}:
    C_1 = M (``M``, computed if not given) and C_{m+1} = {A in C_m :
    Phi(A) in C_m}, one linear restriction per power and no Kraus words.
    The chain stops when the dimension repeats (C_m is then Phi-invariant)
    or is <= 1, and raises NoStabilization past power ``n_max`` (D^2).
    """
    cap = n_max if n_max is not None else c.dim ** 2
    current = M if M is not None else multiplicative_domain(c, tol)
    power = 1
    while current.dim > 1:
        if power == cap:
            raise NoStabilization(f"multiplicative-domain chain still at "
                                  f"dim {current.dim} after n={cap}")
        prev, power = current.dim, power + 1
        current = current.restrict(
            [lambda B, S=current: (X := c.apply(B)) - S.project(X)], tol)
        if current.dim == prev:
            break
    return current


# ---------------------------------------------------------------------------
# Peripheral splitting
# ---------------------------------------------------------------------------

def peripheral_subalgebra(c: ChannelSpec, inv: InvariantStateReport,
                          s: Spectrum,
                          tol: Tolerances = DEFAULT_TOL) -> PeripheralData:
    """Peripheral eigenvalues, read off the Schur block A_11, with each
    eigenmatrix (Z_1 times an eigenvector of A_11) checked against T, and
    the commutation of E_N with T."""
    if not inv.faithful:
        raise NoFaithfulInvariantState(
            "peripheral splitting needs a faithful invariant state")
    T = c.transfer_blocks
    w, V = np.linalg.eig(s.a11)
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] < tol.check_tol * sv[0]:
        raise PeripheralJordanBlock(
            f"peripheral eigenvector conditioning {sv[-1] / sv[0]:.3e}")
    vs = s.z1 @ V
    for lam, v, Tv in zip(w, vs.T, block_apply(T, vs).T):
        X = unvec(v, c.dim)
        resid = hs_norm(unvec(Tv, c.dim) - lam * X)
        if resid > tol.check_tol * hs_norm(X):
            raise PeripheralJordanBlock(
                f"eigenpair residual {resid:.3e} at lambda={lam:.6f}")
    comm_defect = commutator_norm(T, *s.e_n_factors)
    if comm_defect > tol.check_tol * max(1.0, blockwise_norm(T)):
        raise PeripheralJordanBlock(
            f"expectation fails to commute with the channel: {comm_defect:.3e}")
    return PeripheralData(eigenvalues=tuple(w),
                          commutation_defect=comm_defect)


# ---------------------------------------------------------------------------
# Decoherence spectral gap
# ---------------------------------------------------------------------------

def decoherence_gap(c: ChannelSpec, s: Spectrum, l2: L2Structure,
                    tol: Tolerances = DEFAULT_TOL) -> GapReport:
    """Finite-horizon and asymptotic decay rates of the stable part.

    asymptotic = -log(largest nonperipheral eigenvalue modulus), off the
    Schur diagonal; with no stable part both rates are infinite.
    finite_horizon = -log a, a = the rho-L2 norm of T Q, Q = I - E_N.  Q is
    T's nonperipheral spectral projector, so in the weighted geometry
    S^n Q' = (S Q')^n (S = G T G^-1, Q' = G Q G^-1, G x = x rho^1/2) and
    ||Phi^n (I - E_N)|| <= a^n for every n: the one-step rate is the minimum
    of -(1/n) log ||Phi^n (I - E_N)|| over all n.  a <= rank_tol gives inf;
    a within eq_tol of 1 counts as 1 (rate 0), so rounding neither makes the
    rate negative nor claims a uniform bound.
    """
    r = s.stable_radius
    asymptotic = math.inf if r <= tol.rank_tol else -math.log(r)
    if s.stable_dim == 0:
        return GapReport(finite_horizon=math.inf, asymptotic=asymptotic,
                         horizon=0, uniform_bound=True)
    nrm = l2.map_norm(c.kraus, s.e_n_factors)
    if nrm <= tol.rank_tol:
        finite = math.inf
    elif abs(nrm - 1.0) <= tol.eq_tol:
        finite = 0.0
    else:
        finite = -math.log(nrm)
    return GapReport(finite_horizon=finite, asymptotic=asymptotic,
                     horizon=GAP_HORIZON, uniform_bound=finite > 0)
