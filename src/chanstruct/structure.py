"""Structure theory of a single channel.

Fixed points F, multiplicative domain M, decoherence-free algebra N,
reversible/stable splitting, conditional expectations onto F and N,
invariant states and the decoherence spectral gap.

The eigenvalues of the blocks of the transfer matrix T decide the
eigenvalue 1, |lam| > 1 - peripheral_band and |lam - 1| <= peripheral_band
(:func:`spectrum`), for E_F, F and rho_max.  The rest is read off N: under
a faithful invariant state rho, N spans the peripheral eigenmatrices, E_N
is the rho-orthogonal projection onto it, and Phi acts on N as a
*-automorphism with the peripheral eigenvalues (Wolf 2012, ch. 6).
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
    dagger,
    hs_norm,
    kraus_transfer,
    spectral_norm,
    unit_projector,
    unvec,
    vec,
)


class NoFaithfulInvariantState(RuntimeError):
    """Operation requires a faithful invariant state and none was found."""


class PeripheralJordanBlock(RuntimeError):
    """A peripheral eigenvalue appears numerically defective."""


class NoInvariantState(RuntimeError):
    """No PSD fixed point of the preadjoint was found (internal error for
    unital trace-preserving maps at finite dimension)."""


@dataclass(frozen=True)
class Spectrum:
    """What the stages read off the blocks of T (see :func:`spectrum`):
    every eigenvalue of T, the projector E_F onto the eigenvalue 1 as its
    factor pair (X, Y) with E_F = X Y*, and F = range(E_F)."""

    eigenvalues: np.ndarray
    e_f_factors: tuple
    fixed: MatrixSubspace


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
    """Peripheral eigenvalues and the largest relative residual of their
    eigenmatrices against T."""

    eigenvalues: tuple
    eigenpair_residual: float


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

    def norm(self, x: np.ndarray):
        x = np.asarray(x, dtype=complex)        # one matrix or a stack
        return np.sqrt(np.maximum(np.real(np.sum(
            (x @ self.rho) * x.conj(), axis=(-2, -1))), 0.0))

    def weighted_transfer(self, kraus: np.ndarray) -> list:
        """The split of W = G T G^-1, G x = x rho^1/2, for the channel with
        Kraus stack ``kraus``: the transfer matrix of
        x -> sum_k V_k* x rho^-1/2 V_k rho^1/2 (numerics.kraus_transfer)."""
        return kraus_transfer(kraus, self.inv_sqrt @ kraus @ self.sqrt)

    def map_norm(self, W, factors=None) -> float:
        """Operator norm in the rho-weighted L2 geometry of the channel
        whose weighted transfer matrix has the split ``W``
        (:meth:`weighted_transfer`), or of Phi (I - E) for the spectral
        projector E = X Y* of T with ``factors`` (X, Y): the 2-norm of W,
        or of W - W E'.  G is HS-self-adjoint, so E' = G E G^-1 =
        (G X)(G^-1 Y)* is a spectral projector of W and lies in W's
        blocks."""
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
    matrix T (:func:`unit_projector`).  The map is power-bounded, so its
    eigenvalue 1 is semisimple and E_F = Z_f L, kept as its rank-f factors,
    is the projector onto F = ker(T - I) along range(T - I); range(E_F*) is
    the invariant-state space.  ||T Z_f - Z_f|| > check_tol, as from a
    Jordan block at 1, raises PeripheralJordanBlock."""
    Zf, L, ones, rest = unit_projector(T, tol.peripheral_band)
    resid = spectral_norm(block_apply(T, Zf) - Zf)
    if resid > tol.check_tol:
        raise PeripheralJordanBlock(f"fixed-point residual {resid:.3e}")
    return Spectrum(eigenvalues=np.concatenate([ones, rest]),
                    e_f_factors=(Zf, dagger(L)),
                    fixed=MatrixSubspace.from_columns(Zf, math.isqrt(len(Zf))))


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
    min_eig = float(w.min()) / tr
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
    V, cols = c.kraus, c.supports[1]       # the columns each V_k reaches
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
        M: MatrixSubspace | None = None) -> MatrixSubspace:
    """N = intersection of the multiplicative domains of all powers.

    For A in M(Phi), Kadison-Schwarz gives Phi^2(A* A) = Phi(Phi(A)* Phi(A))
    >= Phi^2(A)* Phi^2(A), with equality iff Phi(A) is in M(Phi) (so too for
    A A*).  So C_m = M(Phi) ∩ ... ∩ M(Phi^m) = {A : Phi^j(A) in M, j < m}:
    C_1 = M (``M``, computed if not given) and C_{m+1} = {A in C_m :
    Phi(A) in C_m}, one linear restriction per power and no Kraus words.
    I/sqrt(D) is the first basis element of every C_m, exactly: M is
    rotated so, and only the part of C_m orthogonal to I is restricted,
    since Phi(aI + A') = aI + Phi(A') lies in C_m iff Phi(A') does.  The
    chain stops when the dimension repeats (C_m is then Phi-invariant) or
    is 1.  Every other step lowers a dimension that starts at most D^2, so
    at most D^2 - 1 steps run.
    """
    M = M if M is not None else multiplicative_domain(c, tol)
    one = np.eye(c.dim)[None] / math.sqrt(c.dim)
    rest = M.restrict([lambda B: np.trace(B, axis1=1, axis2=2)], tol)
    prev = 0
    while rest.dim not in (0, prev):
        prev = rest.dim
        S = MatrixSubspace(c.dim, np.concatenate([one, rest.basis]))
        rest = rest.restrict([lambda B: (X := c.apply(B)) - S.project(X)], tol)
    return MatrixSubspace(c.dim, np.concatenate([one, rest.basis]))


# ---------------------------------------------------------------------------
# Peripheral splitting
# ---------------------------------------------------------------------------

def peripheral_subalgebra(c: ChannelSpec, N: MatrixSubspace,
                          tol: Tolerances = DEFAULT_TOL) -> PeripheralData:
    """Peripheral eigenvalues, those of A_N = B* T B for the orthonormal
    basis matrix B of N, on which Phi is a *-automorphism, and the largest
    relative residual ||T Bv - lam Bv|| / ||Bv|| of their eigenmatrices,
    which only the ledger judges.  Eigenvectors of A_N conditioned worse
    than check_tol, where eig means nothing, raise PeripheralJordanBlock."""
    T, B = c.transfer_blocks, N.basis_matrix()
    TB = block_apply(T, B)
    w, V = np.linalg.eig(dagger(B) @ TB)
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] < tol.check_tol * sv[0]:
        raise PeripheralJordanBlock(
            f"peripheral eigenvector conditioning {sv[-1] / sv[0]:.3e}")
    vs = B @ V
    resid = np.linalg.norm(TB @ V - vs * w, axis=0) \
        / np.linalg.norm(vs, axis=0)
    return PeripheralData(eigenvalues=tuple(w),
                          eigenpair_residual=float(resid.max()))


# ---------------------------------------------------------------------------
# Decoherence spectral gap
# ---------------------------------------------------------------------------

def decoherence_gap(W, s: Spectrum, l2: L2Structure, e_n: tuple,
                    tol: Tolerances = DEFAULT_TOL) -> GapReport:
    """Finite-horizon and asymptotic decay rates of the stable part, from
    the split ``W`` of the channel's weighted transfer matrix
    (:meth:`L2Structure.weighted_transfer`) and the factors ``e_n`` of E_N
    (:meth:`L2Structure.projection` onto N).

    asymptotic = -log(largest nonperipheral eigenvalue modulus): the
    largest |lam| of T once the dim N of largest modulus are set aside;
    with no stable part both rates are infinite.
    finite_horizon = -log a, a = the rho-L2 norm of T Q, Q = I - E_N.  Q is
    T's nonperipheral spectral projector, so in the weighted geometry
    S^n Q' = (S Q')^n (S = G T G^-1, Q' = G Q G^-1, G x = x rho^1/2) and
    ||Phi^n (I - E_N)|| <= a^n for every n: the one-step rate is the minimum
    of -(1/n) log ||Phi^n (I - E_N)|| over all n.  a <= rank_tol gives inf;
    a within eq_tol of 1 counts as 1 (rate 0), so rounding neither makes the
    rate negative nor claims a uniform bound.
    """
    moduli = np.sort(np.abs(s.eigenvalues))
    stable = len(moduli) - e_n[0].shape[1]
    r = float(moduli[:stable].max(initial=0.0))
    asymptotic = math.inf if r <= tol.rank_tol else -math.log(r)
    if stable == 0:
        return GapReport(finite_horizon=math.inf, asymptotic=asymptotic,
                         horizon=0, uniform_bound=True)
    nrm = l2.map_norm(W, e_n)
    if nrm <= tol.rank_tol:
        finite = math.inf
    elif abs(nrm - 1.0) <= tol.eq_tol:
        finite = 0.0
    else:
        finite = -math.log(nrm)
    return GapReport(finite_horizon=finite, asymptotic=asymptotic,
                     horizon=GAP_HORIZON, uniform_bound=finite > 0)
