import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from chanstruct.algebra import (
    AlgebraStructure,
    atomic_structure,
    commutant,
    extract_block_states,
    restrict_to_commutant,
)
from chanstruct.cycles import CenterMismatch, IsomorphismSolveFailed
from chanstruct.numerics import (
    DEFAULT_TOL,
    GRAM_CANDIDATE_CUTOFF,
    DimensionMismatch,
    MatrixSubspace,
    Tolerances,
    components,
    dagger,
    fix_global_phase,
    kernel_coefficients,
    range_isometry,
    round_projector,
    span_basis,
    spectral_norm,
    subspace_distance,
    unvec,
    vec,
)
from chanstruct.oqrw import _advance_spans
from chanstruct.structure import L2Structure, NoStabilization, dfa, spectrum
from tools.report_set import amplitude_damping, dephasing_mixture  # noqa: F401

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def full_algebra(dim: int) -> MatrixSubspace:
    return MatrixSubspace(dim, np.eye(dim * dim))


def generated_algebra(gens, dim=None,
                      tol: Tolerances = DEFAULT_TOL) -> MatrixSubspace:
    """Smallest unital *-algebra containing the generators.

    Closes under products until the dimension stabilizes (word length
    <= dim^2 always suffices at finite dimension).
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if dim is None:
        if not gens:
            raise ValueError("need dim for an empty generator set")
        dim = gens[0].shape[0]
    basis = span_basis([np.eye(dim), *gens, *(dagger(g) for g in gens)], tol)
    for _ in range(dim * dim):
        prods = (basis[:, None] @ basis).reshape(-1, dim, dim)
        new = span_basis(np.concatenate([basis, prods]), tol)
        stable, basis = len(new) == len(basis), new
        if stable:
            break
    return MatrixSubspace(dim, basis)


def dense(factors):
    """The matrix X Y* of an operator kept as its factors (X, Y), such as
    ``Spectrum.e_n_factors`` and ``Spectrum.e_f_factors``."""
    X, Y = factors
    return X @ dagger(Y)


def dense_of_split(blocks):
    """The matrix of an operator given by its split (``numerics``), such
    as ``ChannelSpec.transfer_blocks``: each block's stack written into
    its rows and columns, zero elsewhere."""
    n = sum(idx.size for idx, _ in blocks)
    M = np.zeros((n, n), dtype=complex)
    for idx, S in blocks:
        M[idx[:, :, None], idx[:, None, :]] = S
    return M


def block_stacks(A):
    """The split of a dense square matrix along the components of its
    symmetric exact nonzero pattern (A_ij != 0 or A_ji != 0): the dense
    operands of the split routines in the tests."""
    return [(idx, A[idx[:, :, None], idx[:, None, :]])
            for idx in components(len(A), *np.nonzero(A))]


def dense_map_norm(rho, M):
    """Oracle for ``L2Structure.map_norm``: the rho-weighted L2 operator
    norm ||G M G^-1||_2 of the map with dense transfer matrix M, for
    G = (rho^1/2)^T (x) I (G x = x rho^1/2)."""
    l2 = L2Structure.from_state(rho)
    eye = np.eye(len(rho))
    return spectral_norm(np.kron(l2.sqrt.T, eye) @ M
                         @ np.kron(l2.inv_sqrt.T, eye))


def kernel_basis(L, tol=DEFAULT_TOL):
    """Oracle for the spectral stages: the numerical kernel of an (m, D^2)
    matrix acting on vectorized D x D matrices, as an HS-orthonormal
    subspace, under the cutoff of ``kernel_coefficients``."""
    L = np.asarray(L, dtype=complex)
    n = L.shape[1]
    return MatrixSubspace.from_columns(kernel_coefficients([L], n, tol),
                                       int(round(np.sqrt(n))))


def dense_sorted_schur(M, select):
    """Oracle for ``numerics.sorted_schur``: one Schur form of the whole
    matrix and scipy's Sylvester solver, which takes two Schur forms of its
    triangular operands again."""
    n = len(M)
    A, Z, k = scipy.linalg.schur(M, output="complex",
                                 sort=lambda x: bool(select(x)))
    R = np.zeros((k, n - k), dtype=complex)
    if 0 < k < n:
        R = scipy.linalg.solve_sylvester(A[:k, :k], -A[k:, k:], A[:k, k:])
    return A, Z, k, np.hstack([np.eye(k), R]) @ dagger(Z)


def dense_spectrum(T, tol=DEFAULT_TOL):
    """Oracle for ``structure.spectrum``: (E_N, E_F, stable_dim,
    stable_radius) from one Schur form of the whole transfer matrix T and
    one of its peripheral block."""
    band = tol.peripheral_band
    A, Z, k, L = dense_sorted_schur(T, lambda lam: abs(lam) > 1.0 - band)
    _, Y, f, L11 = dense_sorted_schur(A[:k, :k],
                                      lambda lam: abs(lam - 1) <= band)
    moduli = np.abs(np.diag(A)[k:])
    return (Z[:, :k] @ L, Z[:, :k] @ Y[:, :f] @ L11 @ L, len(moduli),
            float(moduli.max(initial=0.0)))


def dense_gram_kernel(G, constraint, tol=DEFAULT_TOL):
    """Oracle for ``numerics.gram_kernel``: the candidates from one eigh
    of the whole Gram matrix."""
    w, V = np.linalg.eigh(G)
    candidates = V[:, w <= GRAM_CANDIDATE_CUTOFF * max(w[-1], 1.0)]
    return MatrixSubspace.from_columns(candidates, math.isqrt(len(G))) \
        .restrict([constraint], tol)


def transfer_of(action, dim):
    """Column-stacked transfer matrix of a linear map on dim x dim matrices
    from one call of ``action`` on the (dim^2, dim, dim) stack of matrix
    units: column b * dim + a is vec(action(E_ab))."""
    return vec(action(unvec(np.eye(dim * dim, dtype=complex), dim))).T


def transfer_of_units(action, dim):
    """Oracle for :func:`transfer_of`: the transfer matrix of a linear map
    on dim x dim matrices with one call of ``action`` per matrix unit;
    column b * dim + a is vec(action(E_ab))."""
    return np.column_stack([vec(action(unvec(e, dim)))
                            for e in np.eye(dim * dim, dtype=complex)])


def choi(c):
    """Oracle for the Choi matrix sum_ij E_ij (x) Phi(E_ij) that
    ``ChannelSpec.minimal_kraus`` factors: sum_k w_k w_k* with w_k the
    row-major flattening of conj(V_k)."""
    D = c.dim
    C = np.zeros((D * D, D * D), dtype=complex)
    for V in c.kraus:
        w = V.conj().flatten(order="C")
        C += np.outer(w, w.conj())
    return C


def kron_transfer(c):
    """Oracle for ``ChannelSpec.transfer_blocks``, the dense transfer
    matrix: sum_k kron(V_k^T, V_k*)."""
    return sum(np.kron(V.T, dagger(V)) for V in c.kraus)


def gram_route_kraus_commutant(c, tol=DEFAULT_TOL):
    """Oracle for ``structure.fixed_points_commutant``: {V_k, V_k*}' as its
    own Gram kernel over all D x D matrices, not restricted from M."""
    return commutant(c.kraus, dim=c.dim, tol=tol)


def kraus_word_basis(c, n, tol=DEFAULT_TOL):
    """Orthonormal basis of the span of length-n Kraus words."""
    basis = span_basis(c.kraus, tol)
    for _ in range(n - 1):
        basis = span_basis([V @ B for V in c.kraus for B in basis], tol)
    return basis


def svd_route_commutant(gens, dim, tol=DEFAULT_TOL):
    """Oracle for commutants: every D x D matrix unit restricted by the
    commutators with an orthonormal basis of the span of the generators
    and their adjoints, decided by one SVD."""
    ops = span_basis(list(gens) + [dagger(g) for g in gens], tol)
    return restrict_to_commutant(full_algebra(dim), ops, tol=tol)


def word_route_multiplicative_domain(c, tol=DEFAULT_TOL):
    """Oracle for M: the commutant of the K^2 generators V_j V_k*."""
    return svd_route_commutant(
        [Vj @ dagger(Vk) for Vj in c.kraus for Vk in c.kraus], c.dim, tol)


def word_route_dfa(c, tol=DEFAULT_TOL, n_max=None):
    """Oracle for N: the commutants of the products w w'* of n-step Kraus
    words, intersected over n = 1, 2, ... until the dimension repeats or
    falls to 1, at most n_max (default D^2) steps."""
    D = c.dim
    cap = n_max if n_max is not None else D * D
    current = full_algebra(D)
    words = span_basis(c.kraus, tol)
    prev_dim = None
    for n in range(1, cap + 1):
        gens = span_basis([b @ dagger(w) for b in words for w in words], tol)
        current = restrict_to_commutant(current, gens, tol=tol)
        if current.dim == prev_dim or current.dim <= 1:
            return current
        prev_dim = current.dim
        words = span_basis([V @ B for V in c.kraus for B in words], tol)
    raise NoStabilization(f"word chain still at dim {current.dim} after "
                          f"n={cap}")


def subspace_intersection(S1, S2, tol=DEFAULT_TOL):
    """Intersection of two matrix subspaces: the elements of S1 with no
    residual against S2."""
    if S1.ambient_dim != S2.ambient_dim:
        raise DimensionMismatch("ambient dims differ")
    return S1.restrict([lambda B: B - S2.project(B)], tol)


def _full_route_conditions(w, spans):
    """The walk's block conditions as closures on full D x D matrices, per
    column j: A_ii P Q* = P Q* A_kk for P in spans[i,j], Q in spans[k,j],
    and A_li P = 0 = P* A_il for the off-diagonal blocks (l, i)."""
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


def full_route_oqrw_multiplicative_domain(w, tol=DEFAULT_TOL):
    """Oracle for the walk's M: every D x D matrix unit restricted by all
    one-step block conditions in one kernel."""
    spans = {key: [L] for key, L in w.transitions.items()}
    return full_algebra(w.total_dim).restrict(
        _full_route_conditions(w, spans), tol)


def block_units(w):
    """(diagonal, off-diagonal) matrix units of a walk's block layout:
    the units inside the blocks (i, i), and those of the blocks (l, i),
    l != i."""
    D, off = w.total_dim, w.offsets
    mask = np.zeros((D, D))
    for i in range(w.n_vertices):
        mask[off[i]:off[i + 1], off[i]:off[i + 1]] = 1
    units = np.eye(D * D).reshape(-1, D, D)
    return (MatrixSubspace(D, units[mask.ravel() == 1]),
            MatrixSubspace(D, units[mask.ravel() == 0]))


FullRouteDfa = namedtuple(
    "FullRouteDfa",
    "algebra diagonal off_diagonal dead_corners diagonal_forced")


def full_route_oqrw_dfa(w, n_max=None, tol=DEFAULT_TOL):
    """Oracle for the walk's N: every D x D matrix unit restricted by the
    n-step block conditions until the dimension repeats or falls to 1,
    split by intersecting with the diagonal and off-diagonal units, with
    the dead corners (dim W_i per vertex) counted by matrix_rank at
    1e3 * rank_tol; diagonal_forced when at most one W_i is nonzero."""
    D = w.total_dim
    cap = n_max if n_max is not None else D * D
    spans = {key: span_basis([L], tol) for key, L in w.transitions.items()}
    sub = full_algebra(D)
    prev_dim = None
    for _ in range(cap):
        sub = sub.restrict(_full_route_conditions(w, spans), tol)
        if sub.dim == prev_dim or sub.dim <= 1:
            break
        prev_dim = sub.dim
        spans = _advance_spans(w, spans, tol)
    else:
        raise NoStabilization(
            f"path-condition chain still at dim {sub.dim} after n={cap}")

    diag_space, offd_space = block_units(w)
    dead = []
    for i in range(w.n_vertices):
        cols = [L for (ii, j), L in w.transitions.items() if ii == i]
        rank = 0
        if cols:
            rank = np.linalg.matrix_rank(np.concatenate(cols, axis=1),
                                         tol=1e3 * tol.rank_tol)
        dead.append(w.local_dims[i] - rank)
    return FullRouteDfa(
        algebra=sub,
        diagonal=subspace_intersection(sub, diag_space, tol=tol),
        off_diagonal=subspace_intersection(sub, offd_space, tol=tol),
        dead_corners=tuple(dead),
        diagonal_forced=sum(1 for x in dead if x > 0) <= 1)


# ---------------------------------------------------------------------------
# Conditional expectations from block states
# ---------------------------------------------------------------------------

class NotFaithful(ValueError):
    """A block state has an eigenvalue below rank_tol."""


@dataclass(frozen=True)
class ConditionalExpectation:
    """Idempotent unital CP projection with the module property.

    Determined by an atomic structure of its range plus one faithful
    state per block acting on the right tensor factor.
    """

    transfer: np.ndarray
    range_algebra: MatrixSubspace
    structure: AlgebraStructure
    block_states: tuple

    @property
    def dim(self) -> int:
        return self.structure.ambient_dim

    def apply(self, X: np.ndarray) -> np.ndarray:
        """E(X), of one matrix or of each in a stack."""
        return unvec(vec(np.asarray(X, dtype=complex)) @ self.transfer.T,
                     self.dim)


def apply_block_expectation(structure, states, X):
    """The expectation of X, or of each matrix in a stack: per block,
    the right factor of U X U* is traced against rho, and a (x) I is
    carried back."""
    out = 0
    for P, U, nL, nR, rho in zip(structure.central_projections,
                                 structure.block_unitaries,
                                 structure.left_dims, structure.right_dims,
                                 states):
        Y = U @ (P @ X @ P) @ dagger(U)
        a = np.einsum("...irjs,sr->...ij",
                      Y.reshape(*Y.shape[:-2], nL, nR, nL, nR), rho)
        # U* (a (x) I) U = sum_r U_r* a U_r, U_r the rows (i, r) of U
        out = out + sum(dagger(Ur) @ a @ Ur
                        for Ur in U.reshape(nL, nR, -1).transpose(1, 0, 2))
    return out


def expectation_onto(alg, states, tol=DEFAULT_TOL, structure=None):
    """Conditional expectation onto ``alg`` with the given block states.

    ``states`` lists one faithful density per block, ordered as in the
    atomic structure (computed here when not supplied).
    """
    if structure is None:
        structure = atomic_structure(alg, tol=tol)
    states = [np.asarray(r, dtype=complex) for r in states]
    if len(states) != structure.n_blocks:
        raise DimensionMismatch(
            f"{len(states)} states for {structure.n_blocks} blocks")
    for rho, nR in zip(states, structure.right_dims):
        if rho.shape != (nR, nR):
            raise DimensionMismatch(f"state shape {rho.shape} != {(nR, nR)}")
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
        if w.min() < tol.rank_tol:
            raise NotFaithful(f"block state eigenvalue {w.min():.3e}")
    transfer = transfer_of(
        lambda X: apply_block_expectation(structure, states, X),
        structure.ambient_dim)
    return ConditionalExpectation(transfer=transfer, range_algebra=alg,
                                  structure=structure,
                                  block_states=tuple(states))


def expectation_onto_dfa(c, s, tol=DEFAULT_TOL):
    """The peripheral spectral projection of the spectrum ``s`` packaged as
    a conditional expectation with atomic-structure data for its range
    N."""
    N = s.reversible
    structure = atomic_structure(N, tol=tol)
    states = extract_block_states(s.apply_expectation, structure, tol=tol)
    return ConditionalExpectation(transfer=transfer_of(s.apply_expectation,
                                                       c.dim),
                                  range_algebra=N,
                                  structure=structure, block_states=states)


# ---------------------------------------------------------------------------
# Identities of an irreducible channel and of its components
# (Carbone-Jencova, arXiv 1905.00857)
# ---------------------------------------------------------------------------

class NotRootsOfUnity(RuntimeError):
    """Peripheral eigenvalues of an irreducible channel fail the
    root-of-unity group-structure test."""


class NotSimple(RuntimeError):
    """A peripheral eigenvalue has multiplicity >= 2 under an
    irreducibility claim."""


CyclicResolution = namedtuple("CyclicResolution",
                              "period projections unitary")


def _root_of_unity_check(eigenvalues, d, tol):
    """Match peripheral eigenvalues to the d-th roots of unity, 1-1."""
    roots = np.exp(2j * np.pi * np.arange(d) / d)
    used = [False] * d
    for lam in eigenvalues:
        hits = [k for k in range(d)
                if not used[k] and abs(lam - roots[k]) <= 1e3 * tol.eq_tol]
        if not hits:
            close = [k for k in range(d)
                     if abs(lam - roots[k]) <= 1e3 * tol.eq_tol]
            if close:
                raise NotSimple(
                    f"peripheral eigenvalue near exp(2i pi {close[0]}/{d}) "
                    f"appears with multiplicity >= 2")
            raise NotRootsOfUnity(
                f"peripheral eigenvalue {lam:.8f} is not a {d}-th root of unity")
        used[hits[0]] = True


def peripheral_eigenpairs(s, dim):
    """The peripheral eigenvalues of T and their eigenmatrices, Z_1 times
    the eigenvectors of the Schur block A_11 of ``s``
    (:func:`structure.spectrum`), in the order of
    ``PeripheralData.eigenvalues``."""
    w, V = np.linalg.eig(s.a11)
    return w, [unvec(v, dim) for v in (s.z1 @ V).T]


def period_irreducible(c, s, tol=DEFAULT_TOL):
    """Oracle for the period and cyclic projections of an irreducible
    channel, from the peripheral eigenpairs of its spectrum ``s`` alone.

    The period is the number of peripheral eigenvalues, which must form
    the full group of d-th roots of unity, each simple.  The cycle
    unitary is the polar part of the eigenmatrix at exp(2i pi/d),
    rotated so that 1 lies in its spectrum; its spectral projections are
    the cyclic projections.
    """
    eigenvalues, eigenmatrices = peripheral_eigenpairs(s, c.dim)
    d = len(eigenvalues)
    _root_of_unity_check(eigenvalues, d, tol)
    D = c.dim
    if d == 1:
        return CyclicResolution(period=1, projections=(np.eye(D),),
                                unitary=np.eye(D, dtype=complex))
    omega = np.exp(2j * np.pi / d)
    idx = int(np.argmin([abs(lam - omega) for lam in eigenvalues]))
    X = eigenmatrices[idx]
    W, _, Vh = np.linalg.svd(X)
    U = W @ Vh
    # rotate so the spectrum consists of exact d-th roots with 1 included
    theta = np.angle(np.linalg.eigvals(U))
    res = np.mod(theta, 2 * np.pi / d)
    if res.max() - res.min() > np.pi / d:     # wrap-around cluster
        res = np.where(res > np.pi / d, res - 2 * np.pi / d, res)
    phi = float(np.mean(res))
    U = np.exp(-1j * phi) * U
    if spectral_norm(np.linalg.matrix_power(U, d) - np.eye(D)) \
            > 1e3 * tol.eq_tol:
        raise NotRootsOfUnity("cycle unitary fails U^d = I")
    projections = []
    for j in range(d):
        Q = sum(omega ** (-j * n) * np.linalg.matrix_power(U, n)
                for n in range(d)) / d
        projections.append(round_projector(Q, tol=tol))
    for j in range(d):
        resid = spectral_norm(c.apply(projections[j])
                              - projections[(j - 1) % d])
        if resid > 1e3 * tol.eq_tol:
            raise NotRootsOfUnity(
                f"cyclic numbering failed: residual {resid:.3e} at j={j}")
    return CyclicResolution(period=d, projections=tuple(projections),
                            unitary=U)


@dataclass(frozen=True)
class PowerFixedPointRow:
    power: int
    fixed_dim: int
    coprime: bool
    matches_gcd_rule: bool


@dataclass(frozen=True)
class PowerFixedPointTable:
    rows: tuple
    f_period_matches_dfa: bool
    f_period_distance: float
    restrictions_irreducible: tuple
    restrictions_aperiodic: tuple

    @property
    def all_pass(self) -> bool:
        return (self.f_period_matches_dfa
                and all(r.matches_gcd_rule for r in self.rows)
                and all(self.restrictions_irreducible)
                and all(self.restrictions_aperiodic))


def restricted_power_transfer(c, Q, d, tol=DEFAULT_TOL):
    """Transfer of Phi^d compressed to the range of the projection Q:
    E -> R* Phi^d(R E R*) R for the isometry R onto it, which is
    kron(R^T, R*) T^d kron(conj(R), R)."""
    R = range_isometry(Q, tol)
    return np.kron(R.T, dagger(R)) \
        @ np.linalg.matrix_power(kron_transfer(c), d) @ np.kron(R.conj(), R)


def verify_power_fixed_points(c, report, m_max, tol=DEFAULT_TOL):
    """Tabulate dim F(Phi^m) = gcd(m, d) for an irreducible channel of
    known period d, F(Phi^d) = N, and the restrictions of Phi^d to the
    cyclic projections (irreducible, aperiodic), each from a dense Schur
    form of a power of T."""
    d = report.period
    rows, T = [], kron_transfer(c)
    for m in range(1, m_max + 1):
        dim_f = spectrum(block_stacks(np.linalg.matrix_power(T, m)),
                         tol).fixed.dim
        coprime = math.gcd(m, d) == 1
        rows.append(PowerFixedPointRow(power=m, fixed_dim=dim_f,
                                       coprime=coprime,
                                       matches_gcd_rule=(dim_f == 1) == coprime))
    N = dfa(c, tol=tol)
    Fd = spectrum(block_stacks(np.linalg.matrix_power(T, d)),
                  tol).fixed
    dist = subspace_distance(Fd, N)
    irreducible_flags, aperiodic_flags = [], []
    for Q in report.projections:
        sq = spectrum(block_stacks(restricted_power_transfer(c, Q, d, tol)),
                      tol)
        irreducible_flags.append(sq.fixed.dim == 1)
        aperiodic_flags.append(sq.peripheral == 1)
    return PowerFixedPointTable(rows=tuple(rows),
                                f_period_matches_dfa=dist <= 10 * tol.eq_tol,
                                f_period_distance=dist,
                                restrictions_irreducible=tuple(irreducible_flags),
                                restrictions_aperiodic=tuple(aperiodic_flags))


def xi_transfer(comp, m):
    """Transfer matrix of the reduced channel Xi_m of a
    ``cycles.Component``, a map B(K_m^R) -> B(K_{m-1}^R)."""
    return transfer_of(
        lambda E: sum(dagger(L) @ E @ L for L in comp.xi_kraus[m]),
        comp.right_dims[m])


def cycle_composition(comp, m=0):
    """Transfer of the d-fold composition of the reduced channels that
    returns to B(K_m^R)."""
    d = comp.period
    n = comp.right_dims[m]
    out = np.eye(n * n, dtype=complex)
    idx = m
    for _ in range(d):
        out = xi_transfer(comp, idx) @ out
        idx = (idx - 1) % d
    return out


def component_embedding(comp, tol=DEFAULT_TOL):
    """The D x r isometry W onto the range of a component's projection Z_i,
    in whose coordinates ``cycles.mfnc_decompose`` gives the component."""
    return range_isometry(comp.projection, tol)


def _solve_conjugation_unitary(G, nL, tol):
    """Recover unitary T from the map E_ab -> T E_ab T*, given as the stack
    of the images of the units in the order a * nL + b."""
    # K[c, a, d, b] = G[a * nL + b][c, d]
    K = G.reshape((nL,) * 4).transpose(2, 0, 3, 1).reshape(nL * nL, nL * nL)
    w, V = np.linalg.eigh((K + dagger(K)) / 2)
    T = (V[:, -1] * np.sqrt(max(w[-1], 0.0))).reshape(nL, nL)
    W, _, Vh = np.linalg.svd(T)
    T = fix_global_phase(W @ Vh, tol=tol)
    images = np.einsum("ca,db->abcd", T, T.conj()).reshape(G.shape)
    worst = np.linalg.norm(G - images, 2, axis=(1, 2)).max()
    if worst > 1e3 * tol.eq_tol:
        raise IsomorphismSolveFailed(
            f"shift-unitary solve residual {worst:.3e}")
    return T


def probe_shift_unitaries(comp, tol=DEFAULT_TOL):
    """Oracle for the shift unitaries T_m of ``cycles.mfnc_decompose``:
    the left action of the channel, probed on the stack of the nL^2 units
    S_m* (E_ab (x) I) S_m (order a * nL + b), must be E_ab -> T_m E_ab T_m*
    (x) I, and T_m is solved from it as a conjugation."""
    c_i = comp.channel
    S, nL, nRs = comp.isometries, comp.left_dim, comp.right_dims
    r, d, limit = c_i.dim, comp.period, 1e3 * tol.eq_tol
    shift_unitaries = []
    for m in range(d):
        prev = (m - 1) % d
        Sm3 = S[m].reshape(nL, nRs[m], -1)
        X = np.einsum("arx,bry->abxy", Sm3.conj(), Sm3).reshape(
            nL * nL, r, r)
        C5 = (S[prev] @ c_i.apply(X) @ dagger(S[prev])).reshape(
            -1, nL, nRs[prev], nL, nRs[prev])
        G = np.einsum("nirjr->nij", C5) / nRs[prev]
        resid = C5 - np.einsum("nij,rs->nirjs", G, np.eye(nRs[prev]))
        if np.any(np.linalg.norm(resid.reshape(len(G), -1), axis=1) > limit):
            raise IsomorphismSolveFailed(
                "left action is not of the form T E T* (x) I")
        shift_unitaries.append(_solve_conjugation_unitary(G, nL, tol))
    return tuple(shift_unitaries)


FixedBlockOracles = namedtuple(
    "FixedBlockOracles", "t_products r_projections embeddings psi_transfers")


def fixed_block_oracles(comp, fb, tol=DEFAULT_TOL):
    """What ``cycles.fixed_multiblock`` leaves out for a component ``comp``
    with fixed blocks ``fb``: t_products[m] = T_{m+1} ... T_{d-1} T_0, the
    running products of the shift unitaries (t_products[0] is the
    monodromy); r_projections[j] the spectral projection of the monodromy
    onto the span of fb.left_bases[j]; embeddings[j] the isometry G from
    L_j (x) (direct sum of the K_m^R) into the component; psi_transfers[j]
    the transfer matrix of the channel psi_j(E) that the component induces
    on the right factor, G* Phi(G (I (x) E) G*) G = I (x) psi_j(E), which
    must factor so within 1e3 * eq_tol or CenterMismatch is raised."""
    d, T = comp.period, comp.shift_unitaries
    nL, r, right_total = comp.left_dim, comp.channel.dim, fb.right_total
    tilde = [None] * d
    acc = T[0]
    tilde[d - 1] = T[0]
    for m in range(d - 2, -1, -1):
        acc = T[m + 1] @ acc
        tilde[m] = acc
    offsets = np.concatenate([[0], np.cumsum(comp.right_dims)]).astype(int)

    embeddings, psi_transfers = [], []
    for Bj in fb.left_bases:
        lj = Bj.shape[1]
        # column p * right_total + offsets[m] + s is S_m* (T~_m B_j e_p (x) e_s)
        G3 = np.zeros((r, lj, right_total), dtype=complex)
        for m in range(d):
            G3[:, :, offsets[m]:offsets[m + 1]] = np.einsum(
                "xis,ip->xps",
                dagger(comp.isometries[m]).reshape(r, nL, comp.right_dims[m]),
                tilde[m] @ Bj)
        G = G3.reshape(r, lj * right_total)
        embeddings.append(G)

        def psi(E, G=G, G3=G3, lj=lj):
            # G (I (x) E) G* = sum_i G_i E G_i*, G_i = G[:, i-th block]
            X = sum(g @ E @ dagger(g) for g in G3.transpose(1, 0, 2))
            C5 = (dagger(G) @ comp.channel.apply(X) @ G).reshape(
                -1, lj, right_total, lj, right_total)
            out = np.einsum("niris->nrs", C5) / lj
            resid = C5 - np.einsum("ij,nrs->nirjs", np.eye(lj), out)
            if np.linalg.norm(resid.reshape(len(out), -1), axis=1).max() \
                    > 1e3 * tol.eq_tol:
                raise CenterMismatch(
                    "restriction does not factor through the left block")
            return out
        psi_transfers.append(transfer_of(psi, right_total))
    return FixedBlockOracles(
        t_products=tuple(tilde),
        r_projections=tuple(B @ dagger(B) for B in fb.left_bases),
        embeddings=tuple(embeddings), psi_transfers=tuple(psi_transfers))


def invariant_state(comp, fb, weights, left_states):
    """The invariant density of a component ``comp`` with
    ``cycles.FixedBlockData`` ``fb``: the sum over fixed blocks of
    weight * G (omega (x) sigma) G*, G the block's embedding
    (:func:`fixed_block_oracles`) and omega a state on its left
    eigenspace."""
    out = 0
    for lam, omega, G in zip(weights, left_states,
                             fixed_block_oracles(comp, fb).embeddings):
        out = out + lam * (G @ np.kron(np.asarray(omega, dtype=complex),
                                       fb.sigma) @ dagger(G))
    return out


def _running_average(T, n):
    """(1/n) sum_{k<n} T^k via binary doubling of partial sums."""
    total = np.zeros_like(T)
    carry_pow = np.eye(len(T), dtype=complex)
    # blocks of length 2^j: Sj = sum_{k<2^j} T^k and Pj = T^(2^j)
    Sj, Pj = np.eye(len(T), dtype=complex), T.copy()
    remaining = n
    while remaining:
        if remaining & 1:
            total = total + carry_pow @ Sj
            carry_pow = carry_pow @ Pj
        remaining >>= 1
        if remaining:
            Sj = Sj + Pj @ Sj
            Pj = Pj @ Pj
    return total / n


def cesaro_expectation(T, min_n=10_000, max_n=10 ** 7):
    """Oracle for E_F: the Cesaro limit of T^k, as the cube of a length-m
    running average composed with a trailing power T^r.

    The cubed average suppresses a unimodular eigenvalue mu != 1 like
    (m|1 - mu|)^-3, exactly when its period divides m (a multiple of
    lcm(1..min(D, 10))); the trailing power damps the other eigenvalues
    like r2^r, r2 their largest modulus (outside the peripheral band of
    DEFAULT_TOL).  The horizon n = 3(m - 1) + r, m ~ n / 5, is the least
    that gives r2^r <= 1e-12, clipped to [min_n, max_n].
    """
    T = np.asarray(T, dtype=complex)
    moduli = np.abs(np.linalg.eigvals(T))
    r2 = moduli[moduli <= 1 - DEFAULT_TOL.peripheral_band].max(initial=0.0)
    n = min_n
    if r2 > 0:
        n = min(max(n, math.ceil(2.5 * math.log(1e-12) / math.log(r2))),
                max_n)
    stride = math.lcm(*range(1, min(math.isqrt(len(T)), 10) + 1))
    m = n // 5
    m = (m // stride) * stride if m >= stride else max(1, m)
    A = _running_average(T, m)
    return A @ A @ A @ np.linalg.matrix_power(T, n - 3 * (m - 1))


@pytest.fixture
def tol():
    return Tolerances()


@pytest.fixture
def paulis():
    return I2, X, Y, Z
