import numpy as np
import pytest

from chanstruct.algebra import (
    OperatorAlgebra,
    full_algebra,
    restrict_to_commutant,
)
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    dagger,
    kernel_coefficients,
    reduce_span,
)
from chanstruct.structure import NoStabilization
from tools.report_set import amplitude_damping, dephasing_mixture  # noqa: F401

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def kernel_basis(L, tol=DEFAULT_TOL):
    """Oracle for the spectral stages: the numerical kernel of an (m, D^2)
    matrix acting on vectorized D x D matrices, as an HS-orthonormal
    subspace, under the cutoff of ``kernel_coefficients``."""
    L = np.asarray(L, dtype=complex)
    n = L.shape[1]
    return MatrixSubspace.from_columns(kernel_coefficients([L], n, tol),
                                       int(round(np.sqrt(n))))


def kraus_word_basis(c, n, tol=DEFAULT_TOL):
    """Orthonormal basis of the span of length-n Kraus words."""
    basis = reduce_span(list(c.kraus), dim=c.dim, tol=tol)
    for _ in range(n - 1):
        basis = reduce_span([V @ B for V in c.kraus for B in basis],
                            dim=c.dim, tol=tol)
    return basis


def svd_route_commutant(gens, dim, tol=DEFAULT_TOL):
    """Oracle for commutants: every D x D matrix unit restricted by the
    commutators with an orthonormal basis of the span of the generators
    and their adjoints, decided by one SVD."""
    ops = reduce_span(list(gens) + [dagger(g) for g in gens], dim=dim,
                      tol=tol)
    return OperatorAlgebra(restrict_to_commutant(full_algebra(dim).subspace,
                                                 ops, tol=tol))


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
    current = full_algebra(D).subspace
    words = reduce_span(list(c.kraus), dim=D, tol=tol)
    prev_dim = None
    for n in range(1, cap + 1):
        gens = reduce_span([b @ dagger(w) for b in words for w in words],
                           dim=D, tol=tol)
        current = restrict_to_commutant(current, gens, tol=tol)
        if current.dim == prev_dim or current.dim <= 1:
            return OperatorAlgebra(current)
        prev_dim = current.dim
        words = reduce_span([V @ B for V in c.kraus for B in words],
                            dim=D, tol=tol)
    raise NoStabilization(f"word chain still at dim {current.dim} after "
                          f"n={cap}")


@pytest.fixture
def tol():
    return Tolerances()


@pytest.fixture
def paulis():
    return I2, X, Y, Z
