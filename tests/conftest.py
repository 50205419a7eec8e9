import numpy as np
import pytest

from chanstruct.channel import from_kraus
from chanstruct.numerics import (
    DEFAULT_TOL,
    MatrixSubspace,
    Tolerances,
    kernel_coefficients,
)

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


def amplitude_damping(gamma=0.3):
    """Decay of |1> to |0>; its only invariant state is |0><0|, so it has
    no faithful one."""
    return from_kraus([np.diag([1.0, np.sqrt(1 - gamma)]),
                       np.array([[0, np.sqrt(gamma)], [0, 0]])],
                      label="amplitude-damping")


@pytest.fixture
def tol():
    return Tolerances()


@pytest.fixture
def paulis():
    return I2, X, Y, Z
