import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanstruct.channel import (
    ChannelSpec,
    NotUnital,
    channel_from_json,
    channel_to_json,
    from_kraus,
)
from chanstruct.numerics import (
    DEFAULT_TOL,
    DimensionMismatch,
    dagger,
    random_unitary,
    spectral_norm,
    unvec,
    vec,
)
from chanstruct.oqrw import builder_nn_cycle, builder_pauli_walk, to_channel
from tests.conftest import (
    I2,
    X,
    Y,
    Z,
    block_stacks,
    choi,
    dense_of_split,
    kron_transfer,
)
from tests.test_acceptance import build_corpus


def pauli_channel():
    return from_kraus([X / np.sqrt(2), Z / np.sqrt(2)], label="pauli-XZ")


def random_unital_channel(dim, n_unitaries, seed):
    from chanstruct.numerics import random_unitary
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_unitaries))
    return from_kraus([np.sqrt(pi) * random_unitary(dim, rng) for pi in p])


def test_from_kraus_identity():
    c = from_kraus([I2])
    assert c.dim == 2
    assert c.unitality_defect < 1e-12


def test_from_kraus_not_unital():
    with pytest.raises(NotUnital):
        from_kraus([np.diag([1.0, 0.0])])


def test_from_kraus_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        from_kraus([I2, np.eye(3)])


def test_apply_examples():
    c = pauli_channel()
    assert np.allclose(c.apply(Y), -Y)          # XYX = -Y and ZYZ = -Y
    assert np.allclose(c.apply(I2), I2)
    ident = from_kraus([I2])
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(ident.apply(A), A)


def test_preadjoint_examples():
    c = pauli_channel()
    ket0 = np.diag([1.0, 0.0])
    assert np.allclose(c.preadjoint_apply(ket0), I2 / 2)
    rng = np.random.default_rng(0)
    rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.trace(c.preadjoint_apply(rho)) == pytest.approx(np.trace(rho))


def test_transfer_agrees_with_kraus():
    c = random_unital_channel(3, 3, seed=11)
    T = dense_of_split(c.transfer_blocks)
    for k in range(9):
        E = unvec(np.eye(9)[:, k], 3)
        assert np.allclose(unvec(T @ vec(E), 3), c.apply(E))
        assert np.allclose(unvec(dagger(T) @ vec(E), 3),
                           c.preadjoint_apply(E))


def test_choi_and_minimal_kraus():
    ident = from_kraus([I2])
    C = choi(ident)
    assert np.linalg.matrix_rank(C) == 1
    m = ident.minimal_kraus()
    assert len(m.kraus) == 1
    assert np.allclose(np.abs(m.kraus[0]), np.eye(2))

    # redundant list collapses to one operator proportional to X
    redundant = from_kraus([X / np.sqrt(2), 1j * X / np.sqrt(2)])
    m = redundant.minimal_kraus()
    assert len(m.kraus) == 1
    assert np.allclose(np.abs(m.kraus[0]), np.abs(X))

    c = pauli_channel()
    assert np.linalg.matrix_rank(choi(c)) == 2
    m = c.minimal_kraus()
    assert len(m.kraus) == 2
    A = np.array([[0.3, 1j], [0.2, -0.5]])
    assert np.allclose(m.apply(A), c.apply(A))


def test_choi_psd_and_reconstruction():
    c = random_unital_channel(3, 4, seed=7)
    w = np.linalg.eigvalsh(choi(c))
    assert w.min() > -1e-10
    m = c.minimal_kraus()
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(m.apply(A), c.apply(A))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000), st.integers(0, 2),
       st.data())
def test_transfer_and_minimal_kraus_of_kraus_stacks(dim, seed, padding, data):
    # K0 random operators, padded with zero operators and mixed by a
    # unitary, so K = K0 + padding <= D^2 + 2 and the Choi rank is K0
    K0 = data.draw(st.integers(1, dim * dim + 2 - padding))
    rng = np.random.default_rng(seed)
    ops = rng.standard_normal((K0, dim, dim)) \
        + 1j * rng.standard_normal((K0, dim, dim))
    ops = np.concatenate([ops, np.zeros((padding, dim, dim))])
    u = random_unitary(K0 + padding, rng)
    c = ChannelSpec(dim, np.tensordot(u, ops, 1) / np.sqrt(K0 * dim))
    assert np.abs(dense_of_split(c.transfer_blocks)
                  - kron_transfer(c)).max() <= 1e-14
    C = choi(c)
    w = np.linalg.eigvalsh(C)
    rank = np.sum(w > DEFAULT_TOL.rank_tol * max(spectral_norm(C), 1e-300))
    m = c.minimal_kraus()
    assert len(m.kraus) == rank == min(K0, dim * dim)
    gram = np.einsum("iab,jab->ij", m.kraus.conj(), m.kraus)
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max(initial=0.0) <= 1e-12 * np.abs(gram).max()
    assert np.abs(kron_transfer(m) - kron_transfer(c)).max() <= 1e-12


def test_schwarz_inequality_sampled():
    c = random_unital_channel(4, 3, seed=21)
    rng = np.random.default_rng(5)
    for _ in range(5):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        gap = c.apply(A.conj().T @ A) - c.apply(A).conj().T @ c.apply(A)
        assert np.linalg.eigvalsh((gap + gap.conj().T) / 2).min() > -1e-9


def test_json_roundtrip():
    c = pauli_channel()
    data = channel_to_json(c)
    c2 = channel_from_json(data)
    assert c2.dim == c.dim
    for a, b in zip(c.kraus, c2.kraus):
        assert np.allclose(a, b)
    assert c2.label == "pauli-XZ"


def assert_split_matches_dense(c):
    """The Kraus-support split of c's transfer matrix against the dense
    matrix: the blocks partition the indices, each block of the exact
    pattern lies in one of them (the split is that of ``block_stacks``
    or coarser), the dense matrix is exactly zero off them, and each stack
    holds the dense entries (to the rounding of one sum over k)."""
    T, split = kron_transfer(c), c.transfer_blocks
    n = len(T)
    label = np.full(n, -1)
    for start, (idx, S) in enumerate(split):
        assert S.shape == (*idx.shape, idx.shape[1])
        assert (label[idx] == -1).all()
        label[idx] = n * start + idx[:, :1]
    assert (label >= 0).all()
    for idx, _ in block_stacks(T):
        assert (label[idx] == label[idx[:, :1]]).all()
    assert not T[label[:, None] != label[None, :]].any()
    scale = 1e-14 * max(1.0, np.abs(T).max())
    assert np.abs(dense_of_split(split) - T).max() <= scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.floats(0.05, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_kraus_support_split_of_sparse_stacks(dim, K, density, seed):
    rng = np.random.default_rng(seed)
    ops = (rng.standard_normal((K, dim, dim))
           + 1j * rng.standard_normal((K, dim, dim))) \
        * (rng.random((K, dim, dim)) < density)
    assert_split_matches_dense(ChannelSpec(dim, ops))


def test_kraus_support_split_of_the_corpus_and_the_walks():
    lm = np.diag([np.sqrt(0.3), np.sqrt(0.7)])
    lp = np.array([[0, np.sqrt(0.3)], [np.sqrt(0.7), 0]])
    walks = [to_channel(builder_nn_cycle(n, lp, lm)) for n in (4, 8)] + \
        [to_channel(builder_pauli_walk(d, 0.5)) for d in (3, 8)]
    for c in build_corpus(20240817) + walks:
        assert_split_matches_dense(c)
    # the walks split exactly as their pattern: nn-cycle-8 into 224
    # singletons and two 16 x 16 blocks, pauli-walk-8 into 128 and 16 x 8
    for c, shapes in zip(walks[1::2], ([(224, 1), (2, 16)],
                                       [(128, 1), (16, 8)])):
        assert [idx.shape for idx, _ in c.transfer_blocks] == shapes
