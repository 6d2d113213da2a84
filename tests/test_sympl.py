"""Linear-algebra layer: J, block builders, diamond products."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    DimensionError,
    diamond_all,
    symplectic_residual,
)
from symstab.sympl import (D_block, N1_block, N2_block, R_block, diamond,
                           expJ, plane_embedding, random_symplectic,
                           resymplectify, rotation2, standard_J)


def test_standard_J_square():
    for n in (1, 2, 3, 5):
        J = standard_J(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        assert symplectic_residual(J) < 1e-15


def test_expJ_is_rotation():
    n = 2
    M = expJ(0.7, n)
    assert symplectic_residual(M) < 1e-14
    assert np.allclose(M @ M.T, np.eye(2 * n))
    assert np.allclose(expJ(np.pi, n), -np.eye(2 * n))


def test_block_builders_symplectic():
    blocks = [D_block(2.0), D_block(-0.4), N1_block(1, 1), N1_block(-1, -1),
              R_block(1.3), N2_block(2.0, trivial=True),
              N2_block(2.0, trivial=False)]
    for B in blocks:
        assert symplectic_residual(B) < 1e-12


def test_block_builder_validation():
    with pytest.raises(DimensionError):
        D_block(1.0)
    with pytest.raises(DimensionError):
        N1_block(2.0, 1.0)
    with pytest.raises(DimensionError):
        N2_block(np.pi, trivial=True)


def test_diamond_interleaves_planes():
    # plane j of the product lives on global coordinates (j, n + j)
    A, B = rotation2(0.4), rotation2(1.1)
    M = diamond(A, B)
    idx = plane_embedding((1, 1))
    blk = np.zeros((4, 4))
    blk[:2, :2], blk[2:, 2:] = A, B
    assert np.allclose(M[np.ix_(idx, idx)], blk)
    ev = sorted(np.angle(np.linalg.eigvals(M)))
    assert np.allclose(ev, sorted([-1.1, -0.4, 0.4, 1.1]))


def test_diamond_all_matches_pairwise():
    rng = np.random.default_rng(0)
    mats = [random_symplectic(1, rng) for _ in range(3)]
    assert np.allclose(diamond_all(mats), diamond(diamond(mats[0], mats[1]),
                                                  mats[2]))


def test_diamond_preserves_symplecticity():
    rng = np.random.default_rng(1)
    M = diamond(random_symplectic(1, rng), random_symplectic(2, rng))
    assert symplectic_residual(M) < 1e-12


def test_resymplectify_projects():
    rng = np.random.default_rng(2)
    M = random_symplectic(2, rng)
    W = M + 1e-6 * rng.standard_normal(M.shape)
    R = resymplectify(W)
    assert symplectic_residual(R) < 1e-12
    assert np.abs(R - M).max() < 1e-4


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_random_symplectic_properties(n, seed):
    M = random_symplectic(n, np.random.default_rng(seed))
    assert symplectic_residual(M) < 1e-9
    assert np.linalg.det(M) > 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_conjugation_stays_symplectic(seed):
    rng = np.random.default_rng(seed)
    g = random_symplectic(2, rng)
    M = g @ diamond(R_block(2.0), N1_block(1, 1)) @ np.linalg.inv(g)
    assert symplectic_residual(M) < 1e-8
