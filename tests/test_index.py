"""Crossing-count engine: anchor values, additivity, grid stability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    IndexOptions,
    SymplecticPath,
    diamond_paths,
    exp_path,
    index_nu,
    iterate_indices,
    iterate_path,
    lower_shear_path,
    mean_index,
    rotation_path,
    shear_path,
)
from symstab.errors import DimensionError
from symstab.index import D_omega
from symstab.sympl import N1_block, R_block

PI = np.pi


def tup(path, omega, **kw):
    r = index_nu(path, omega, IndexOptions(**kw) if kw else None)
    return (r.index, r.nullity)


def test_D_omega_values():
    assert D_omega(N1_block(1, 1), 1.0) == pytest.approx(0.0, abs=1e-12)
    assert D_omega(np.eye(2), -1.0) == pytest.approx(-4.0)
    th, ph = 2.0, 0.7
    assert D_omega(R_block(th), np.exp(1j * ph)) == pytest.approx(
        2 * (np.cos(ph) - np.cos(th)))


def test_constant_path():
    const = SymplecticPath(1, 1.0,
                           lambda ts: np.tile(np.eye(2), (len(ts), 1, 1)),
                           sform_fn=lambda t, s: np.zeros((2, 2)))
    assert tup(const, 1.0) == (-1, 2)


def test_full_rotation():
    circ = rotation_path(2 * PI)
    assert tup(circ, 1.0) == (1, 2)
    assert tup(circ, -1.0) == (2, 0)
    assert tup(circ, 1j) == (2, 0)


@pytest.mark.parametrize("theta, own, below, above", [
    (1.0, (0, 1), (1, 0), (0, 0)),
    (2.0, (0, 1), (1, 0), (0, 0)),
    (4.0, (1, 1), (2, 0), (1, 0)),
])
def test_partial_rotation_step(theta, own, below, above):
    p = rotation_path(theta)
    assert tup(p, np.exp(1j * theta)) == own
    assert tup(p, np.exp(-1j * theta)) == own
    assert tup(p, np.exp(1j * (theta - 0.3))) == below
    assert tup(p, np.exp(1j * (theta + 0.3))) == above


def test_shears():
    assert tup(shear_path(1.0), 1.0) == (-1, 1)
    assert tup(shear_path(-1.0), 1.0) == (0, 1)
    assert tup(lower_shear_path(1.0), 1.0) == (0, 1)
    assert tup(lower_shear_path(-1.0), 1.0) == (-1, 1)


def test_definite_generator():
    # i = n - (negative inertia of S) = n off resonance
    for n, diag in [(1, [0.7, 0.7]), (2, [0.4, 0.9, 0.4, 0.9])]:
        assert tup(exp_path(np.diag(diag)), 1.0) == (n, 0)


def test_iterate_table_circle():
    rows = iterate_indices(rotation_path(2 * PI), 2)
    assert [r.as_tuple() for r in rows] == [(1, 2), (3, 2)]


def test_iterated_path_directly():
    assert tup(iterate_path(rotation_path(2 * PI), 2), 1.0) == (3, 2)


def test_diamond_additivity():
    a, b = rotation_path(5.0), shear_path(0.8)
    ia, ib = tup(a, 1.0), tup(b, 1.0)
    assert tup(diamond_paths([a, b]), 1.0) == (ia[0] + ib[0], ia[1] + ib[1])


def test_grid_doubling_stable():
    for p, w in [(rotation_path(4.0), np.exp(4j)),
                 (rotation_path(2 * PI), 1.0)]:
        assert tup(p, w) == tup(p, w, grid=512)


def test_nullity_matches_endpoint_kernel():
    p = rotation_path(2.0)
    r = index_nu(p, np.exp(2j))
    assert r.nullity == 1
    assert index_nu(p, 1j).nullity == 0


def test_mean_index_circle_exact():
    mi, bound = mean_index(rotation_path(2 * PI), K=64)
    # total over 64th roots of unity is 1 + 2 * 63 = 127
    assert mi == pytest.approx(127 / 64, abs=1e-12)
    assert bound == pytest.approx(4 / 64)


@pytest.mark.parametrize("path, truth", [
    (rotation_path(2.0), (1, 0)),
    (exp_path(np.diag([0.4, 0.9, 0.4, 0.9])), (2, 0)),
])
def test_near_one_band_is_refused(path, truth):
    # crossings of omega close to 1 fall at the very start of the path,
    # where the count returned wrong integers; such omega are refused
    for arg in (1e-10, 1e-8, 1e-7, 1e-6, 5e-5):
        for sgn in (1, -1):
            with pytest.raises(DimensionError):
                index_nu(path, np.exp(1j * sgn * arg))
    assert tup(path, np.exp(1e-2j)) == truth
    assert tup(path, np.exp(-1e-2j)) == truth


def test_conjugate_symmetry():
    p = rotation_path(2.6)
    for ph in (0.9, 2.0):
        assert tup(p, np.exp(1j * ph)) == tup(p, np.exp(-1j * ph))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_positive_definite_random(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2, 2))
    S = A @ A.T + 0.05 * np.eye(2)
    S *= 1.8 / max(1.0, np.linalg.norm(S, 2))
    assert tup(exp_path(S), 1.0) == (1, 0)
