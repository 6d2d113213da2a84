"""Path constructors: values, seams, iterates, sampled interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symstab import (
    SymplecticPath,
    concat_path,
    conjugate_path,
    diamond_paths,
    exp_path,
    iterate_path,
    lower_shear_path,
    normal_form_path,
    path_from_samples,
    product_path,
    random_symplectic,
    rotation_path,
    shear_path,
    symplectic_residual,
    twisted_path,
    xi_path,
)
from symstab.errors import DimensionError
from symstab.sympl import rotation2


def test_constructors_start_at_identity():
    paths = [rotation_path(2.3), shear_path(0.8), lower_shear_path(-0.5),
             exp_path(np.diag([0.3, 0.7]))]
    for p in paths:
        p.check_start()
        assert np.abs(p.value(0.0) - np.eye(2 * p.n)).max() < 1e-12


def test_xi_path_sleeve():
    # deliberately starts at diag(2, 1/2) per plane and ends at the identity
    p = xi_path(2)
    assert np.allclose(p.value(0.0), np.diag([2.0, 2.0, 0.5, 0.5]))
    assert np.allclose(p.endpoint, np.eye(4))


def test_rotation_endpoint():
    p = rotation_path(1.9, tau=2.0)
    assert np.allclose(p.endpoint, rotation2(1.9))
    assert np.allclose(p.value(1.0), rotation2(0.95))


def test_shear_endpoints_total():
    assert np.allclose(shear_path(0.7).endpoint, [[1, 0.7], [0, 1]])
    assert np.allclose(lower_shear_path(0.7).endpoint, [[1, 0], [0.7, 1]])


def test_exp_path_matches_expm():
    from scipy.linalg import expm
    from symstab import standard_J
    S = np.array([[0.6, 0.2], [0.2, 0.9]])
    p = exp_path(S, tau=1.5)
    t = 0.77
    assert np.allclose(p.value(t), expm(t * standard_J(1) @ S), atol=1e-12)


def test_exp_path_values_on_defective_generator():
    # a shear plane makes J S nilpotent there, so the eigenbasis is unusable
    S = np.diag([0.0, 0.8, 1.0, 0.8])
    p = exp_path(S, tau=2.0)
    ts = np.linspace(0.0, 2.0, 9)
    ref = np.stack([p.value(t) for t in ts])
    assert np.abs(p.values(ts) - ref).max() < 1e-12


def test_product_and_concat():
    a, b = rotation_path(1.0), rotation_path(0.5)
    prod = product_path(a, b)
    assert np.allclose(prod.endpoint, a.endpoint @ b.endpoint)
    cat = concat_path(a, b)
    assert cat.tau == a.tau + b.tau
    assert np.allclose(cat.value(a.tau + 0.2), b.value(0.2) @ a.endpoint)


def test_iterate_path_composes():
    p = rotation_path(0.8)
    it = iterate_path(p, 3)
    assert it.tau == 3 * p.tau
    assert np.allclose(it.value(p.tau + 0.3), p.value(0.3) @ p.endpoint)
    assert np.allclose(it.endpoint, rotation2(2.4))


def test_diamond_paths_values():
    a, b = rotation_path(1.2), shear_path(0.4)
    d = diamond_paths([a, b])
    assert d.n == 2
    from symstab import diamond
    assert np.allclose(d.value(0.6), diamond(a.value(0.6), b.value(0.6)))


def test_conjugate_path():
    rng = np.random.default_rng(5)
    g = random_symplectic(1, rng)
    p = conjugate_path(rotation_path(1.1), g)
    assert np.allclose(p.endpoint, g @ rotation2(1.1) @ np.linalg.inv(g))
    p.check_start()


def test_twisted_path_endpoint():
    from symstab import expJ
    p = rotation_path(1.0)
    tw = twisted_path(p, 1e-3, -1)
    assert np.allclose(tw.endpoint, p.endpoint @ expJ(-1e-3, 1), atol=1e-14)


def test_sform_matches_finite_difference():
    p = exp_path(np.array([[0.5, 0.1], [0.1, 0.8]]))
    t = 0.4
    assert np.abs(p.sform(t, +1) - p._fd_sform(t, +1)).max() < 1e-5


def test_path_from_samples_roundtrip():
    p = rotation_path(2.0)
    ts = np.linspace(0, 1, 41)
    mats = np.array([p.value(t) for t in ts])
    q = path_from_samples(ts, mats)
    for t in (0.0, 0.33, 0.74, 1.0):
        assert np.abs(q.value(t) - p.value(t)).max() < 1e-6
    assert symplectic_residual(q.value(0.5)) < 1e-6


def test_path_from_samples_validation():
    with pytest.raises(DimensionError):
        path_from_samples([0.0, 1.0], np.stack([np.eye(2)] * 2))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_normal_form_path_hits_target(seed):
    M = random_symplectic(2, np.random.default_rng(seed))
    p = normal_form_path(M)
    p.check_start()
    assert np.abs(p.endpoint - M).max() < 1e-8
    assert symplectic_residual(p.value(0.37)) < 1e-9
