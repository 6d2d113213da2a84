"""Stability classes, iteration rules, and the combinatorial bounds."""

import numpy as np
import pytest

from conftest import SURFACE_X
from symstab import (
    SurfaceSpec,
    diamond_all,
    spectral_summary,
    verify_surface,
)
from symstab.classify import (PINCH_RATIO, action_index_bounds,
                              floquet_classify, hyperbolic_position_range,
                              iteration_case, nonhyperbolic_bound)
from symstab.errors import DimensionError
from symstab.sympl import D_block, N1_block, N2_block, R_block


def classify(M):
    return floquet_classify(spectral_summary(M))


def test_strictly_elliptic_monodromy():
    # trivial shear pair at 1 plus a Krein-definite rotation
    M = diamond_all([N1_block(1, 1), R_block(2.0)])
    fc = classify(M)
    assert fc.label == "strictly elliptic"
    assert fc.strictly_elliptic and not fc.hyperbolic
    assert fc.elliptic_height == 4


def test_hyperbolic_monodromy():
    M = diamond_all([N1_block(1, 1), D_block(2.0)])
    fc = classify(M)
    assert fc.label == "hyperbolic"
    assert fc.hyperbolic and not fc.nonhyperbolic


def test_nontrivial_double_rotation_blocks_strictness():
    M = diamond_all([N1_block(1, 1), N2_block(2.0, trivial=False)])
    fc = classify(M)
    assert fc.elliptic_height == 6
    assert not fc.strictly_elliptic
    assert fc.nonhyperbolic


def test_minus_one_cluster_blocks_strictness():
    M = diamond_all([N1_block(1, 1), N1_block(-1, 1)])
    fc = classify(M)
    assert not fc.strictly_elliptic
    assert fc.nonhyperbolic


def test_mixed_spectrum():
    M = diamond_all([D_block(2.0), R_block(2.0), N1_block(1, 1)])
    fc = classify(M)
    assert fc.label == "mixed"
    assert not fc.strictly_elliptic and not fc.hyperbolic


def test_iteration_case_labels():
    # second-iterate jump of the two small-ellipsoid orbits (path values)
    assert iteration_case(2, 1, 6, 1, 2) == "i"
    assert iteration_case(4, 1, 8, 1, 2) == "ii"
    assert iteration_case(0, 0, 1, 0, 2) is None


def test_nonhyperbolic_bound_values():
    assert [nonhyperbolic_bound(n) for n in (1, 2, 3, 4, 5, 6)] \
        == [0, 2, 2, 2, 2, 4]


def test_hyperbolic_position_range():
    lo, hi = hyperbolic_position_range(2)
    assert lo > hi            # no hyperbolic slots at all for n = 2
    lo5, hi5 = hyperbolic_position_range(5)
    assert (lo5, hi5) == (1, 3)


def test_action_index_bounds_values():
    # small action: nothing forced from below, tight cap from above
    blo, bhi = action_index_bounds(np.pi, 2, 1.0, 1.1)
    assert blo == 0
    assert bhi >= 1
    # large action forces a big index
    blo2, _ = action_index_bounds(10 * np.pi, 2, 1.0, 1.1)
    assert blo2 >= 2 * 2 * 2


def test_action_index_bounds_monotone():
    prev = -10
    for k in range(1, 8):
        blo, _ = action_index_bounds(k * 2.0, 3, 0.9, 1.2)
        assert blo >= prev
        prev = blo


def test_pinch_ratio_constant():
    assert PINCH_RATIO == pytest.approx(1.5)


def test_verify_surface_rejects_no_iterates():
    with pytest.raises(DimensionError):
        verify_surface(SurfaceSpec((1.0, 1.1)), m_max=0)


def test_surface_just_above_the_pinching_bound_is_not_gated():
    # R^2/r^2 lies above 1.5, so the checks of the theorems are reported,
    # not enforced: `index-interlacing` and `second-iterate-window` fail
    # on this surface, and nothing requires them to hold there
    rep = verify_surface(SurfaceSpec(**SURFACE_X), m_max=2)
    assert rep.pinch_ratio >= PINCH_RATIO
    assert rep.pinch_ratio == pytest.approx(1.500101, abs=1e-6)
    assert not rep.gate_passed and not rep.theorems_apply
    assert rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"pinch-gate", "index-interlacing",
                      "second-iterate-window"}
