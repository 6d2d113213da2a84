"""Stability classes, iteration rules, and the combinatorial bounds."""

import math

import numpy as np
import pytest

from conftest import PERTURBED, SURFACE_X
from symstab import (
    dynamics,
    SurfaceSpec,
    diamond_all,
    spectral_summary,
    verify_surface,
)
from symstab import classify as classify_mod
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


def test_verify_reads_each_endpoint_once(monkeypatch):
    # one LAPACK call per orbit endpoint serves the arc rule, the Floquet
    # class and the multipliers, which keep LAPACK's order
    eigvals, calls, paths = np.linalg.eigvals, [], []

    def recorded(M):
        out = eigvals(M)
        calls.append((np.array(M), out))
        return out

    def monodromy(*args):
        paths.append(dynamics.monodromy_path(*args))
        return paths[-1]

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    monkeypatch.setattr(classify_mod, "monodromy_path", monodromy)
    rep = verify_surface(SurfaceSpec(**PERTURBED), m_max=2)
    assert len(paths) == len(rep.orbits) == 2
    lapack_order = []
    for path in paths:
        reads = [out for M, out in calls if M.shape == path.endpoint.shape
                 and np.array_equal(M, path.endpoint)]
        assert len(reads) == 1, path.label
        lapack_order.append([complex(z) for z in reads[0]])
    assert all([complex(z) for z in o.multipliers] in lapack_order
               for o in rep.orbits)
    assert any(order != sorted(order, key=lambda z: (z.real, z.imag))
               for order in lapack_order)


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


def test_n3_surface_fails_action_index_bounds_only():
    # ROADMAP item 2: the bound reads r and R from `enclosing_radii`, not
    # curvature radii; at plane 0 and m = 4 it demands 18 where both index
    # routes give 16.  Any other failing check, or a silent fix, shows here
    rep = verify_surface(SurfaceSpec((1.0, 1.08, 1.15), (0.2, -0.1, 0.15),
                                     0.1), m_max=4)
    assert rep.gate_passed and rep.theorems_apply and not rep.passed
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {"action-index-bounds"}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the resonance "
                   "m * action = m pi r^2 is decided by rounding")
def test_perturbed_action_bounds_survive_a_few_ulps_of_radius(monkeypatch):
    # on PERTURBED the plane-0 circle gives both r and its own action
    # pi r^2, so action / (pi r^2) is 1 by identity; the check reads it
    # from floats, and nudging that radius by k ulps fails the check at
    # k = -3, 2, 6 and 7
    spec = SurfaceSpec(**PERTURBED)
    exact = dynamics.plane_circle_radius

    def nudged(spec, l, k):
        r = exact(spec, l)
        for _ in range(abs(k) if l == 0 else 0):
            r = math.nextafter(r, math.copysign(math.inf, k))
        return r

    failed = []
    for k in range(-3, 8):
        monkeypatch.setattr(dynamics, "plane_circle_radius",
                            lambda spec, l, k=k: nudged(spec, l, k))
        rep = verify_surface(spec, m_max=4)
        if not {c.name: c.passed for c in rep.checks}["action-index-bounds"]:
            failed.append(k)
    assert failed == []
