"""Whole-pipeline guarantees.

Each test pins one external promise of the library: the two-orbit report on
the nearly round ellipsoid, exact index tables, agreement between the dual
variational (Galerkin) route and the crossing-count engine, the two-iterate
decomposition, splitting-number limits, the arc rule against per-root
index sums, action-window bounds, mean-index pinching, the
position-counting identity, and numerical hygiene of the integrated
flows.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    ALPHA,
    PERTURBED,
    PERTURBED_N1,
    CorpusEntry,
    _random_normal_form,
    bott_path_pool,
    exact_mean_index,
    exact_orbit_index,
    splitting_cases,
)
from symstab import (
    SurfaceSpec,
    canonical_json,
    diamond_all,
    enclosing_radii,
    find_orbits,
    index_nu,
    integrate_flow,
    iterate_indices,
    iterate_path,
    mean_index,
    normal_form_path,
    rotation_path,
    spectral_summary,
    splitting_table,
    stabilized_index,
    verify_surface,
)
from symstab.classify import action_index_bounds, nonhyperbolic_bound
from symstab.dynamics import gauge_grad_hess
from symstab.errors import (
    MergedCutError,
    ResonantFormError,
    TangencyError,
)
from symstab.galerkin import constant_form_index
from symstab.index import splitting_numbers_numeric
from symstab.sympl import (N1_block, N2_block, R_block, random_symplectic,
                           resymplectify)


# ---------------------------------------------------------------------------
# nearly round ellipsoid, radii 1 and 1.1
# ---------------------------------------------------------------------------

def test_two_strictly_elliptic_orbits_on_near_round_ellipsoid(e11_report):
    rep = e11_report
    assert rep.gate_passed and rep.theorems_apply
    assert len(rep.orbits) == 2
    assert abs(rep.orbits[0].action - math.pi) <= 1e-6
    assert abs(rep.orbits[1].action - 1.21 * math.pi) <= 1e-6
    for orb in rep.orbits:
        assert orb.floquet.strictly_elliptic
        assert orb.floquet.label == "strictly elliptic"
    checks = {c.name: c for c in rep.checks}
    assert checks["strictly-elliptic-count"].passed
    assert checks["nonhyperbolic-count"].passed
    count = sum(not o.floquet.hyperbolic for o in rep.orbits)
    assert count >= nonhyperbolic_bound(2) == 2
    assert rep.passed


def test_index_table_on_near_round_ellipsoid(e11_report):
    n = 2
    short, long = e11_report.orbits
    assert (short.index_orbit, short.nullity) == (0, 1)
    assert (long.index_orbit, long.nullity) == (2, 1)
    i2, nu2 = short.indices_path[1]
    assert (i2 - n, nu2) == (4, 1)
    j2, mu2 = long.indices_path[1]
    assert (j2 - n) + mu2 == 7 == 4 * n - 1
    assert short.iteration_case_label in ("i", "i+ii")
    assert long.iteration_case_label in ("ii", "i+ii")


def test_report_carries_dual_form_route_on_ellipsoids(e11_report):
    n = 2
    last = e11_report.checks[-1]
    assert (last.name, last.required, last.passed) == (
        "dual-form-agreement", True, True)
    for orb in e11_report.orbits:
        gi, gn, K = orb.galerkin
        assert (gi, gn) == (orb.indices_path[0][0] - n, orb.nullity + 1)
        assert orb.to_dict()["galerkin"] == {"index": gi, "nullity": gn,
                                             "modes": K}
        # integrated orbits carry no Galerkin entry
        assert "galerkin" not in dataclasses.replace(
            orb, galerkin=None).to_dict()


# ---------------------------------------------------------------------------
# dual variational route vs crossing engine, ellipsoid corpus
# ---------------------------------------------------------------------------

def test_galerkin_counts_match_crossing_engine(corpus, corpus_tables):
    for entry, tables in zip(corpus, corpus_tables):
        n = entry.spec.n
        G = diamond_all([np.eye(2) * (r * r / 2.0) for r in entry.spec.radii])
        for orb, table in zip(entry.orbits, tables):
            for m, res in enumerate(table, start=1):
                i_m, nu_m = res.as_tuple()
                gi, gn, _K = stabilized_index(G, m * orb.action, n)
                assert (gi, gn) == (i_m - n, nu_m + 1)
                assert i_m - n == exact_orbit_index(
                    entry.spec.radii, orb.plane, m)


def test_time_dependent_galerkin_matches_crossing_engine(perturbed_entries):
    # G(t) = (Hess j^2)^{-1} along the plane circle, integrated under the
    # H_2 flow, whose period is the circle's action pi |x0|^2
    entry = perturbed_entries[1]
    assert entry.spec == SurfaceSpec(**PERTURBED)
    n = entry.spec.n
    for orb, path in zip(entry.orbits, entry.paths):
        x0 = np.asarray(orb.x0, float)
        s1 = math.pi * float(x0 @ x0)
        sol = integrate_flow(entry.spec, 2.0, x0, s1, variational=False,
                             dense=True).sol

        def G(t, sol=sol, s1=s1):
            j, gj, Hj = gauge_grad_hess(entry.spec, sol.sol(t % s1))
            return np.linalg.inv(2.0 * np.outer(gj, gj) + 2.0 * j * Hj)

        for m, res in enumerate(iterate_indices(path, 6), start=1):
            i_m, nu_m = res.as_tuple()
            gi, gn, _K = stabilized_index(G, m * s1, n)
            assert (gi, gn) == (i_m - n, nu_m + 1), (orb.plane, m)


def test_time_dependent_galerkin_samples_g_at_32_points(perturbed_entries):
    # G is constant along a plane circle, so the resolved transform of
    # `stabilized_index` stops at its first grid of 32 points
    entry = perturbed_entries[1]
    n = entry.spec.n
    for orb in entry.orbits:
        x0 = np.asarray(orb.x0, float)
        s1 = math.pi * float(x0 @ x0)
        sol = integrate_flow(entry.spec, 2.0, x0, s1, variational=False,
                             dense=True).sol
        calls = []

        def G(t, sol=sol, s1=s1):
            calls.append(t)
            j, gj, Hj = gauge_grad_hess(entry.spec, sol.sol(t % s1))
            return np.linalg.inv(2.0 * np.outer(gj, gj) + 2.0 * j * Hj)

        for m in range(1, 7):
            calls.clear()
            stabilized_index(G, m * s1, n)
            assert len(calls) <= 32, (orb.plane, m)


# ---------------------------------------------------------------------------
# two-iterate decomposition on the randomized path pool
# ---------------------------------------------------------------------------

def test_second_iterate_splits_at_plus_and_minus_one():
    pool = bott_path_pool()
    assert len(pool) >= 200
    for p in pool:
        r1 = index_nu(p, 1.0)
        rm = index_nu(p, -1.0)
        r2 = index_nu(iterate_path(p, 2), 1.0)
        assert r2.index == r1.index + rm.index, p.label
        assert r2.nullity == r1.nullity + rm.nullity, p.label


def test_second_iterate_at_minus_one_is_the_root_sum():
    # i_{-1}(gamma^2) = i_i + i_{-i} = 2 i_i on the 54 normal-form paths of
    # the pool; their endpoints are degenerate at +-1, so the doubled paths
    # cross -1 right after the seam, where one crossing must count once
    for p in bott_path_pool()[140:194]:
        ri = index_nu(p, 1j)
        r2 = index_nu(iterate_path(p, 2), -1.0)
        assert r2.as_tuple() == (2 * ri.index, 2 * ri.nullity), p.label


# ---------------------------------------------------------------------------
# splitting numbers: table vs one-sided numeric limits
# ---------------------------------------------------------------------------

def test_splitting_tables_match_numeric_limits():
    cases = splitting_cases()
    assert len(cases) == 143    # 43 form/product clusters + 100 conjugations
    for k, (M, w) in enumerate(cases):
        table = splitting_table(spectral_summary(M), w).as_tuple()
        num = splitting_numbers_numeric(normal_form_path(M), w).as_tuple()
        assert table == num, f"case {k} at omega {w:.4f}"


def test_splitting_next_to_a_close_eigenvalue():
    # a second unit eigenvalue about 0.015 rad from omega
    cases = [
        (diamond_all([R_block(2.0), R_block(2.015)]), np.exp(2j)),
        (diamond_all([N1_block(1.0, 1.0), R_block(0.015)]), 1.0),
        (diamond_all([N1_block(-1.0, 1.0), R_block(math.pi - 0.015)]), -1.0),
    ]
    for M, w in cases:
        table = splitting_table(spectral_summary(M), w).as_tuple()
        num = splitting_numbers_numeric(normal_form_path(M), w).as_tuple()
        assert table == num, f"omega {w:.4f}"


def test_double_n1_splitting_at_minus_one():
    # two shears at -1: the crossings of the two factors can share a cell
    # of the upper twist's first grid, so it is counted again on the grid
    # of the lower twist; then every pair resolves and agrees
    for b in (1.0, -1.0, 0.0):
        for c in (1.0, -1.0, 0.0):
            M = diamond_all([N1_block(-1.0, b), N1_block(-1.0, c)])
            table = splitting_table(spectral_summary(M), -1.0).as_tuple()
            num = splitting_numbers_numeric(normal_form_path(M), -1.0)
            assert num.as_tuple() == table, (b, c)
    double = normal_form_path(diamond_all([N1_block(-1.0, 1.0),
                                           N1_block(-1.0, 1.0)]))
    assert [r.as_tuple() for r in iterate_indices(double, 2)] == [(2, 0),
                                                                  (4, 2)]


def test_arc_midpoint_with_a_kernel_is_refused():
    # a conjugate of N1(-1, -1) ◇ R(pi + 0.0085): the midpoint of the arc
    # between the two cuts lies within the sqrt(eps) split of the twisted
    # Jordan block and reports a kernel; trusting its index yields (0, 0)
    rng = np.random.default_rng(5)
    for _ in range(17):
        random_symplectic(2, rng)
    g = random_symplectic(2, rng)
    M = resymplectify(g @ diamond_all([N1_block(-1.0, -1.0),
                                       R_block(math.pi + 0.0085)])
                      @ np.linalg.inv(g))
    assert splitting_table(spectral_summary(M), -1.0).as_tuple() == (1, 1)
    with pytest.raises(TangencyError):
        splitting_numbers_numeric(normal_form_path(M), -1.0)


def test_eigenvalue_in_the_merged_cut_at_minus_one_is_refused():
    # the 185th random normal form of default_rng(99) has eigenvalues
    # e^{+-0.386i} and -1 +- 8.5e-5 i; the cut at the latter merges with
    # the cut at -1, so the arc between them is never counted, and the
    # limits used to read (0, 0) where the block table gives (1, 0)
    rng = np.random.default_rng(99)
    for _ in range(185):
        M = _random_normal_form(rng, rng.integers(1, 3))
    w = np.exp(3.141507j)
    assert splitting_table(spectral_summary(M), w).as_tuple() == (1, 0)
    with pytest.raises(MergedCutError) as info:
        splitting_numbers_numeric(normal_form_path(M), w)
    assert info.value.gap == pytest.approx(math.pi - 3.141507)


def test_minus_one_off_the_spectrum_splits_by_zero():
    # the same draw at -1 itself: -1 is no eigenvalue (nullity 0), so the
    # splitting numbers vanish as in the block table; the limits used to
    # read the cut at -1 merged with -1 +- 8.5e-5 i and gave (-1, -1)
    rng = np.random.default_rng(99)
    for _ in range(185):
        M = _random_normal_form(rng, rng.integers(1, 3))
    path = normal_form_path(M)
    assert index_nu(path, -1.0).nullity == 0
    for w in (-1.0, np.exp(1j * math.pi), np.exp(-1j * math.pi)):
        assert splitting_table(spectral_summary(M), w).as_tuple() == (0, 0)
        assert splitting_numbers_numeric(path, w).as_tuple() == (0, 0)


# ---------------------------------------------------------------------------
# arc rule vs the per-root sum it replaces
# ---------------------------------------------------------------------------

def test_arc_rule_matches_per_root_sums(corpus, perturbed_entries):
    paths = [
        rotation_path(2 * math.pi),
        corpus[1].paths[0],
        perturbed_entries[1].paths[1],
        normal_form_path(diamond_all([R_block(2 * math.pi / 3),
                                      N1_block(-1.0, 1.0)])),
        normal_form_path(N2_block(math.pi / 2, trivial=False)),
    ]
    for path in paths:
        counts = {}

        def root(k, m):
            key = Fraction(k, m)
            if key not in counts:
                w = np.exp(2j * np.pi * k / m) if k else 1.0
                counts[key] = index_nu(path, w).as_tuple()
            return counts[key]

        total = sum(root(k, 24)[0] for k in range(24))
        assert mean_index(path, K=24) == (total / 24, 4.0 * path.n / 24)
        oracle = [tuple(map(sum, zip(*(root(k, m) for k in range(m)))))
                  for m in range(1, 7)]
        table = [r.as_tuple() for r in iterate_indices(path, 6)]
        assert table == oracle, path.label


# ---------------------------------------------------------------------------
# action window bounds and the constant-form sandwich
# ---------------------------------------------------------------------------

def test_iterates_respect_action_window_bounds(corpus, perturbed_entries):
    for entry in corpus + perturbed_entries:
        n = entry.spec.n
        r, R = enclosing_radii(entry.spec)
        for orb, path in zip(entry.orbits, entry.paths):
            for m, res in enumerate(iterate_indices(path, 5), start=1):
                i_m, nu_m = res.as_tuple()
                lo, hi = action_index_bounds(m * orb.action, n, r, R)
                assert i_m - n >= lo
                assert i_m - n + nu_m <= hi


def test_constant_form_sandwich_on_random_pairs():
    rng = np.random.default_rng(7)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 4))
        radii = np.sort(rng.uniform(0.8, 1.5, size=n))
        s = float(rng.uniform(1.0, 20.0))
        try:
            # the R-ball's G dominates, the r-ball's is dominated
            lo = constant_form_index(s, float(radii[-1]), n)
            hi = constant_form_index(s, float(radii[0]), n)
        except ResonantFormError:
            continue
        G = diamond_all([np.eye(2) * (r * r / 2.0) for r in radii])
        gi, _gn, _K = stabilized_index(G, s, n)
        assert lo <= gi <= hi, (n, s, radii)
        done += 1


# ---------------------------------------------------------------------------
# mean index: closed form on ellipsoids, pinching floor everywhere
# ---------------------------------------------------------------------------

def test_mean_index_closed_form_and_floor(corpus, perturbed_entries):
    for entry in corpus:
        for orb, path in zip(entry.orbits, entry.paths):
            est, bound = mean_index(path, K=1024)
            assert abs(est - exact_mean_index(entry.spec.radii,
                                              orb.plane)) <= 1e-2
            assert est + bound >= 2.0 - 1e-6
    for entry in perturbed_entries:
        for path in entry.paths:
            est, bound = mean_index(path, K=1024)
            assert est + bound >= 2.0 - 1e-6


# ---------------------------------------------------------------------------
# position-counting identity
# ---------------------------------------------------------------------------

def test_counting_identity_exact_to_n64():
    # n action slots less the admissible hyperbolic positions
    for n in range(1, 65):
        slots = n - math.floor(3 * (n - 1) / 4) + math.ceil((n - 1) / 4) - 1
        assert slots == nonhyperbolic_bound(n) == 2 * ((n + 2) // 4)
        assert slots == n - (3 * (n - 1)) // 4 + (-((1 - n) // 4)) - 1


# ---------------------------------------------------------------------------
# numerical hygiene: residuals, gauge invariance, reproducible reports
# ---------------------------------------------------------------------------

def _floquet_fingerprint(M):
    """Mean of the trivial pair at 1, plus the remaining multipliers."""
    lam = np.linalg.eigvals(M)
    i0 = np.argsort(np.abs(lam - 1.0))[:2]
    return lam[i0].mean(), np.delete(lam, i0)


def _fingerprints_agree(a, b, tol):
    ta, ra = a
    tb, rb = b
    if abs(ta - tb) > tol:
        return False
    rb = list(rb)
    for z in ra:
        j = int(np.argmin([abs(z - w) for w in rb]))
        if abs(z - rb[j]) > tol:
            return False
        rb.pop(j)
    return True


def test_monodromy_residuals_and_gauge_invariance(corpus):
    surfaces = ([e.spec for e in corpus]
                + [SurfaceSpec(**PERTURBED_N1), SurfaceSpec(**PERTURBED)])
    for spec in surfaces:
        prints = {}
        for alpha in (1.2, 1.5, 1.8):
            for o in find_orbits(spec, alpha):
                res = integrate_flow(spec, alpha, np.asarray(o.x0), o.period)
                assert res.sympl_residual <= 1e-8
                prints.setdefault(o.plane, {})[alpha] = \
                    _floquet_fingerprint(res.W)
        for plane, per in prints.items():
            for alpha in (1.2, 1.8):
                assert _fingerprints_agree(per[1.5], per[alpha], 1e-6), \
                    (spec.radii, plane, alpha)


def test_reports_are_byte_reproducible():
    docs = [canonical_json(
        verify_surface(SurfaceSpec((0.9,)), alpha=ALPHA, m_max=2).to_dict())
        for _ in range(2)]
    assert docs[0] == docs[1]
    assert docs[0].endswith("\n")
