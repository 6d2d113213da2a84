"""Crossing-count engine: anchor values, additivity, grid stability."""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from conftest import (ALPHA, PERTURBED, _random_normal_form, bott_path_pool,
                      orbit_path_pool, random_path_pool)

from symstab import (
    SurfaceSpec,
    SymplecticPath,
    diamond_all,
    exp_path,
    find_orbits,
    index_nu,
    iterate_indices,
    iterate_path,
    lower_shear_path,
    mean_index,
    monodromy_path,
    normal_form_path,
    rotation_path,
    shear_path,
    spectral_summary,
    splitting_numbers_numeric,
    splitting_table,
    verify_surface,
)
from symstab import classify
from symstab import index as ix
from symstab import paths as paths_mod
from symstab.index import IndexOptions
from symstab.errors import (
    DimensionError,
    IndexUnstableError,
    MergedCutError,
    NumericalConsistencyError,
    SymstabError,
    TangencyError,
    UnsupportedNormalForm,
)
from symstab.paths import diamond_paths, twisted_path
from symstab.spectral import _CIRCLE_TOL, SplittingPair, _principal_angle
from symstab.sympl import (D_block, N1_block, N2_block, R_block,
                           random_symplectic, resymplectify, standard_J)

PI = np.pi


def tup(path, omega):
    r = index_nu(path, omega)
    return (r.index, r.nullity)


def test_constant_path():
    const = SymplecticPath(1, 1.0,
                           lambda ts: np.tile(np.eye(2), (len(ts), 1, 1)),
                           sform_fn=lambda ts, s: np.zeros((len(ts), 2, 2)))
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


@pytest.mark.parametrize("a, b, theta, want, step", [
    (0, -1, 1.0, (0, 1), 1),
    (0, -1, 4.0, (2, 1), 1),
    (1, -1, 1.0, (1, 0), 2),
    (1, -1, 4.0, (3, 0), 2),
    (1, 0, 1.0, (1, 1), 2),
    (1, 0, 4.0, (3, 1), 2),
], ids=["upper 1", "upper 4", "both 1", "both 4", "lower 1", "lower 4"])
def test_a_twisted_endpoint_on_omega_is_not_counted(a, b, theta, want, step):
    # R(theta + a eps) + R(theta + b eps) at e^{i theta}: a twist by eps
    # moves an endpoint onto omega, where no crossing is counted.  The
    # upper twist (b = -1) loses nothing, since the lower twist at the
    # endpoint is the index; the lower twist (a = 1) loses a crossing, so
    # the one-sided counts miss the nullity and the ladder halves eps
    eps = IndexOptions().eps
    path = diamond_paths([rotation_path(theta + a * eps),
                          rotation_path(theta + b * eps)])
    r = index_nu(path, np.exp(1j * theta))
    assert r.as_tuple() == want
    assert r.eps == eps / step


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


def _mixed_sizes():
    # a 2x2 plane beside a 4x4 factor that is elliptic at angles 0.23 and
    # 1.11, so both factors cross the circle
    b = normal_form_path(random_symplectic(2, np.random.default_rng(3)))
    return rotation_path(4.0), b


def test_diamond_additivity():
    a, b = rotation_path(5.0), shear_path(0.8)
    ia, ib = tup(a, 1.0), tup(b, 1.0)
    assert tup(diamond_paths([a, b]), 1.0) == (ia[0] + ib[0], ia[1] + ib[1])
    # factors of two sizes: their start forms at omega = 1 differ in size
    a, b = _mixed_sizes()
    d = diamond_paths([a, b])
    assert [f.n for f in d.factors] == [1, 2]
    for w in (1.0, -1.0, np.exp(0.9j), np.exp(2.0j)):
        ia, ib = tup(a, w), tup(b, w)
        assert tup(d, w) == (ia[0] + ib[0], ia[1] + ib[1]), w
    table, (mean, _) = ix.iterates_and_mean(d, 3, 64)
    parts = [ix.iterates_and_mean(q, 3, 64) for q in (a, b)]
    assert [r.as_tuple() for r in table] == [
        (ra.index + rb.index, ra.nullity + rb.nullity)
        for ra, rb in zip(parts[0][0], parts[1][0])]
    assert mean == pytest.approx(parts[0][1][0] + parts[1][1][0], abs=1e-12)


def test_grid_doubling_stable(monkeypatch):
    for p, w in [(rotation_path(4.0), np.exp(4j)),
                 (rotation_path(2 * PI), 1.0)]:
        coarse = tup(p, w)
        with monkeypatch.context() as m:
            m.setattr(ix, "_GRID", 512)
            assert tup(p, w) == coarse


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


@pytest.mark.parametrize("theta, K", [(2.0, 65536), (2.0, 100001),
                                      (2 * PI + 9e-5, 65536)])
def test_mean_index_reads_the_refused_band_from_arc_zero(theta, K):
    # e^{2 pi i / K} lies within 1e-4 of 1, where a direct count is
    # refused; past the cut at 1 (at angle 0, or 9e-5) it lies on arc 0
    mean, bound = mean_index(rotation_path(theta), K)
    assert bound == 4.0 / K
    assert abs(mean - theta / PI) <= bound


def test_mean_index_refuses_a_root_inside_the_cut_at_one():
    # an endpoint eigenvalue at angle 9.9e-5 stretches the cut at 1 past
    # the first 65536th root, at 9.59e-5: nothing resolves that root
    with pytest.raises(DimensionError, match="within 0.0001 of 1"):
        mean_index(rotation_path(2 * PI + 9.9e-5), 65536)


@pytest.mark.parametrize("omega", [1.5, 2.0, 0.5j, np.nan,
                                   complex(1.0, np.nan)])
def test_omega_off_the_unit_circle_is_refused(omega):
    # nan included: it used to reach the SVD, or read as no eigenvalue
    path = rotation_path(2.0)
    for call in (lambda: index_nu(path, omega),
                 lambda: splitting_numbers_numeric(path, omega),
                 lambda: splitting_table(spectral_summary(path.endpoint),
                                         omega),
                 lambda: ix._ArcRule(path)([1j, omega])):
        with pytest.raises(DimensionError, match="unit circle"):
            call()


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


# ---------------------------------------------------------------------------
# reference: the crossing engine that counts one omega at a time
# ---------------------------------------------------------------------------
#
# A copy of the engine as it was before the counts of one twisted path were
# swept together: every (omega, sign, eps, N) count refines its own
# brackets, and the arc rule counts each arc lazily, on the first query
# that needs it.  It shares only the unchanged helpers of `index` (grid,
# kernel basis, signature, normalization).  `levels` records the
# refinement levels of every count.

def _ref_brackets(xs, D, dist, trigger, all_minima):
    m = len(xs) - 1
    spans = [(i, i) for i in np.flatnonzero(D[:-1] * D[1:] < 0.0)]
    left = np.r_[True, dist[1:] <= dist[:-1]]
    right = np.r_[dist[:-1] <= dist[1:], True]
    mins = np.flatnonzero((dist < trigger) & left & right)
    if not all_minima and len(mins):
        mins = mins[[np.argmin(dist[mins])]]
    spans += [(max(j - 1, 0), min(j, m - 1)) for j in mins]
    runs = []
    for lo, hi in sorted(spans):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [(float(xs[lo]), float(xs[hi + 1])) for lo, hi in runs]


class _RefSamples:
    def __init__(self, path):
        self.path = path
        self.twisted_paths, self.grids, self.levels = {}, {}, []

    def twisted(self, sign, eps):
        if (sign, eps) not in self.twisted_paths:
            self.twisted_paths[sign, eps] = twisted_path(self.path, eps, sign)
        return self.twisted_paths[sign, eps]

    def grid(self, sign, eps, N):
        key = (sign, eps, N)
        if key not in self.grids:
            tw = self.twisted(sign, eps)
            ts = ix._grid(tw, N)
            fine = self.grids.get((sign, eps, 2 * N))
            if fine is not None:
                ev = fine[1][np.searchsorted(fine[0], ts)]
            else:
                ev = np.linalg.eigvals(tw.values(ts))
            self.grids[key] = ts, ev
        return self.grids[key]


class _FreshSamples(_RefSamples):
    """Samples as they were before any were shared: every count builds its
    own twisted path and samples its grid afresh."""

    def twisted(self, sign, eps):
        return twisted_path(self.path, eps, sign)

    def grid(self, sign, eps, N):
        tw = self.twisted(sign, eps)
        ts = ix._grid(tw, N)
        return ts, np.linalg.eigvals(tw.values(ts))


def _ref_count_once(samples, omega, sign, eps, N):
    tw = samples.twisted(sign, eps)
    tau, n = tw.tau, tw.n
    pref = (-1.0) ** (n - 1) * np.conj(omega) ** n

    def measure(ev):
        diff = ev - omega
        return pref * diff.prod(axis=-1), np.abs(diff).min(axis=-1)

    ts, ev = samples.grid(sign, eps, N)
    Draw, dist = measure(ev)
    if np.abs(Draw.imag).max() > 1e-6 * max(np.abs(Draw).max(), 1e-12):
        raise NumericalConsistencyError(
            "determinant function not real; input path may not be symplectic")

    width = 64.0 * ix._REFINE_RTOL * tau
    live = np.reshape(_ref_brackets(ts, Draw.real, dist, ix._TRIGGER, True),
                      (-1, 2))
    found = []
    level = 0
    while True:
        narrow = live[:, 1] - live[:, 0] < width
        found.extend(live[narrow].mean(axis=1))
        live = live[~narrow]
        if not len(live):
            break
        level += 1
        xs = np.linspace(live[:, 0], live[:, 1], ix._SPLIT + 1, axis=1)
        Dv, dv = measure(np.linalg.eigvals(tw.values(xs.ravel())))
        live = np.reshape(
            [br for x, D, d in zip(xs, Dv.real.reshape(xs.shape),
                                   dv.reshape(xs.shape))
             for br in _ref_brackets(x, D, d, ix._TRIGGER,
                                     level <= ix._ALL_MINIMA)],
            (-1, 2))
    samples.levels.append((sign, eps, N, level))
    return _ref_form_count(tw, omega, found)


def _ref_signature(F):
    F = 0.5 * (F + F.conj().T)
    vals = np.linalg.eigvalsh(F)
    thr = ix._FORM_TOL * max(1.0, float(np.abs(vals).max()))
    if np.any(np.abs(vals) < thr):
        raise ix._Degenerate(f"crossing form eigenvalues {vals}")
    return int(np.sum(vals > 0) - np.sum(vals < 0))


def _ref_form_count(tw, omega, found):
    # the whole 2n x 2n matrix: one SVD and one crossing form per candidate
    tau = tw.tau
    radius = max(200.0 * ix._REFINE_RTOL * tau, 1e-6 * tau)
    crossings = []
    for t in sorted(found):
        if 1e-9 * tau <= t <= tau * (1.0 - 1e-13) and not (
                crossings and t - crossings[-1] < radius):
            crossings.append(t)

    total = 0
    counted = []
    seam_atol = 1e-9 * tau
    mats = tw.values(np.array(crossings)) if crossings else ()
    for t, M in zip(crossings, mats):
        k, B = ix._kernel_basis(M, omega)
        if k == 0:
            continue
        near = [s for s in tw.seams if abs(s - t) < seam_atol]
        if near:
            s = near[0]
            f1 = _ref_signature(B.conj().T @ tw.sform(s, -1) @ B)
            f2 = _ref_signature(B.conj().T @ tw.sform(s, 1) @ B)
            if (f1 + f2) % 2:
                raise NumericalConsistencyError(
                    f"odd corner signature pair ({f1},{f2}) at t={s:.6g}")
            total += (f1 + f2) // 2
        else:
            total += _ref_signature(B.conj().T @ tw.sform(t, 1) @ B)
        counted.append(t)

    if abs(omega - 1.0) < ix._AT_ONE:
        sig0 = _ref_signature(tw.sform(0.0, 1))
        if sig0 % 2:
            raise NumericalConsistencyError("odd start-form signature")
        total += sig0 // 2

    return total, tuple(counted)


def _ref_factor_form_count(tw, omega, found):
    # one job on its own, factor by factor: per factor the values and the
    # kernels of all candidates, then per candidate the forms of the
    # factors with a kernel, then the start form of each factor
    tau = tw.tau
    radius = max(200.0 * ix._REFINE_RTOL * tau, 1e-6 * tau)
    crossings = []
    for t in sorted(found):
        if 1e-9 * tau <= t <= tau * (1.0 - 1e-13) and not (
                crossings and t - crossings[-1] < radius):
            crossings.append(t)

    total = 0
    counted = []
    seam_atol = 1e-9 * tau
    ts = np.array(crossings)
    kernels = [(f, ix._kernel_basis(f.values(ts), omega))
               for f in tw.factors] if crossings else []
    for c, t in enumerate(crossings):
        hits = [(f, ker[c][1]) for f, ker in kernels if ker[c][0]]
        if not hits:
            continue
        near = [s for s in tw.seams if abs(s - t) < seam_atol]
        for f, B in hits:
            if near:
                s = near[0]
                f1 = _ref_signature(B.conj().T @ f.sform(s, -1) @ B)
                f2 = _ref_signature(B.conj().T @ f.sform(s, 1) @ B)
                if (f1 + f2) % 2:
                    raise NumericalConsistencyError(
                        f"odd corner signature pair ({f1},{f2}) at t={s:.6g}")
                total += (f1 + f2) // 2
            else:
                total += _ref_signature(B.conj().T @ f.sform(t, 1) @ B)
        counted.append(t)

    if abs(omega - 1.0) < ix._AT_ONE:
        sig0 = sum(_ref_signature(f.sform(0.0, 1)) for f in tw.factors)
        if sig0 % 2:
            raise NumericalConsistencyError("odd start-form signature")
        total += sig0 // 2

    return total, tuple(counted)


def _ref_count_total(samples, omega, sign, eps, verify_grid):
    # (total, crossings, the grid size where the total settled)
    N = max(ix._GRID, samples.path.grid_hint)
    if verify_grid and not isinstance(samples, _FreshSamples):
        samples.grid(sign, eps, 2 * N)
    t1, c1 = _ref_count_once(samples, omega, sign, eps, N)
    if not verify_grid:
        return t1, c1, N
    t2, c2 = _ref_count_once(samples, omega, sign, eps, 2 * N)
    if t2 == t1:
        return t2, c2, 2 * N
    t4, c4 = _ref_count_once(samples, omega, sign, eps, 4 * N)
    if t4 == t2:
        return t4, c4, 4 * N
    raise IndexUnstableError(
        f"crossing count kept changing under grid refinement at omega={omega:.6g} "
        f"({t1}, {t2}, {t4})")


def _ref_index_nu(samples, omega):
    w = ix._normalize_omega(omega)
    if ix._AT_ONE <= abs(w - 1.0) < ix._NEAR_ONE:
        raise DimensionError(
            f"omega={w:.6g} lies within {ix._NEAR_ONE:g} of 1 but is not 1; "
            "the crossing count cannot resolve it")
    nu, _ = ix._kernel_basis(samples.path.endpoint, w)
    eps = IndexOptions().eps
    last = "no attempt"
    for _ in range(ix._EPS_LADDER):
        try:
            i_minus, cr, N = _ref_count_total(samples, w, -1, eps, True)
            i_plus, _, _ = _ref_count_total(samples, w, 1, eps, False)
            if i_plus - i_minus != nu:
                # the upper twist again on the grid where the lower settled
                i_plus, _ = _ref_count_once(samples, w, 1, eps, N)
        except ix._Degenerate as e:
            last = str(e)
            eps *= 0.5
            continue
        if i_plus - i_minus != nu:
            last = (f"one-sided counts {i_minus}/{i_plus} inconsistent with "
                    f"nullity {nu} at eps={eps:.1e}")
            eps *= 0.5
            continue
        return ix.IndexResult(index=i_minus, nullity=nu, omega=w,
                              crossings=cr, eps=eps)
    raise TangencyError(
        f"tangency unresolved at omega={w:.6g} after twist ladder: {last}")


class _RefArcRule:
    def __init__(self, path, samples=_RefSamples):
        path.check_start()
        self.path = path
        self.samples = samples(path)
        ev = np.linalg.eigvals(path.endpoint)
        angles = sorted([0.0, PI] + [
            _principal_angle(z) for z in ev
            if abs(abs(z) - 1.0) <= _CIRCLE_TOL * max(abs(z), 1.0)])
        self.cuts = [[0.0, 0.0]]
        for a in angles[1:]:
            if a - self.cuts[-1][1] <= ix._CUT_TOL:
                self.cuts[-1][1] = a
            else:
                self.cuts.append([a, a])
        self._arcs, self._direct = {}, {}

    def arc(self, j):
        if j not in self._arcs:
            mid = 0.5 * (self.cuts[j][1] + self.cuts[j + 1][0])
            res = _ref_index_nu(self.samples, np.exp(1j * mid))
            if res.nullity:
                raise TangencyError(
                    f"arc midpoint at angle {mid:.6g} reports nullity "
                    f"{res.nullity}")
            self._arcs[j] = res.index
        return self._arcs[j]

    def locate(self, a):
        j = sum(lo - ix._CUT_TOL <= a for lo, _ in self.cuts) - 1
        return j, a <= self.cuts[j][1] + ix._CUT_TOL

    def __call__(self, omega):
        w = ix._normalize_omega(omega)
        a = _principal_angle(w)
        j, near = self.locate(a)
        if not near:
            return self.arc(j), 0
        key = round(a, 12)
        if key not in self._direct:
            up = w if w.imag >= 0.0 else w.conjugate()
            self._direct[key] = _ref_index_nu(self.samples, up).as_tuple()
        return self._direct[key]


def _ref_table(rule, m_max):
    out = []
    for m in range(1, m_max + 1):
        pairs = [rule(np.exp(2j * PI * k / m)) for k in range(m)]
        out.append(ix.IndexResult(index=sum(i for i, _ in pairs),
                                  nullity=sum(nu for _, nu in pairs),
                                  omega=1.0 + 0.0j, crossings=(), eps=0.0))
    return out


def _ref_mean(rule, K):
    total = rule(1.0)[0]
    if K % 2 == 0:
        total += rule(-1.0)[0]
    for k in range(1, (K + 1) // 2):
        total += 2 * rule(np.exp(2j * PI * k / K))[0]
    return total / K, 4.0 * rule.path.n / K


def _ref_splitting(path, omega):
    w = ix._normalize_omega(omega)
    rule = _RefArcRule(path)
    a = _principal_angle(w)
    j, near = rule.locate(a)
    if not near:
        return SplittingPair(0, 0)
    last = len(rule.cuts) - 2
    lo, hi = rule.cuts[j]
    gap = min(a, PI - a)
    if j in (0, last + 1) and lo < hi and gap > ix._RANK_TOL:
        raise MergedCutError(
            f"omega at angle {a:.9g} lies {gap:.2e} rad from "
            f"{'+1' if j == 0 else '-1'}, at the merged cut "
            f"[{lo:.9g}, {hi:.9g}]; the splitting numbers there are not "
            "resolved", gap)
    i0, nu0 = rule(w)
    if nu0 == 0 and gap <= ix._RANK_TOL:
        return SplittingPair(0, 0)
    above = rule.arc(min(j, last)) - i0
    below = rule.arc(max(j - 1, 0)) - i0
    if w.imag < 0.0:
        above, below = below, above
    return SplittingPair(above, below)


def _ref_index(path, omega, samples=_RefSamples):
    path.check_start()
    return _ref_index_nu(samples(path), omega)


def _both(call, ref):
    """Outcomes of the engine and of the reference: the value, or the type
    and message of the error raised."""
    def outcome(fn):
        try:
            return fn()
        except SymstabError as exc:
            return type(exc).__name__, str(exc)
    return outcome(call), outcome(ref)


def _conjugated(M, seed):
    g = random_symplectic(M.shape[0] // 2, np.random.default_rng(seed))
    return resymplectify(g @ M @ np.linalg.inv(g))


# a positive definite generator: an elliptic endpoint, several arcs
_GEN = exp_path(np.array([[0.9, 0.2, 0.1, 0.0], [0.2, 1.3, 0.0, 0.3],
                          [0.1, 0.0, 2.1, 0.4], [0.0, 0.3, 0.4, 1.7]]))


@pytest.mark.parametrize("path, omegas, ladder", [
    pytest.param(_GEN, [1.0, -1.0, np.exp(0.777j), np.exp(2.3j)], False,
                 id="lower and upper twist"),
    pytest.param(iterate_path(_GEN, 2), [1.0, -1.0, np.exp(0.777j)], False,
                 id="seams"),
    pytest.param(iterate_path(rotation_path(2 * PI), 2), [1.0, -1.0, 1j],
                 False, id="crossings at the seams"),
    pytest.param(random_path_pool()[179], [np.exp(0.777j)], True,
                 id="eps ladder"),
    pytest.param(normal_form_path(_conjugated(
        diamond_all([N1_block(1.0, 1.0), R_block(2.0)]), 4)),
                 [1.0, -1.0, np.exp(2j), np.exp(0.777j)], False,
                 id="jordan block at 1"),
    pytest.param(normal_form_path(N2_block(2.0, False)),
                 [1.0, -1.0, np.exp(2j), np.exp(0.777j)], False,
                 id="krein collision"),
])
def test_shared_sampling_leaves_results_unchanged(path, omegas, ladder):
    # the engine, which samples each untwisted grid once and searches all
    # counts of a ladder step together, against the reference copy with
    # fresh samples: one omega at a time, each count on its own twisted
    # path and grid
    direct = [index_nu(path, w) for w in omegas]
    assert direct == [_ref_index(path, w, _FreshSamples) for w in omegas]
    assert any(r.eps < IndexOptions().eps for r in direct) == ladder
    assert any(r.crossings for r in direct)

    def fresh():
        return _RefArcRule(path, samples=_FreshSamples)

    rule, ref = ix._ArcRule(path), fresh()
    arcs = range(len(rule.cuts) - 1)
    assert rule(omegas, arcs) == ([ref(w) for w in omegas],
                                  [ref.arc(j) for j in arcs])
    assert iterate_indices(path, 4) == _ref_table(fresh(), 4)
    assert mean_index(path, 32) == _ref_mean(fresh(), 32)


def test_engine_bit_identical_to_reference_on_path_pool():
    # every fifth path of the pool: generic exponentials (n = 1, 2),
    # normal forms with Jordan blocks, a closed-form orbit path and a
    # spline through integrated samples; splitting numbers at +-1 and at
    # each endpoint cluster on the circle and its conjugate
    for path in bott_path_pool()[::5]:
        assert ix._ArcRule(path).cuts == _RefArcRule(path).cuts, path.label
        units = {complex(np.exp(s * 1j * np.mean(c)))
                 for c in path.spectrum.clusters for s in (1, -1)}
        for w in (1.0, -1.0, np.exp(0.777j), np.exp(2.3j)):
            new, ref = _both(lambda: index_nu(path, w),
                             lambda: _ref_index(path, w))
            assert new == ref, (path.label, w)
        new, ref = _both(lambda: iterate_indices(path, 6),
                         lambda: _ref_table(_RefArcRule(path), 6))
        assert new == ref, path.label
        new, ref = _both(lambda: mean_index(path, 256),
                         lambda: _ref_mean(_RefArcRule(path), 256))
        assert new == ref, path.label
        for w in sorted(units | {1.0, -1.0}, key=np.angle):
            new, ref = _both(lambda: splitting_numbers_numeric(path, w),
                             lambda: _ref_splitting(path, w))
            assert new == ref, (path.label, w)


def _merged_cut_case():
    # eigenvalues e^{+-0.386i} and -1 +- 8.5e-5 i: the cut at the latter
    # merges with the cut at -1
    rng = np.random.default_rng(99)
    for _ in range(185):
        M = _random_normal_form(rng, rng.integers(1, 3))
    return normal_form_path(M), np.exp(3.141507j)


def _arc_midpoint_case():
    # N1(-1, -1) ◇ R(pi + 0.0085), conjugated: the arc midpoint between
    # the two cuts reports a kernel
    rng = np.random.default_rng(5)
    for _ in range(17):
        random_symplectic(2, rng)
    g = random_symplectic(2, rng)
    M = resymplectify(g @ diamond_all([N1_block(-1.0, -1.0),
                                       R_block(PI + 0.0085)])
                      @ np.linalg.inv(g))
    return normal_form_path(M), -1.0


def test_non_finite_endpoint_is_a_typed_error():
    # exp(800 t) overflows: the endpoint is nan, which LAPACK would meet
    # as a raw LinAlgError
    path = exp_path(np.diag([800.0, 1.0, -800.0, 1.0]))
    calls = (lambda: index_nu(path, 1.0), lambda: index_nu(path, -1.0),
             lambda: mean_index(path, 32))
    for call in calls:
        with pytest.raises(NumericalConsistencyError,
                           match="endpoint of .* is not finite"):
            call()


def test_errors_keep_type_and_message():
    # next to a Jordan block at 1 the counts stay inconsistent
    shear, w = normal_form_path(N1_block(1.0, 1.0)), np.exp(1.1e-3j)
    new, ref = _both(lambda: index_nu(shear, w),
                     lambda: _ref_index(shear, w))
    assert new == ref == ("TangencyError", (
        "tangency unresolved at omega=0.999999+0.0011j after twist ladder: "
        "one-sided counts -1/0 inconsistent with nullity 0 at eps=1.6e-06"))
    for case, kind in ((_merged_cut_case, "MergedCutError"),
                       (_arc_midpoint_case, "TangencyError")):
        path, w = case()
        new, ref = _both(lambda: splitting_numbers_numeric(path, w),
                         lambda: _ref_splitting(path, w))
        assert new == ref and new[0] == kind, (new, ref)


def test_no_eigenvalue_on_a_failing_arc_splits_by_zero():
    # the arc between the cuts at pi - 0.0085 and pi fails its count, but
    # omega on it is no eigenvalue, so it splits by zero and is not counted
    path, _ = _arc_midpoint_case()
    M = path.endpoint
    for a in (3.13734, -3.13734):
        w = np.exp(1j * a)
        assert (splitting_numbers_numeric(path, w)
                == splitting_table(spectral_summary(M), w)
                == SplittingPair(0, 0))
    with pytest.raises(TangencyError, match="arc midpoint"):
        ix._ArcRule(path)([np.exp(3.13734j)])


def _loxodromic_path(log_r, theta):
    """exp_path to diag(A, A^-T), A = e^{log_r} R(theta): the eigenvalues
    e^{+-log_r} e^{+-i theta}, off the circle by about |log_r|."""
    B = np.array([[log_r, -theta], [theta, log_r]])
    Z = np.zeros((2, 2))
    return exp_path(np.block([[Z, B.T], [B, Z]]))


def _chain_at_one_path():
    """exp_path of H = q2 p1 + p2^2 / 2: one Jordan chain of length 4 at 1."""
    S = np.zeros((4, 4))
    S[1, 2] = S[2, 1] = S[3, 3] = 1.0
    return exp_path(S)


@pytest.mark.parametrize("path, error, match, at_one", [
    pytest.param(_chain_at_one_path(), UnsupportedNormalForm,
                 "Jordan chain of length >= 3", (0, 1), id="jordan chain"),
    pytest.param(_loxodromic_path(5e-5, 1.0), NumericalConsistencyError,
                 "kernel dimension 0 vs multiplicity 2", (0, 0),
                 id="loxodromic on the circle"),
])
def test_a_refused_endpoint_spectrum_still_cuts_and_counts(path, error,
                                                           match, at_one):
    # stage 1 of the spectrum never raises, so the arc rule cuts the circle
    # where stage 2 refuses the endpoint; the integers are the ones the
    # counts gave before the two stages were split
    with pytest.raises(error, match=match):
        spectral_summary(path.endpoint)
    assert sum(map(len, path.spectrum.clusters)) == 4
    assert ix._ArcRule(path).cuts == _RefArcRule(path).cuts
    assert [index_nu(path, w).as_tuple()
            for w in (1.0, -1.0, np.exp(0.777j))] == [at_one, (0, 0), (0, 0)]
    assert mean_index(path, 64) == (0.0, 0.125)


def test_one_circle_tolerance_for_clusters_and_cuts():
    # the snap is relative, ||z| - 1| <= 1e-4 max(|z|, 1), the same for z
    # and 1/z: a loxodromic quadruple 5e-5 off the circle is one cluster of
    # four and cuts it, 5e-4 off it is neither, and cuts nothing
    near, far = _loxodromic_path(5e-5, 1.0), _loxodromic_path(5e-4, 1.0)
    [c] = near.spectrum.clusters
    assert len(c) == 4 and c[0] <= 1.0 <= c[-1] and c[-1] - c[0] < 1e-12
    assert ix._ArcRule(near).cuts == [[0.0, 0.0], [c[0], c[-1]], [PI, PI]]
    assert far.spectrum.clusters == () and len(far.spectrum.off_circle) == 4
    assert ix._ArcRule(far).cuts == _RefArcRule(far).cuts == [[0.0, 0.0],
                                                              [PI, PI]]
    assert len(spectral_summary(far.endpoint).off_circle) == 4
    assert mean_index(far, 64) == (0.0, 0.125)


# ROADMAP item 10: near a Jordan block at 1 the direct count reads a kernel
# where omega is no eigenvalue; at 2e-3 rad it is clear of the block
def test_jordan_block_at_one_counts_nothing_off_its_reach():
    shear = normal_form_path(N1_block(1.0, 1.0))
    r = index_nu(shear, np.exp(2e-3j))
    assert (r.index, r.nullity) == (0, 0)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: false nullity "
                   "next to a Jordan block at 1, (-1, 1) at 9e-4 rad")
def test_jordan_block_at_one_has_no_false_nullity():
    shear = normal_form_path(N1_block(1.0, 1.0))
    r = index_nu(shear, np.exp(9e-4j))
    assert (r.index, r.nullity) == (0, 0)


def _constant_corpus_path(trial):
    """exp_path(S) of one trial of the constant-coefficient corpus: per
    trial n in 1..3 and S = A + A^T of a standard normal A, scaled to a
    2-norm drawn from U(0.5, 12)."""
    rng = np.random.default_rng(3)
    for _ in range(trial + 1):
        n = rng.integers(1, 4)
        A = rng.standard_normal((2 * n, 2 * n))
        S = A + A.T
        S *= rng.uniform(0.5, 12) / np.linalg.norm(S, 2)
    return exp_path(S)


def test_krein_collision_near_omega_counts_zero():
    # trial 142 (n = 3): elliptic modes at 2.644 and 2.683 of opposite
    # Krein sign, so the closed form gives 0 at every omega between them
    # and 1.  At eps = 1e-4 the lower twist passes each omega 9.3e-4 away
    # and counts a crossing that is not there; the upper count disagrees,
    # and at 5e-5 the two true crossings of opposite sign cancel
    p = _constant_corpus_path(142)
    for phi in (0.777, 2.3, 4.0):
        r = index_nu(p, np.exp(1j * phi))
        assert (r.index, r.nullity) == (0, 0), phi


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: s_0 of about 300 "
                   "widens the kernel window, so one crossing counts twice")
def test_hyperbolic_growth_does_not_double_a_crossing():
    # trial 18 (n = 3): one elliptic mode at 4.701 and two hyperbolic
    # ones; the closed form gives i_{-1} = 2, the engine reads 4 from two
    # candidates 6e-6 apart around the crossing at t = 0.668292
    r = index_nu(_constant_corpus_path(18), -1.0)
    assert (r.index, r.nullity) == (2, 0)


class _LoopArcRule(ix._ArcRule):
    """The arc rule with each query classified on its own, in Python: the
    reference for the batched classification of `_ArcRule.__call__`."""

    locate = _RefArcRule.locate

    def __call__(self, omegas=(), arcs=()):
        found, at = {}, {}    # the outcomes of this call's counts
        queries = []
        points = {}
        for omega in omegas:
            w = ix._normalize_omega(omega)
            a = _principal_angle(w)
            j, near = self.locate(a)
            if (j == 0 and a > self.cuts[0][1] + ix._RANK_TOL
                    and ix._AT_ONE <= abs(w - 1.0) < ix._NEAR_ONE):
                near = False
            if not near:
                queries.append((found, j))
                continue
            key = round(a, 12)
            points.setdefault(key, w if w.imag >= 0.0 else w.conjugate())
            queries.append((at, key))
        mids = {j: 0.5 * (self.cuts[j][1] + self.cuts[j + 1][0])
                for store, j in queries + [(found, j) for j in arcs]
                if store is found}
        res = ix._index_nus(self.samples, [np.exp(1j * mid) for mid in
                                           mids.values()]
                            + list(points.values()))
        for (j, mid), r in zip(mids.items(), res):
            if not isinstance(r, Exception) and r.nullity:
                r = TangencyError(f"arc midpoint at angle {mid:.6g} reports "
                                  f"nullity {r.nullity}")
            found[j] = r if isinstance(r, Exception) else r.index
        for key, r in zip(points, res[len(mids):]):
            at[key] = r if isinstance(r, Exception) else r.as_tuple()
        return ([(ix._value(store[key]), 0) if store is found
                 else ix._value(store[key]) for store, key in queries],
                [found[j] for j in arcs])


def _rule_outcome(rule, omegas, arcs=()):
    """A rule call's pairs and arc outcomes, each arc error as its type
    and message."""
    pairs, found = rule(omegas, arcs)
    return pairs, [(type(r).__name__, str(r)) if isinstance(r, Exception)
                   else r for r in found]


# angles inside the band 1e-12 < |omega - 1| < 1e-4 that a direct count
# refuses, on both sides of 1, and just outside it
_BAND_ANGLES = (2e-12, -3e-10, 4e-7, -9e-7, 2e-6, 5e-5, -5e-5, 9.9e-5, 1.2e-4,
                9e-4, 1.1e-3)


@pytest.mark.parametrize("case, Ks", [
    pytest.param(lambda: rotation_path(2.0), (256, 4096, 100001),
                 id="rotation"),
    pytest.param(lambda: _GEN, (256, 4096), id="elliptic n=2"),
    pytest.param(lambda: rotation_path(2 * PI + 5e-4), (256, 4096),
                 id="cut merged with 1"),
    pytest.param(lambda: normal_form_path(N1_block(1.0, 1.0)), (256, 4096),
                 id="shear at 1"),
    pytest.param(lambda: _arc_midpoint_case()[0], (256, 4096),
                 id="failing arc"),
])
def test_batched_arc_rule_equals_per_query_loop(case, Ks):
    # the same pairs, the same first error in query order and the same
    # arc outcomes as the rule that classifies one query at a time; a rule
    # serves repeated calls
    path = case()
    band = [np.exp(1j * a) for a in _BAND_ANGLES]
    for K in Ks:
        roots = ix._mean_roots(K)
        if K < 100001:
            roots = roots + [np.exp(-2j * PI * k / K) for k in range(1, K // 2)]
        new, ref = ix._ArcRule(path), _LoopArcRule(path)
        arcs = range(len(new.cuts) - 1)
        for omegas in (roots, band + roots[:9], roots + band,
                       [band[5], 1.5, band[0], 2j], [band[6]]):
            got, want = _both(lambda: _rule_outcome(new, omegas, arcs),
                              lambda: _rule_outcome(ref, omegas, arcs))
            assert got == want, (path.label, K)
        for w in band:
            got, want = _both(lambda: new([w]), lambda: ref([w]))
            assert got == want, (path.label, np.angle(w))


def _random_rows(rng, rows, width):
    """Distance and D rows with ties, minima at both ends and rows with no
    minimum below the trigger 1."""
    dist = rng.integers(0, 4, size=(rows, width)) * 0.5
    kind = rng.integers(0, 5, size=rows)
    ramp = np.arange(width) * 0.25
    dist[kind == 1] = ramp                         # lowest at the left end
    dist[kind == 2] = ramp[::-1]                   # lowest at the right end
    dist[kind == 3] += 2.0                         # nothing below trigger
    dist[kind == 4] = 0.5                          # all tied
    D = rng.integers(-2, 3, size=(rows, width)).astype(float)
    xs = np.sort(rng.uniform(0.0, 1.0, size=(rows, width)), axis=1)
    return xs, D, dist


@pytest.mark.parametrize("all_minima", [True, False])
@pytest.mark.parametrize("width", [2, 3, 5, 17])
def test_bracket_rows_equal_reference_brackets_row_by_row(width, all_minima):
    rng = np.random.default_rng(width + 100 * all_minima)
    xs, D, dist = _random_rows(rng, 400, width)
    got, rows = ix._bracket_rows(xs, D, dist, 1.0, all_minima)
    want = [(r, br) for r in range(len(xs))
            for br in _ref_brackets(xs[r], D[r], dist[r], 1.0, all_minima)]
    assert rows.tolist() == [r for r, _ in want]
    assert got.tolist() == [list(br) for _, br in want]
    assert len(want) > len(xs) // 2


def _counting(path):
    """path with a values_fn that records every batch of times it gets."""
    calls = []

    def values(ts):
        calls.append(np.array(ts))
        return path.values(ts)

    return SymplecticPath(path.n, path.tau, values, sform_fn=path.sforms,
                          seams=path.seams, grid_hint=path.grid_hint), calls


def _grid_reads(path, calls):
    N = max(ix._GRID, path.grid_hint)
    return [sum(np.array_equal(ts, ix._grid(path, k * N)) for ts in calls)
            for k in (1, 2, 4)]


def test_twisted_grids_are_sampled_once_per_count():
    for K in (64, 256):
        path, calls = _counting(_GEN)
        assert mean_index(path, K) == mean_index(_GEN, K)
        # the untwisted 2N grid serves both twists and the N grid of each;
        # so one read, however many omega the rule counts
        n1, n2, n4 = _grid_reads(path, calls)
        assert (n1, n2) == (0, 1) and n4 <= 1, (K, n1, n2, n4)
    M = diamond_all([R_block(2.0), R_block(4.0)])
    for w in (np.exp(2j), np.exp(4j), np.exp(0.777j)):
        path, calls = _counting(normal_form_path(M))
        assert (splitting_numbers_numeric(path, w)
                == splitting_numbers_numeric(normal_form_path(M), w))
        n1, n2, n4 = _grid_reads(path, calls)
        if w == np.exp(0.777j):
            # no eigenvalue: the pair is (0, 0) without a count
            assert (n1, n2, n4) == (0, 0, 0), (n1, n2, n4)
        else:
            assert (n1, n2) == (0, 1) and n4 <= 1, (w, n1, n2, n4)


def _outcome(call):
    try:
        return call().as_tuple()
    except SymstabError as exc:
        return type(exc).__name__


def test_batched_exponential_keeps_jordan_block_integers(monkeypatch):
    # reference copies take the exponential of each defective generator
    # with scipy's expm, one matrix at a time
    rng = np.random.default_rng(8)
    forms = [N1_block(1, 1), N1_block(1, -1), N2_block(2.0, True),
             N2_block(2.0, False),
             diamond_all([N1_block(1, 1), N2_block(2.0, False)])]
    mats = forms + [C @ M @ np.linalg.inv(C) for M in forms
                    for C in [random_symplectic(M.shape[0] // 2, rng)]]
    batched = [normal_form_path(M) for M in mats]
    generators = []

    def per_matrix(L):
        generators.append(L)
        return lambda ts: np.array([expm(t * L) for t in ts]).reshape(
            len(ts), *L.shape)

    monkeypatch.setattr(paths_mod, "_pade_exp", per_matrix)
    reference = [normal_form_path(M) for M in mats]
    assert len(generators) >= len(forms)
    for M, p, q in zip(mats, batched, reference):
        units = {complex(np.exp(1j * round(np.angle(lam), 6)))
                 for lam in np.linalg.eigvals(M) if abs(abs(lam) - 1) < 1e-9}
        for w in units | {1.0, -1.0, np.exp(0.777j), np.exp(2.3j)}:
            assert (_outcome(lambda: index_nu(p, w))
                    == _outcome(lambda: index_nu(q, w))), (p.label, w)
        for w in units:
            assert (_outcome(lambda: splitting_numbers_numeric(p, w))
                    == _outcome(lambda: splitting_numbers_numeric(q, w)))


def _refinement_batches(calls):
    """The batches of `calls` that are refinement levels: rows of
    _SPLIT + 1 equally spaced times."""
    out = []
    for ts in calls:
        if len(ts) % (ix._SPLIT + 1):
            continue
        rows = ts.reshape(-1, ix._SPLIT + 1)
        step = (rows[:, -1:] - rows[:, :1]) / ix._SPLIT
        if np.all(step > 0) and np.allclose(np.diff(rows, axis=1), step,
                                             rtol=1e-6, atol=0.0):
            out.append(ts)
    return out


@pytest.mark.parametrize("K", [16, 256])
def test_counts_of_a_twisted_path_share_refinement_batches(K):
    path, calls = _counting(_GEN)
    got = ix.iterates_and_mean(path, 4, K)
    ref_path, ref_calls = _counting(_GEN)
    rule = _RefArcRule(ref_path)
    assert got == (_ref_table(rule, 4), _ref_mean(rule, K))
    # the same matrices are evaluated, but the start form at omega = 1 is
    # read once per batch of form reads, not once for each of its counts at
    # N and 2N, and the upper twist reads its N grid from the untwisted 2N
    # grid, which the reference samples again, twisted
    N = max(ix._GRID, _GEN.grid_hint)
    flat = np.sort(np.concatenate(calls))
    ref_flat = np.sort(np.concatenate(ref_calls))
    assert ref_flat[0] == ref_flat[1] == 0.0
    left = collections.Counter(ref_flat.tolist())
    left.subtract([0.0] + ix._grid(_GEN, N).tolist())
    assert min(left.values()) >= 0
    assert np.array_equal(flat, np.sort(list(left.elements())))
    assert len(flat) == 1980
    # but each refinement level of a search is one batch: one search per
    # ladder step holds the lower counts at N and 2N and the upper counts
    # at N, so its levels are as many as its deepest count needs
    depth = collections.defaultdict(int)
    for sign, eps, n_grid, levels in rule.samples.levels:
        stage = (sign, eps, n_grid == 4 * N)
        depth[stage] = max(depth[stage], levels)
    batches = len(_refinement_batches(calls))
    ref_batches = len(_refinement_batches(ref_calls))
    assert ref_batches == sum(lv for *_, lv in rule.samples.levels)
    assert batches <= max(depth.values()) < ref_batches, (
        batches, dict(depth), ref_batches)
    assert len(calls) < len(ref_calls)


def test_verify_surface_counts_plus_minus_one_once_per_orbit(monkeypatch):
    seen = collections.Counter()
    stages = collections.defaultdict(list)    # per orbit, per search
    search = ix._search

    def recorded(samples, eps, jobs):
        N = max(ix._GRID, samples.path.grid_hint)
        ends = collections.Counter()
        for sign, omega, M in jobs:
            if abs(omega.imag) < 1e-9:  # +-1, up to rounding of e^{i pi}
                seen[id(samples.path), round(omega.real), sign, eps, M] += 1
                ends[sign, M // N, round(omega.real)] += 1
        if ends:
            stages[id(samples.path)].append(ends)
        return search(samples, eps, jobs)

    monkeypatch.setattr(ix, "_search", recorded)
    rep = verify_surface(SurfaceSpec((1.0, 1.1)), m_max=2)
    assert len(rep.orbits) == 2
    assert {w for _, w, *_ in seen} == {1, -1}
    assert len({p for p, *_ in seen}) == 2
    # per orbit and omega = +-1: the lower twist at N and 2N, the upper at N
    assert len(seen) == 2 * 2 * 3, seen
    assert set(seen.values()) == {1}, seen
    # and one search per orbit holds all three
    whole = collections.Counter({(s, k, w): 1 for s, k in
                                 ((-1, 1), (-1, 2), (1, 1)) for w in (1, -1)})
    assert list(stages.values()) == [[whole], [whole]], stages


@pytest.mark.parametrize("m_max", (0, -3))
def test_iterate_table_refuses_m_max_below_one(m_max):
    path = rotation_path(2.0)
    with pytest.raises(DimensionError, match="m_max"):
        iterate_indices(path, m_max)
    with pytest.raises(DimensionError, match="m_max"):
        ix.iterates_and_mean(path, m_max, 8)
    # the mean alone still reads no iterate table
    assert mean_index(path, 8) == (0.625, 0.5)


@pytest.mark.parametrize("call", [
    pytest.param(lambda p: index_nu(p, "x"), id="index_nu text"),
    pytest.param(lambda p: index_nu(p, None), id="index_nu None"),
    pytest.param(lambda p: splitting_numbers_numeric(p, "x"),
                 id="splitting text"),
    pytest.param(lambda p: splitting_numbers_numeric(p, None),
                 id="splitting None"),
    pytest.param(lambda p: splitting_table(spectral_summary(p.endpoint), "x"),
                 id="splitting table text"),
    pytest.param(lambda p: splitting_table(spectral_summary(p.endpoint),
                                           None), id="splitting table None"),
    pytest.param(lambda p: ix._ArcRule(p)(["x"]),
                 id="arc rule text"),
    pytest.param(lambda p: ix._ArcRule(p)([1j, None]),
                 id="arc rule None after a good omega"),
    pytest.param(lambda p: iterate_indices(p, 2.5), id="iterates float"),
    pytest.param(lambda p: ix.iterates_and_mean(p, 2.5, 8),
                 id="iterates_and_mean float m_max"),
    pytest.param(lambda p: ix.iterates_and_mean(p, "2", 8),
                 id="iterates_and_mean text m_max"),
    pytest.param(lambda p: ix.iterates_and_mean(p, 2, 2.5),
                 id="iterates_and_mean float K"),
])
def test_unusable_index_arguments_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call(rotation_path(2.0))


def test_both_splitting_routes_scale_omega_onto_the_circle():
    M = N1_block(1.0, 1.0)
    w = 1.0 + 1e-7
    assert (splitting_table(spectral_summary(M), w)
            == splitting_numbers_numeric(normal_form_path(M), w)
            == splitting_table(spectral_summary(M), 1.0))


@pytest.mark.parametrize("K", [0, -4, 2.5, 4.0, "8"])
def test_mean_index_refuses_K_that_is_no_positive_integer(K):
    with pytest.raises(DimensionError):
        mean_index(_GEN, K)
    with pytest.raises(DimensionError):
        ix.iterates_and_mean(_GEN, 2, K)


def test_verify_surface_refuses_m_max_before_the_surface(monkeypatch):
    # the refusal comes before the pinch data and the orbit search
    def no_search(*args):
        raise AssertionError("surface read before m_max was checked")

    monkeypatch.setattr(classify, "find_orbits", no_search)
    monkeypatch.setattr(classify, "enclosing_radii", no_search)
    for m_max in (0, 2.5, "2", None):
        with pytest.raises(DimensionError, match="m_max"):
            verify_surface(SurfaceSpec((0.9,)), m_max=m_max)
    assert mean_index(_GEN, 1) == (index_nu(_GEN, 1.0).index, 4.0 * _GEN.n)


def _set_grid(path, N):
    # the grid as one set of floats, sorted
    tau = path.tau
    ts = set(np.linspace(0.0, tau, N + 1))
    geo = tau * np.power(2.0, -np.arange(4, 44, dtype=float))
    ts.update(geo)
    ts.update(tau - geo)
    ts.update(path.seams)
    arr = np.array(sorted(ts))
    return arr[(arr >= 0.0) & (arr <= tau)]


def test_grid_equals_the_set_construction():
    # seams on and off the linspace, twisted and not
    paths = [_GEN, iterate_path(_GEN, 3), iterate_path(rotation_path(2 * PI), 4),
             twisted_path(iterate_path(_GEN, 5), 1e-4, -1)]
    for path in paths:
        for N in (256, 512, 1024):
            grid = ix._grid(path, N)
            assert np.array_equal(grid, _set_grid(path, N))
            assert set(path.seams) <= set(grid)
    assert sum(len(p.seams) for p in paths) == 9


_SHIPPED = [SurfaceSpec((1.0, 1.1)), SurfaceSpec(**PERTURBED),
            SurfaceSpec((1.0, 1.08, 1.15), (0.2, -0.1, 0.15), 0.1)]


def _shipped_orbit_paths():
    return [monodromy_path(spec, ALPHA, o) for spec in _SHIPPED
            for o in find_orbits(spec, ALPHA)]


def test_factor_spectra_give_the_determinant_function_on_orbit_paths():
    # each orbit path and its twists at +-eps are diamond products of
    # 2x2 factors; the product over the factor eigenvalues is
    # det(P - omega I) of the assembled matrices on the engine's grids
    opts = IndexOptions()
    paths = _shipped_orbit_paths()
    assert len(paths) == 7
    for path in paths:
        n = path.n
        assert [f.n for f in path.factors] == [1] * n
        N = max(ix._GRID, path.grid_hint)
        for sign in (1, -1):
            tw = twisted_path(path, opts.eps, sign)
            assert [f.n for f in tw.factors] == [1] * n
            for ts in (ix._grid(tw, N), ix._grid(tw, 2 * N)):
                P = tw.values(ts)
                for k, f in enumerate(tw.factors):
                    plane = np.ix_(range(len(ts)), [k, n + k], [k, n + k])
                    assert np.abs(P[plane] - f.values(ts)).max() < 1e-15
                ev = ix._eigvals([f.values(ts) for f in path.factors],
                                 sign * opts.eps / path.tau * ts)
                for w in (1.0, -1.0, np.exp(0.777j), np.exp(2.3j)):
                    got = (ev - w).prod(axis=-1)
                    want = np.linalg.det(P - w * np.eye(2 * n))
                    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_orbit_path_integers_equal_the_lapack_reference():
    # the reference engine reads the eigenvalues of the assembled 2n x 2n
    # matrices by LAPACK
    for path in _shipped_orbit_paths():
        for w in (1.0, -1.0, np.exp(0.777j)):
            assert (index_nu(path, w).as_tuple()
                    == _ref_index(path, w).as_tuple()), (path.label, w)
        rule = _RefArcRule(path)
        table, mean = ix.iterates_and_mean(path, 4, 256)
        assert [r.as_tuple() for r in table] == [
            r.as_tuple() for r in _ref_table(rule, 4)], path.label
        assert mean == _ref_mean(rule, 256), path.label


_PERMS = np.array(list(itertools.permutations(range(4))))


def _quartic_cases():
    """(name, P, lapack, closed): a stack of 4x4 matrices, the rows that
    must go to LAPACK, and whether some rows must be read in closed form."""
    rng = np.random.default_rng(7)

    def conj(M):
        g = random_symplectic(2, rng)
        return resymplectify(g @ M @ np.linalg.inv(g))

    def on_grid(name, path, lapack_at_end=False):
        ts = ix._grid(path, 256)
        lapack = np.zeros(len(ts), dtype=bool)
        lapack[-1] = lapack_at_end
        return name, path.values(ts), lapack, True

    # geometric times tau 2^-k: within 2^-20 of the start P is the
    # identity to 1e-6, a fourfold root of the quadratic's x = 2
    twisted = twisted_path(normal_form_path(conj(N2_block(2.0, False))),
                           1e-4, 1)
    ks = np.arange(4, 44)
    geo = ("twisted normal form near t = 0",
           twisted.values(twisted.tau * np.power(2.0, -ks)), ks >= 20, False)
    # the Jordan block N1(1, 1) keeps x = 2 a root along the whole path
    jordan = normal_form_path(conj(diamond_all([N1_block(1.0, 1.0),
                                                D_block(2.0)])))
    ts = ix._grid(jordan, 256)
    jordan_case = ("N1(1, 1) ◇ D(2)", jordan.values(ts),
                   np.ones(len(ts), dtype=bool), False)
    # the loxodromic quadruple of ROADMAP item 5's trial 76,
    # 3.8e3 e^{+-0.356i} and its inverses, on a conjugated 4x4 generator
    B = np.array([[np.log(3802.0), -0.356], [0.356, np.log(3802.0)]])
    g = random_symplectic(2, rng)
    L = g @ np.block([[B, np.zeros((2, 2))], [np.zeros((2, 2)), -B.T]]) \
        @ np.linalg.inv(g)
    # expm(t A) of a generator that is no Hamiltonian matrix: not
    # symplectic once t leaves rounding
    A = 0.8 * np.random.default_rng(1).standard_normal((4, 4))
    ts = np.linspace(0.01, 1.0, 100)
    return [
        geo, jordan_case,
        on_grid("N1(-1, 1) ◇ R(2)", normal_form_path(
            conj(diamond_all([N1_block(-1.0, 1.0), R_block(2.0)]))), True),
        # Krein collisions at the endpoint
        on_grid("N2(2)", normal_form_path(conj(N2_block(2.0, True))), True),
        on_grid("R(2) ◇ R(2)", normal_form_path(
            conj(diamond_all([R_block(2.0), R_block(2.0)]))), True),
        on_grid("loxodromic", exp_path(np.linalg.solve(standard_J(2), L))),
        ("not symplectic", np.stack([expm(t * A) for t in ts]),
         np.ones(len(ts), dtype=bool), False),
    ]


def test_quartic_spectra_equal_lapack_as_multisets():
    # rows near a double root of the quadratic, and rows that are not
    # symplectic, are LAPACK's bit for bit.  Elsewhere both routes err by
    # about eps ||P|| over the distance to a double root, which the
    # closed form keeps above sqrt(_QUAD_TOL) = 0.03 (relative) for the
    # roots x and for l: about eps ||P||_F / _QUAD_TOL = 2e-13 ||P||_F.
    # So they agree within 1e-12 ||P||_F, as a multiset (the best of the
    # 24 pairings of the four eigenvalues)
    for name, P, lapack, closed in _quartic_cases():
        ev, ref = ix._eigvals4(P), np.linalg.eigvals(P)
        same = (ev == ref).all(axis=1)
        assert same[lapack].all(), name
        gap = np.abs(ev[:, None, :] - ref[:, _PERMS]).max(axis=2).min(axis=1)
        bound = 1e-12 * np.maximum(1.0, np.linalg.norm(P, axis=(1, 2)))
        assert (gap <= bound).all(), (name, (gap / bound).max())
        assert (~same).any() or not closed, name


def test_a_path_that_is_not_symplectic_is_refused():
    # the determinant function of a path that is not symplectic is not
    # real.  The closed form would hide that: it pairs every l with 1/l.
    # The symplectic gate of `_eigvals4` leaves such rows to LAPACK,
    # whose eigenvalues show it.  The first path, through expm(t A) with
    # A no Hamiltonian matrix, leaves the group at once, where its rows
    # near the identity go to LAPACK anyway; the second leaves it only
    # after t = 1/2, on rows the closed form would read
    ts = np.linspace(0.0, 1.0, 200)
    A = 0.8 * np.random.default_rng(1).standard_normal((4, 4))
    E = 0.1 * np.random.default_rng(1).standard_normal((4, 4))
    L = standard_J(2) @ np.diag([2.0, 3.0, 2.0, 3.0])
    for Ws in (np.stack([expm(t * A) for t in ts]),
               np.stack([expm(t * L) @ (np.eye(4) + max(t - 0.5, 0.0) ** 2 * E)
                         for t in ts])):
        path = paths_mod.path_from_samples(ts, Ws)
        with pytest.raises(NumericalConsistencyError,
                           match="determinant function not real"):
            index_nu(path, np.exp(0.777j))


def test_spline_sampled_orbit_paths_equal_the_lapack_reference():
    # splines through integrated samples are symplectic only to 1e-12 ..
    # 5e-10, so their 4x4 rows go to LAPACK; crossing times included
    sampled = [p for p in orbit_path_pool() if p.label == "sampled monodromy"]
    assert [p.n for p in sampled] == [1, 2, 2]
    for path in sampled:
        for w in (1.0, -1.0, np.exp(0.777j), np.exp(2.3j)):
            new, ref = _both(lambda: index_nu(path, w),
                             lambda: _ref_index(path, w))
            assert new == ref, (path.label, w)


def test_quartic_paths_equal_the_lapack_reference():
    # every n = 2 path of the random pool, one 4x4 factor each: the
    # engine with closed-form spectra against the reference, which reads
    # every spectrum by LAPACK
    paths = [p for p in random_path_pool() if p.n == 2]
    assert len(paths) == 60
    for path in paths:
        assert [f.n for f in path.factors] == [2]
        for w in (1.0, -1.0, np.exp(0.777j), np.exp(2.3j)):
            new, ref = _both(lambda: index_nu(path, w),
                             lambda: _ref_index(path, w))
            assert new == ref, (path.label, w)
        new, ref = _both(lambda: iterate_indices(path, 4),
                         lambda: _ref_table(_RefArcRule(path), 4))
        assert new == ref, path.label


def _form_batches_of(path, omegas):
    """(tw, jobs) of every batched crossing-form count the engine makes
    when it counts all the omegas on the path together."""
    calls = []
    form_counts = ix._form_counts

    def recorded(tw, jobs):
        calls.append((tw, [(w, list(found)) for w, found in jobs]))
        return form_counts(tw, jobs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ix, "_form_counts", recorded)
        ix._index_nus(ix._Samples(path), list(omegas))
    return calls


def _form_outcome(count, tw, omega, found):
    try:
        return count(tw, omega, found)
    except ix._FAILURES as exc:
        return type(exc).__name__, str(exc)


def _batch_outcomes(tw, jobs):
    return [r if isinstance(r, tuple) else (type(r).__name__, str(r))
            for r in ix._form_counts(tw, jobs)]


def _assert_batch_equals_one_job_reference(tw, jobs):
    # each job gets what a count of its own gives, errors included; the
    # whole-matrix reference gives the same counts and fails on the same
    # jobs, though where a job meets two errors it may meet them in
    # another order
    got = _batch_outcomes(tw, jobs)
    assert got == [_form_outcome(_ref_factor_form_count, tw, w, found)
                   for w, found in jobs], tw.label
    whole = [_form_outcome(_ref_form_count, tw, w, found)
             for w, found in jobs]
    assert [g if isinstance(g[0], int) else None for g in got] == [
        h if isinstance(h[0], int) else None for h in whole], tw.label
    return got


# iterate roots of m = 1..3 and omega = +-1; the start form is read at 1
_ROOTS = [1.0, -1.0, np.exp(2j * PI / 3), np.exp(-2j * PI / 3)]
_SEAMED = diamond_paths([iterate_path(rotation_path(1.5), 2),
                         rotation_path(2.0, tau=2.0)])


@pytest.mark.parametrize("paths, omegas", [
    pytest.param(_shipped_orbit_paths, _ROOTS, id="orbit paths"),
    pytest.param(lambda: [diamond_paths([rotation_path(2.5)] * 2)],
                 _ROOTS + [np.exp(1.3j), np.exp(2.5j)],
                 id="two factors cross together"),
    pytest.param(lambda: [diamond_paths([rotation_path(1.0),
                                         rotation_path(4.0)])],
                 _ROOTS + [np.exp(2.0j)], id="second factor crosses alone"),
    pytest.param(lambda: [_SEAMED], _ROOTS + [np.exp(1.5j), np.exp(0.7j)],
                 id="seam"),
    pytest.param(lambda: [diamond_paths(_mixed_sizes())],
                 _ROOTS + [np.exp(0.9j), np.exp(0.2j)],
                 id="factors of two sizes"),
])
def test_factor_form_count_equals_the_whole_matrix_reference(paths, omegas):
    # the candidate lists of all omegas of a case, counted as one batch per
    # factor and job by job on the whole matrix: the same (total,
    # crossings), or the same error
    counted = 0
    for path in paths():
        calls = _form_batches_of(path, omegas)
        assert calls, path.label
        assert max(len(jobs) for _, jobs in calls) > 1, path.label
        for tw, jobs in calls:
            got = _assert_batch_equals_one_job_reference(tw, jobs)
            counted += sum(isinstance(g[0], int) and g[0] != 0 for g in got)
    assert counted


def test_one_batch_gives_every_job_its_own_count():
    eps = IndexOptions().eps
    # kernel sizes 1 and 2 of one factor: R(t (4 - eps)) is -I at pi
    tw = twisted_path(rotation_path(4.0), eps, -1)
    rate = 4.0 - eps
    jobs = [(-1.0 + 0j, [PI / rate]), (np.exp(1.3j), [1.3 / rate]),
            (np.exp(0.3j), [])]
    kernels = [ix._kernel_basis(tw.value(found[0]), w)[0]
               for w, found in jobs[:2]]
    assert kernels == [2, 1]
    assert _assert_batch_equals_one_job_reference(tw, jobs) == [
        (2, (PI / rate,)), (1, (1.3 / rate,)), (0, ())]
    # the first factor meets omega at the seam t = 1 of its iterate, where
    # both one-sided forms are read; beside it a job with no candidates
    tw = twisted_path(_SEAMED, eps, -1)
    w = np.exp(1j * (1.5 - 0.5 * eps))
    jobs = [(w, [1.0]), (np.exp(0.7j), []), (w, [0.4, 1.0, 1.0 + 1e-12, 1.7])]
    got = _assert_batch_equals_one_job_reference(tw, jobs)
    assert got[0] == (1, (1.0,)) and got[1] == (0, ())
    assert 1.0 in got[2][1] and got[2][0] == 1
    # two factors meet omega at once, each with its own kernel
    tw = twisted_path(diamond_paths([rotation_path(2.5)] * 2), eps, -1)
    t = 1.3 / (2.5 - eps)
    assert _assert_batch_equals_one_job_reference(
        tw, [(np.exp(1.3j), [t])]) == [(2, (t,))]
    # a degenerate form next to a job that resolves: the shear plane has
    # the kernel e1 of P - I, where its coefficient vanishes
    tw = diamond_paths([shear_path(0.8), rotation_path(2.0)])
    got = _assert_batch_equals_one_job_reference(
        tw, [(1.0 + 0j, [0.5]), (np.exp(1.0j), [0.5])])
    assert got[0][0] == "_Degenerate" and got[1] == (1, (0.5,))


def _unreadable(path, bad_at):
    """path whose values are nan at the times in bad_at."""
    def values(ts):
        out = path.values(ts)
        out[np.isin(ts, bad_at)] = np.nan
        return out

    return SymplecticPath(path.n, path.tau, values, sform_fn=path.sforms,
                          seams=path.seams)


def test_a_failing_read_is_charged_to_its_own_rows():
    # the batched SVD fails on the nan rows; re-read row by row, it fails
    # only the jobs those rows belong to, each with the error a count of
    # its own raises
    tw = _unreadable(rotation_path(2.0), [0.25])
    jobs = [(np.exp(0.5j), [0.25]), (np.exp(1.0j), [0.5]),
            (np.exp(1.5j), [0.25, 0.75]), (1.0 + 0j, [])]
    got = _assert_batch_equals_one_job_reference(tw, jobs)
    assert got[0][0] == got[2][0] == "LinAlgError"
    assert got[1] == (1, (0.5,)) and got[3] == (1, ())
    # the kernels of every candidate come before any form: a failing
    # kernel at a later candidate wins over a degenerate form at an
    # earlier one, as in a count of its own
    tw = diamond_paths([shear_path(0.8),
                        _unreadable(rotation_path(2.0), [0.75])])
    got = _assert_batch_equals_one_job_reference(
        tw, [(1.0 + 0j, [0.5, 0.75]), (1.0 + 0j, [0.5]),
             (np.exp(1.0j), [0.5])])
    assert [g[0] for g in got] == ["LinAlgError", "_Degenerate", 1]


def _asymmetric(path, bad_at):
    """path whose coefficient is far from symmetric at the times in bad_at."""
    def sforms(ts, side):
        out = path.sforms(ts, side)
        out[np.isin(ts, bad_at), 0, 1] += 10.0
        return out

    return SymplecticPath(path.n, path.tau, path.values, sform_fn=sforms,
                          seams=path.seams)


def test_a_failing_form_read_fails_only_the_jobs_crossing_there():
    # the batched `sforms` read fails at t = 0.25; counted again one by
    # one, only the jobs with a crossing there fail, and a job whose
    # candidate at 0.25 has no kernel counts as before
    tw = _asymmetric(rotation_path(2.0), [0.25])
    jobs = [(np.exp(0.5j), [0.25]), (np.exp(1.0j), [0.5]),
            (np.exp(1.5j), [0.25, 0.75]), (1.0 + 0j, []),
            (np.exp(0.5j), [0.25, 0.5])]
    got = _assert_batch_equals_one_job_reference(tw, jobs)
    assert got[0] == got[4] == ("NumericalConsistencyError", str(
        pytest.raises(NumericalConsistencyError, tw.sform, 0.25).value))
    assert got[1:4] == [(1, (0.5,)), (1, (0.75,)), (1, ())]
    # a job's reads all come before its signs: a failing form read at a
    # later candidate wins over a degenerate form at an earlier one,
    # where the one-job reference, which signs each candidate as it
    # reads it, meets the degenerate form first
    tw = diamond_paths([shear_path(0.8),
                        _asymmetric(rotation_path(4 * PI), [0.5])])
    job = (1.0 + 0j, [0.25, 0.5])
    got = _batch_outcomes(tw, [job, (1.0 + 0j, [0.25])])
    assert got[0][0] == "NumericalConsistencyError" and "t=0.5 " in got[0][1]
    assert got[1][0] == "_Degenerate"
    assert _form_outcome(_ref_factor_form_count, tw, *job)[0] == "_Degenerate"


def test_kernel_basis_of_a_stack_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(3)
    mats = np.stack([R_block(2.0), R_block(1.0), rng.standard_normal((2, 2)),
                     np.eye(2)])
    for w in (np.exp(2j), 1.0):
        stacked = ix._kernel_basis(mats, w)
        assert len(stacked) == len(mats)
        for (k, B), M in zip(stacked, mats):
            k1, B1 = ix._kernel_basis(M, w)
            assert k == k1 and (B is None) == (B1 is None)
            if k:
                assert np.array_equal(B, B1)
    assert [k for k, _ in ix._kernel_basis(mats, np.exp(2j))] == [1, 0, 0, 0]
    assert [k for k, _ in ix._kernel_basis(mats, 1.0)] == [0, 0, 0, 2]


def test_form_count_reads_only_the_plane_factors(monkeypatch):
    # on an orbit path the crossing forms of all the jobs of a read come
    # from the 2x2 factors: per read, one `values` read of each factor and
    # at most one `sforms` read per side, and no read of the whole twisted
    # diamond
    reads = None
    for name in ("values", "sforms", "sform"):
        method = getattr(SymplecticPath, name)

        def recorded(self, *args, _method=method, _name=name):
            if reads is not None:
                reads.append((_name, self, args[1] if len(args) > 1 else 1))
            return _method(self, *args)

        monkeypatch.setattr(SymplecticPath, name, recorded)
    form_counts = ix._form_counts
    sweeps = []

    def traced(tw, jobs):
        nonlocal reads
        reads = []
        try:
            return form_counts(tw, jobs)
        finally:
            sweeps.append((tw, jobs, reads))
            reads = None

    monkeypatch.setattr(ix, "_form_counts", traced)
    spec = SurfaceSpec(**PERTURBED)
    for orbit in find_orbits(spec, ALPHA):
        path = monodromy_path(spec, ALPHA, orbit)
        ix.iterates_and_mean(path, 3, 64)
    assert sweeps
    shared = 0
    for tw, jobs, seen in sweeps:
        assert tw.n == 2 and len(tw.factors) == 2
        assert all(p.n == 1 and name != "sform" for name, p, _ in seen), (
            tw.label)
        with_candidates = sum(bool(found) for _, found in jobs)
        for f in tw.factors:
            own = collections.Counter(
                (name, side) for name, p, side in seen if p is f)
            assert own["values", 1] == (with_candidates > 0), own
            assert own["sforms", 1] <= 1 and own["sforms", -1] <= 1, own
        shared += with_candidates > 1 and any(
            name == "sforms" for name, _, _ in seen)
    # sweeps where several jobs have candidates and forms are read
    assert shared
