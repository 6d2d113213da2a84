"""Crossing-count engine: anchor values, additivity, grid stability."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from symstab import (
    IndexOptions,
    SurfaceSpec,
    SymplecticPath,
    diamond_all,
    diamond_paths,
    exp_path,
    index_nu,
    iterate_indices,
    iterate_path,
    lower_shear_path,
    mean_index,
    normal_form_path,
    random_symplectic,
    rotation_path,
    shear_path,
    splitting_numbers_numeric,
    twisted_path,
    verify_surface,
)
from symstab import index as ix
from symstab import paths as paths_mod
from symstab.errors import (
    DimensionError,
    NumericalConsistencyError,
    SymstabError,
)
from symstab.index import D_omega
from symstab.sympl import N1_block, N2_block, R_block

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


# ---------------------------------------------------------------------------
# one sampling of the twisted grids per count
# ---------------------------------------------------------------------------

def _per_omega_count_once(path, omega, sign, eps, opts, N):
    """The crossing count as it was before the grid samples were shared:
    every omega builds its own twisted path and samples its grid afresh."""
    tau = path.tau
    tw = twisted_path(path, eps, sign)
    n = path.n
    pref = (-1.0) ** (n - 1) * np.conj(omega) ** n

    def sample(ts):
        ev = np.linalg.eigvals(tw.values(ts))
        diff = ev - omega
        return pref * diff.prod(axis=-1), np.abs(diff).min(axis=-1)

    ts = ix._grid(tw, N)
    Draw, dist = sample(ts)
    if np.abs(Draw.imag).max() > 1e-6 * max(np.abs(Draw).max(), 1e-12):
        raise NumericalConsistencyError(
            "determinant function not real; input path may not be symplectic")
    if dist[-1] < 3.0 * opts.accept_tol:
        raise ix._RetryEps(f"twisted endpoint still degenerate (eps={eps:.1e})")

    width = 64.0 * opts.refine_rtol * tau
    live = np.reshape(ix._brackets(ts, Draw.real, dist, opts.trigger, True),
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
        Dv, dv = sample(xs.ravel())
        live = np.reshape(
            [br for x, D, d in zip(xs, Dv.real.reshape(xs.shape),
                                   dv.reshape(xs.shape))
             for br in ix._brackets(x, D, d, opts.trigger,
                                    level <= ix._ALL_MINIMA)],
            (-1, 2))

    radius = max(200.0 * opts.refine_rtol * tau, 1e-6 * tau)
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
        k, B = ix._kernel_basis(M, omega, opts.rank_tol)
        if k == 0:
            continue
        near = [s for s in tw.seams if abs(s - t) < seam_atol]
        if near:
            s = near[0]
            f1 = ix._signature(B.conj().T @ tw.sform(s, -1) @ B, opts.form_tol)
            f2 = ix._signature(B.conj().T @ tw.sform(s, 1) @ B, opts.form_tol)
            if (f1 + f2) % 2:
                raise NumericalConsistencyError(
                    f"odd corner signature pair ({f1},{f2}) at t={s:.6g}")
            total += (f1 + f2) // 2
        else:
            total += ix._signature(B.conj().T @ tw.sform(t, 1) @ B,
                                   opts.form_tol)
        counted.append(t)

    if abs(omega - 1.0) < ix._AT_ONE:
        sig0 = ix._signature(tw.sform(0.0, 1), opts.form_tol)
        if sig0 % 2:
            raise NumericalConsistencyError("odd start-form signature")
        total += sig0 // 2

    return total, tuple(counted)


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
    pytest.param(iterate_path(normal_form_path(diamond_all(
        [N2_block(2.0, trivial=True), R_block(2.0)])), 2), [np.exp(2j)],
        True, id="eps ladder"),
])
def test_shared_sampling_leaves_results_unchanged(path, omegas, ladder,
                                                  monkeypatch):
    def results():
        direct = [index_nu(path, w) for w in omegas]
        rule = ix._ArcRule(path, IndexOptions())
        served = ([rule(w) for w in omegas]
                  + [rule.arc(j) for j in range(len(rule.cuts) - 1)])
        return direct, served, iterate_indices(path, 4), mean_index(path, 32)

    new = results()
    assert any(r.eps < IndexOptions().eps for r in new[0]) == ladder
    monkeypatch.setattr(ix, "_count_once",
                        lambda samples, *a: _per_omega_count_once(
                            samples.path, *a))
    assert new == results()


def _counting(path):
    """path with a values_fn that records every batch of times it gets."""
    calls = []

    def values(ts):
        calls.append(np.array(ts))
        return path.values(ts)

    return SymplecticPath(path.n, path.tau, values, sform_fn=path.sform,
                          seams=path.seams, grid_hint=path.grid_hint), calls


def _grid_reads(path, calls):
    N = max(IndexOptions().grid, path.grid_hint)
    return [sum(np.array_equal(ts, ix._grid(path, k * N)) for ts in calls)
            for k in (1, 2, 4)]


def test_twisted_grids_are_sampled_once_per_count():
    for K in (64, 256):
        path, calls = _counting(_GEN)
        assert mean_index(path, K) == mean_index(_GEN, K)
        # lower twist: the 2N grid, which also serves N; upper twist: N;
        # so one read of each, however many omega the rule counts
        n1, n2, n4 = _grid_reads(path, calls)
        assert (n1, n2) == (1, 1) and n4 <= 1, (K, n1, n2, n4)
    M = diamond_all([R_block(2.0), R_block(4.0)])
    for w in (np.exp(2j), np.exp(4j), np.exp(0.777j)):
        path, calls = _counting(normal_form_path(M))
        assert (splitting_numbers_numeric(path, w)
                == splitting_numbers_numeric(normal_form_path(M), w))
        n1, n2, n4 = _grid_reads(path, calls)
        assert (n1, n2) == (1, 1) and n4 <= 1, (w, n1, n2, n4)


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


def test_verify_surface_counts_plus_minus_one_once_per_orbit(monkeypatch):
    seen = collections.Counter()
    count_once = ix._count_once

    def recorded(first, omega, sign, eps, opts, N):
        if abs(omega.imag) < 1e-9:  # omega = +-1, up to rounding of e^{i pi}
            path = getattr(first, "path", first)
            seen[id(path), round(omega.real), sign, eps, N] += 1
        return count_once(first, omega, sign, eps, opts, N)

    monkeypatch.setattr(ix, "_count_once", recorded)
    rep = verify_surface(SurfaceSpec((1.0, 1.1)), m_max=2, mean_K=16)
    assert len(rep.orbits) == 2
    assert {w for _, w, *_ in seen} == {1, -1}
    assert len({p for p, *_ in seen}) == 2
    assert set(seen.values()) == {1}, seen
