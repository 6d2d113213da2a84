"""Surfaces, flows, closed orbits, monodromies."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import ALPHA, PERTURBED, PERTURBED_N1, SURFACE_X
from symstab import (
    SurfaceSpec,
    enclosing_radii,
    find_orbits,
    integrate_flow,
    monodromy_path,
    symplectic_residual,
    verify_surface,
)
from symstab import dynamics
from symstab.dynamics import (AlphaHamiltonian, convexity_margin,
                              gauge_grad_hess, plane_circle_radius)
from symstab.errors import (DimensionError, FlowError, GaugeError,
                            OrbitSearchError)
from symstab.sympl import standard_J

PI = np.pi


def test_spec_validation():
    with pytest.raises(GaugeError):
        SurfaceSpec((0.0, 1.0))
    with pytest.raises(GaugeError):
        SurfaceSpec((-1.0, 1.0))
    s = SurfaceSpec((1.0, 1.1))
    assert s.n == 2 and s.is_ellipsoid()
    assert not SurfaceSpec(**PERTURBED).is_ellipsoid()
    # w_l^2 + 4 delta q_l < 0: rays near plane l miss the surface, where
    # `gauge` would take the square root of a negative number
    with pytest.raises(GaugeError, match="plane 1 carries no circle"):
        SurfaceSpec((1.0, 1.1), (-0.6, -0.6), 0.35)
    with pytest.raises(GaugeError, match="plane 0 carries no circle"):
        SurfaceSpec((1.0, 1.1), (-0.8, 0.0), 0.35)
    # a circle in every plane makes the surface star-shaped
    s = SurfaceSpec((1.0, 1.1), (-0.6, -0.45), 0.35)
    rng = np.random.default_rng(3)
    assert all(dynamics.gauge(s, u) > 0
               for u in rng.standard_normal((200, 4)))


def test_plane_circle_radius_ellipsoid():
    spec = SurfaceSpec((1.0, 1.1))
    assert plane_circle_radius(spec, 0) == pytest.approx(1.0, abs=1e-12)
    assert plane_circle_radius(spec, 1) == pytest.approx(1.1, abs=1e-12)


def test_find_orbits_ellipsoid_actions():
    orbs = find_orbits(SurfaceSpec((1.0, 1.1)), ALPHA)
    assert len(orbs) == 2
    assert orbs[0].action == pytest.approx(PI, abs=1e-9)
    assert orbs[1].action == pytest.approx(1.21 * PI, abs=1e-9)
    assert orbs[0].action < orbs[1].action
    assert orbs[0].plane == 0 and orbs[1].plane == 1


def test_energy_and_symplecticity_along_flow():
    spec = SurfaceSpec((1.0, 1.1))
    o = find_orbits(spec, ALPHA)[0]
    res = integrate_flow(spec, ALPHA, np.asarray(o.x0), o.period)
    assert res.energy_drift < 1e-9
    assert res.sympl_residual < 1e-8
    assert symplectic_residual(res.W) < 1e-8


def _circles(spec, alpha):
    """The plane circles `find_orbits` returns, unsorted and without its
    algebraic confirmation."""
    return [dynamics.plane_circle(spec, alpha, l) for l in range(spec.n)]


_CLOSED_FORM_SPECS = [
    SurfaceSpec((0.9,)), SurfaceSpec((1.0, 1.1)),
    SurfaceSpec(**PERTURBED_N1), SurfaceSpec(**PERTURBED),
    SurfaceSpec((1.0, 1.08, 1.15), (0.2, -0.1, 0.15), 0.1),
]


@pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
@pytest.mark.parametrize("spec", _CLOSED_FORM_SPECS, ids=repr)
def test_closed_form_monodromy_matches_variational_flow(spec, alpha):
    # the DOP853 variational flow read at sampled times over the whole
    # period, on every plane circle
    d = 2 * spec.n
    ts = np.linspace(0.0, 1.0, 33)
    for o in _circles(spec, alpha):
        res = integrate_flow(spec, alpha, np.asarray(o.x0), o.period,
                             dense=True)
        want = res.sol.sol(ts * o.period)[d:].T.reshape(-1, d, d)
        path = monodromy_path(spec, alpha, o)
        assert path.tau == o.period
        assert np.abs(path.values(ts * o.period) - want).max() < 1e-8
        assert np.abs(path.endpoint - res.W).max() < 1e-8


def test_closed_form_monodromy_refuses_coupled_planes(monkeypatch):
    spec = SurfaceSpec(**PERTURBED)
    o = _circles(spec, ALPHA)[0]
    inner = dynamics._gauge_derivs

    def coupled(spec, x, hess):
        j, grad, H = inner(spec, x, hess)
        H = H.copy()
        H[0, 1] = H[1, 0] = 1e-3      # x_1 against x_2: planes 0 and 1
        return j, grad, H

    monkeypatch.setattr(dynamics, "_gauge_derivs", coupled)
    with pytest.raises(FlowError, match=f"plane {o.plane} circle") as err:
        monodromy_path(spec, ALPHA, o)
    S0 = dynamics._ham_derivs(spec, ALPHA, np.asarray(o.x0))[1]
    assert err.value.residual == pytest.approx(
        ALPHA * 1e-3 / np.abs(S0).max(), rel=1e-12)


def test_closed_form_monodromy_refuses_a_circle_off_one_turn():
    spec = SurfaceSpec(**PERTURBED)
    o = _circles(spec, ALPHA)[1]
    late = dataclasses.replace(o, period=1.001 * o.period)
    with pytest.raises(FlowError, match=f"plane {o.plane} circle") as err:
        monodromy_path(spec, ALPHA, late)
    assert err.value.residual == pytest.approx(1e-3, rel=1e-9)


def test_verify_surface_integrates_nothing(monkeypatch):
    calls = []
    inner = dynamics.integrate_flow

    def counted(*args, **kwargs):
        calls.append(kwargs.get("variational", True))
        return inner(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_flow", counted)
    for spec in _CLOSED_FORM_SPECS:
        verify_surface(spec, alpha=ALPHA, m_max=1)
    assert calls == []


@pytest.mark.parametrize("alpha", (1.2, 1.5, 1.8))
@pytest.mark.parametrize("spec", _CLOSED_FORM_SPECS, ids=repr)
def test_algebraic_orbit_check_agrees_with_one_integrated_period(spec, alpha):
    # what `find_orbits` confirms without integrating: one DOP853 period
    # returns to the start, and the orbit condition holds to rounding
    for o in find_orbits(spec, alpha):
        x0 = np.asarray(o.x0)
        res = integrate_flow(spec, alpha, x0, o.period, variational=False)
        assert np.linalg.norm(res.x - x0) < 1e-7 * max(1.0, np.linalg.norm(x0))
        grad = AlphaHamiltonian(spec, alpha).grad(x0)
        turn = (2.0 * PI / o.period) * x0
        assert np.linalg.norm(grad - turn) <= 1e-14 * np.linalg.norm(turn)


def _mutated_circle(monkeypatch, field, factor):
    """Make `find_orbits` see the plane 1 circle of PERTURBED with x0 or
    the period scaled by factor."""
    inner = dynamics.plane_circle

    def mutated(spec, alpha, l):
        o = inner(spec, alpha, l)
        if l != 1:
            return o
        if field == "x0":
            return dataclasses.replace(o, x0=tuple(factor * np.asarray(o.x0)))
        return dataclasses.replace(o, period=factor * o.period)

    monkeypatch.setattr(dynamics, "plane_circle", mutated)


@pytest.mark.parametrize("field", ("x0", "period"))
def test_find_orbits_refuses_a_circle_off_the_orbit_condition(monkeypatch,
                                                              field):
    # a radius or a period 1e-6 off: j(x0) = 1 + 1e-6 for the radius (j is
    # homogeneous of degree one), and grad H is off (2 pi / T) x0 by 1e-6
    # relative for the period
    _mutated_circle(monkeypatch, field, 1.0 + 1e-6)
    with pytest.raises(OrbitSearchError, match="plane 1 circle") as err:
        find_orbits(SurfaceSpec(**PERTURBED), ALPHA)
    assert err.value.residual == pytest.approx(1e-6, rel=1e-6)


def _action_quadrature(spec, alpha, orbit, N=2048):
    """Numerical loop action (1/2) oint <J x, dx>; equals alpha * period / 2."""
    res = integrate_flow(spec, alpha, np.asarray(orbit.x0), orbit.period,
                         variational=False, dense=True)
    J = standard_J(spec.n)
    ham = AlphaHamiltonian(spec, alpha)
    ts = np.linspace(0.0, orbit.period, N + 1)
    xs = res.sol.sol(ts).T
    dots = np.array([J @ ham.grad(x) for x in xs])
    integrand = 0.5 * np.einsum('ij,ij->i', xs @ J.T, dots)
    return float(np.trapezoid(integrand, ts))


def _minimal_period(spec, orbit, k_max=8, tol=1e-8):
    """Earliest return time T/k among integer divisors of the stored period."""
    x0 = np.asarray(orbit.x0)
    for k in range(k_max, 1, -1):
        res = integrate_flow(spec, orbit.alpha, x0, orbit.period / k,
                             variational=False)
        if np.linalg.norm(res.x - x0) < tol * max(1.0, np.linalg.norm(x0)):
            return orbit.period / k
    return orbit.period


def test_action_quadrature_circle():
    spec = SurfaceSpec((1.0, 1.1))
    for o in find_orbits(spec, ALPHA):
        r = spec.radii[o.plane]
        assert _action_quadrature(spec, ALPHA, o) == pytest.approx(
            PI * r * r, rel=1e-8)


def test_minimal_period_prime_circle():
    spec = SurfaceSpec((1.0, 1.1))
    o = find_orbits(spec, ALPHA)[0]
    assert _minimal_period(spec, o) == pytest.approx(o.period, rel=1e-8)


def test_enclosing_radii():
    lo, hi = enclosing_radii(SurfaceSpec((1.0, 1.1, 1.25)))
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(1.25, abs=1e-9)
    # where both extremes are plane circles they are read bit for bit
    for kw in (PERTURBED, dict(radii=(1.0, 1.08, 1.15),
                               quartic=(0.2, -0.1, 0.15), delta=0.1)):
        spec = SurfaceSpec(**kw)
        circles = [plane_circle_radius(spec, l) for l in range(spec.n)]
        assert enclosing_radii(spec) == (min(circles), max(circles))
    # the minimum lies on the face of a plane with q_l = 0
    lo, _ = enclosing_radii(SurfaceSpec((1.062, 1.03), (0.0, -0.243), 0.15))
    assert lo == pytest.approx(1.05053792233, abs=1e-11)


def _simplex_grid_radii(spec, N):
    """Min and max of rho = 1/j over the directions whose plane radii
    a_l / sum a lie on a grid of N steps per edge of the simplex."""
    axes = np.meshgrid(*[np.arange(N + 1)] * (spec.n - 1), indexing="ij")
    head = np.stack([ax.ravel() for ax in axes], axis=1)
    head = head[head.sum(axis=1) <= N]
    a = np.hstack([head, N - head.sum(axis=1, keepdims=True)]) / N
    Q, P4 = a @ spec.weights, (a * a) @ np.asarray(spec.quartic)
    rho = np.sqrt(2.0 / (Q + np.sqrt(Q * Q + 4.0 * spec.delta * P4)))
    return rho.min(), rho.max()


@pytest.mark.parametrize("spec, N", [
    # minima inside the faces a_1 = 0 and a_2 = 0
    (SurfaceSpec((1.0659, 1.1577, 1.0606), (-0.0372, -0.2928, -0.0775),
                 0.15), 600),
    (SurfaceSpec((1.0407, 1.0525, 1.1501), (-0.1757, -0.0118, 0.3846),
                 0.15), 600),
    (SurfaceSpec(**SURFACE_X), 600),
    # the minimum r = 1.05053792233 lies on a face with a q_l = 0 plane
    (SurfaceSpec((1.062, 1.03), (0.0, -0.243), 0.15), 20000),
], ids=["face-0-2", "face-0-1", "X", "flat-plane"])
def test_enclosing_radii_match_a_dense_simplex_grid(spec, N):
    # the exact extremes bound every grid point, and the grid closes in on
    # them quadratically in its step: within 7e-9 here, far inside the
    # 8e-5 to 1.3e-4 by which 4096 random directions miss the first three
    lo, hi = enclosing_radii(spec)
    grid_lo, grid_hi = _simplex_grid_radii(spec, N)
    assert grid_lo - 1e-7 <= lo <= grid_lo + 1e-13
    assert grid_hi - 1e-13 <= hi <= grid_hi + 1e-7


def test_perturbed_surface_orbits_and_convexity():
    spec = SurfaceSpec(**PERTURBED)
    assert convexity_margin(spec) > 0
    orbs = find_orbits(spec, ALPHA)
    assert len(orbs) == 2
    # the quartic perturbation moves the actions off the ellipsoid values
    for o in orbs:
        res = integrate_flow(spec, ALPHA, np.asarray(o.x0), o.period)
        assert res.sympl_residual < 1e-8
        assert np.abs(res.x - np.asarray(o.x0)).max() < 1e-6


def test_period_scales_with_alpha():
    spec = SurfaceSpec((1.0, 1.1))
    p12 = find_orbits(spec, 1.2)[0].period
    p18 = find_orbits(spec, 1.8)[0].period
    assert p12 != pytest.approx(p18, rel=1e-3)
    # the action is a geometric quantity and must not move
    a12 = find_orbits(spec, 1.2)[0].action
    a18 = find_orbits(spec, 1.8)[0].action
    assert a12 == pytest.approx(a18, rel=1e-10)


# ---------------------------------------------------------------------------
# gauge derivatives: one pass, bit for bit those of the per-call reference
# ---------------------------------------------------------------------------

def _ref_r2(spec, x):
    n = spec.n
    return x[:n] ** 2 + x[n:] ** 2


def _ref_gauge(spec, x):
    x = np.asarray(x, float)
    r2 = _ref_r2(spec, x)
    Q = float(np.dot(1.0 / np.asarray(spec.radii) ** 2, r2))
    if Q == 0.0:
        return 0.0
    P4 = float(np.dot(spec.quartic, r2 * r2))
    j2 = 0.5 * (Q + math.sqrt(Q * Q + 4.0 * spec.delta * P4))
    if j2 <= 0:
        raise GaugeError("surface is not star-shaped at this point")
    return math.sqrt(j2)


def _ref_surface_grad(spec, x):
    r2 = _ref_r2(spec, x)
    c = (1.0 / np.asarray(spec.radii) ** 2
         + 2.0 * spec.delta * np.asarray(spec.quartic) * r2)
    return 2.0 * np.concatenate([c, c]) * x


def _ref_surface_hess(spec, x):
    n = spec.n
    r2 = _ref_r2(spec, x)
    c = (1.0 / np.asarray(spec.radii) ** 2
         + 2.0 * spec.delta * np.asarray(spec.quartic) * r2)
    H = np.diag(np.concatenate([c, c]) * 2.0)
    for l in range(n):
        v = np.zeros(2 * n)
        v[l], v[n + l] = x[l], x[n + l]
        H += 8.0 * spec.delta * spec.quartic[l] * np.outer(v, v)
    return H


def _ref_gauge_grad_hess(spec, x):
    # the two-call form: surface gradient and Hessian rebuilt per point
    x = np.asarray(x, float)
    j = _ref_gauge(spec, x)
    z = x / j
    g = _ref_surface_grad(spec, z)
    s = float(np.dot(g, z))
    grad = g / s
    Fzz = _ref_surface_hess(spec, z)
    Z = (np.eye(x.size) - np.outer(z, grad)) / j
    hess = (Fzz @ Z) / s - np.outer(g, Z.T @ (Fzz @ z + g)) / (s * s)
    hess = 0.5 * (hess + hess.T)
    return j, grad, hess


_GAUGE_SPECS = [
    SurfaceSpec((0.9,)), SurfaceSpec((1.0, 1.1)), SurfaceSpec((1.0, 1.1, 1.25)),
    SurfaceSpec((0.9,), (0.25,), 0.1), SurfaceSpec(**PERTURBED),
    SurfaceSpec((1.0, 1.08, 1.15), (0.2, -0.1, 0.15), 0.1),
    SurfaceSpec((0.7, 1.3, 2.0), (-0.4, 1.0, 0.05), 0.3),
]


@pytest.mark.parametrize("spec", _GAUGE_SPECS, ids=repr)
def test_gauge_derivatives_bit_identical_to_reference(spec):
    rng = np.random.default_rng(len(spec.radii) + int(100 * spec.delta))
    u = rng.standard_normal((200, 2 * spec.n))
    on_level = [ui / _ref_gauge(spec, ui) for ui in u[:100]]
    off_level = list(u[100:] * rng.uniform(0.05, 4.0, (100, 1)))
    for x in on_level + off_level:
        j, grad, hess = gauge_grad_hess(spec, x)
        rj, rgrad, rhess = _ref_gauge_grad_hess(spec, x)
        assert j == rj
        assert np.array_equal(grad, rgrad) and np.array_equal(hess, rhess)
    with pytest.raises(GaugeError):
        gauge_grad_hess(spec, np.zeros(2 * spec.n))


def test_flows_bit_identical_to_reference_right_hand_sides():
    # H_alpha' and H_alpha'' composed from the reference derivatives give
    # the same DOP853 solution, step for step
    spec, a = SurfaceSpec(**PERTURBED), ALPHA
    d = 2 * spec.n
    J = standard_J(spec.n)

    def variational(_, y):
        x, W = y[:d], y[d:].reshape(d, d)
        j, gj, Hj = _ref_gauge_grad_hess(spec, x)
        S = a * (a - 1.0) * j ** (a - 2.0) * np.outer(gj, gj) \
            + a * j ** (a - 1.0) * Hj
        return np.concatenate([J @ (a * j ** (a - 1.0) * gj),
                               (J @ S @ W).ravel()])

    def plain(_, x):
        j, gj, _ = _ref_gauge_grad_hess(spec, x)
        return J @ (a * j ** (a - 1.0) * gj)

    for o in _circles(spec, a):
        x0 = np.asarray(o.x0)
        for rhs, y0, var in ((variational,
                              np.concatenate([x0, np.eye(d).ravel()]), True),
                             (plain, x0, False)):
            ref = solve_ivp(rhs, (0.0, o.period), y0, method="DOP853",
                            rtol=1e-11, atol=1e-12)
            res = integrate_flow(spec, a, x0, o.period, variational=var)
            assert np.array_equal(res.sol.t, ref.t)
            assert np.array_equal(res.sol.y, ref.y)


def _count_gauge_derivs(monkeypatch):
    calls = {True: 0, False: 0}
    inner = dynamics._gauge_derivs

    def counted(spec, x, hess):
        calls[hess] += 1
        return inner(spec, x, hess)

    monkeypatch.setattr(dynamics, "_gauge_derivs", counted)
    return calls


def test_flow_evaluates_gauge_derivatives_once_per_step(monkeypatch):
    # one derivative pass per right-hand side call (the two-call form took
    # two), and the plain flow builds no Hessian
    spec = SurfaceSpec(**PERTURBED)
    for o in _circles(spec, ALPHA):
        calls = _count_gauge_derivs(monkeypatch)
        res = integrate_flow(spec, ALPHA, np.asarray(o.x0), o.period)
        assert calls == {True: res.nfev, False: 0}
        calls = _count_gauge_derivs(monkeypatch)
        res = integrate_flow(spec, ALPHA, np.asarray(o.x0), o.period,
                             variational=False)
        assert calls == {True: 0, False: res.nfev}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, float("nan"), float("inf")])
def test_alpha_outside_one_two_is_refused(alpha):
    # the theorems cover 1 < alpha < 2; verify_surface once certified
    # alpha = 0.5, and alpha = nan gave an orbit of period nan
    spec = SurfaceSpec((1.0, 1.1))
    with pytest.raises(DimensionError, match="alpha"):
        find_orbits(spec, alpha)
    with pytest.raises(DimensionError, match="alpha"):
        verify_surface(spec, alpha=alpha)
