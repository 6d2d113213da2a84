"""Convex level sets, their Hamiltonian flows, and closed characteristics.

Surfaces are star-shaped level sets {F = 1} with per-plane structure

    F(x) = sum_l w_l rho_l^2 + delta * sum_l q_l rho_l^4,

where rho_l^2 = x_l^2 + y_l^2 is the squared radius in the l-th symplectic
plane.  delta = 0 gives an ellipsoid with semiaxes r_l = w_l^{-1/2}; a small
delta keeps every coordinate plane invariant (so plane circles remain closed
orbits with computable radii) while making the transverse linearized flow
genuinely non-diagonal.

The dynamics use the homogeneous Hamiltonians H_alpha = j^alpha, with j the
gauge (Minkowski functional) of the surface, which here admits the closed
form j^2 = (Q + sqrt(Q^2 + 4 delta P4)) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import FlowError, GaugeError, OrbitSearchError
from .paths import (SymplecticPath, diamond_paths, lower_shear_path,
                    path_from_samples, product_path, rotation_path)
from .sympl import resymplectify, standard_J, symplectic_residual

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SurfaceSpec:
    """Star-shaped surface with invariant symplectic planes."""

    radii: tuple[float, ...]
    quartic: tuple[float, ...] = ()
    delta: float = 0.0

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        if not radii or any(r <= 0 for r in radii):
            raise GaugeError(f"radii must be positive, got {self.radii}")
        quartic = tuple(float(q) for q in self.quartic)
        if quartic and len(quartic) != len(radii):
            raise GaugeError("quartic coefficients must match the number of planes")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "quartic", quartic or (0.0,) * len(radii))

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / np.asarray(self.radii) ** 2

    def is_ellipsoid(self) -> bool:
        return self.delta == 0.0 or all(q == 0.0 for q in self.quartic)


def _plane_r2(spec: SurfaceSpec, x: np.ndarray) -> np.ndarray:
    n = spec.n
    return x[:n] ** 2 + x[n:] ** 2


def surface_value(spec: SurfaceSpec, x: np.ndarray) -> float:
    r2 = _plane_r2(spec, np.asarray(x, float))
    q = np.asarray(spec.quartic)
    return float(np.dot(spec.weights, r2) + spec.delta * np.dot(q, r2 * r2))


def surface_grad(spec: SurfaceSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    r2 = _plane_r2(spec, x)
    c = spec.weights + 2.0 * spec.delta * np.asarray(spec.quartic) * r2
    return 2.0 * np.concatenate([c, c]) * x


def surface_hess(spec: SurfaceSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    n = spec.n
    r2 = _plane_r2(spec, x)
    c = spec.weights + 2.0 * spec.delta * np.asarray(spec.quartic) * r2
    H = np.diag(np.concatenate([c, c]) * 2.0)
    for l in range(n):
        v = np.zeros(2 * n)
        v[l], v[n + l] = x[l], x[n + l]
        H += 8.0 * spec.delta * spec.quartic[l] * np.outer(v, v)
    return H


def gauge(spec: SurfaceSpec, x: np.ndarray) -> float:
    """Minkowski functional: the unique j > 0 with F(x / j) = 1."""
    x = np.asarray(x, float)
    r2 = _plane_r2(spec, x)
    Q = float(np.dot(spec.weights, r2))
    if Q == 0.0:
        return 0.0
    P4 = float(np.dot(spec.quartic, r2 * r2))
    j2 = 0.5 * (Q + math.sqrt(Q * Q + 4.0 * spec.delta * P4))
    if j2 <= 0:
        raise GaugeError("surface is not star-shaped at this point")
    return math.sqrt(j2)


def gauge_grad_hess(spec: SurfaceSpec, x: np.ndarray):
    """Gauge value with gradient and Hessian by implicit differentiation."""
    x = np.asarray(x, float)
    j = gauge(spec, x)
    if j == 0.0:
        raise GaugeError("gauge derivatives undefined at the origin")
    z = x / j
    g = surface_grad(spec, z)
    s = float(np.dot(g, z))
    if s <= 0:
        raise GaugeError("degenerate radial derivative; surface not transverse")
    grad = g / s
    Fzz = surface_hess(spec, z)
    Z = (np.eye(x.size) - np.outer(z, grad)) / j
    hess = (Fzz @ Z) / s - np.outer(g, Z.T @ (Fzz @ z + g)) / (s * s)
    hess = 0.5 * (hess + hess.T)
    return j, grad, hess


@dataclass(frozen=True)
class AlphaHamiltonian:
    """Homogeneous Hamiltonian H = j^alpha for a fixed surface."""

    spec: SurfaceSpec
    alpha: float = 1.5

    def value(self, x: np.ndarray) -> float:
        return gauge(self.spec, x) ** self.alpha

    def grad(self, x: np.ndarray) -> np.ndarray:
        j, gj, _ = gauge_grad_hess(self.spec, x)
        return self.alpha * j ** (self.alpha - 1.0) * gj

    def hess(self, x: np.ndarray) -> np.ndarray:
        a = self.alpha
        j, gj, Hj = gauge_grad_hess(self.spec, x)
        return a * (a - 1.0) * j ** (a - 2.0) * np.outer(gj, gj) \
            + a * j ** (a - 1.0) * Hj


@dataclass
class FlowResult:
    x: np.ndarray
    W: np.ndarray | None
    t: float
    energy_drift: float
    sympl_residual: float
    nfev: int
    sol: object = field(default=None, repr=False)


def integrate_flow(spec: SurfaceSpec, alpha: float, x0: np.ndarray, T: float,
                   rtol: float = 1e-11, atol: float = 1e-12,
                   variational: bool = True, dense: bool = False) -> FlowResult:
    """Integrate x' = J grad H_alpha, optionally with W' = J H'' W."""
    ham = AlphaHamiltonian(spec, alpha)
    d = 2 * spec.n
    J = standard_J(spec.n)
    x0 = np.asarray(x0, float)

    if variational:
        def rhs(_, y):
            x, W = y[:d], y[d:].reshape(d, d)
            out = np.empty_like(y)
            out[:d] = J @ ham.grad(x)
            out[d:] = (J @ ham.hess(x) @ W).ravel()
            return out
        y0 = np.concatenate([x0, np.eye(d).ravel()])
    else:
        def rhs(_, y):
            return J @ ham.grad(y)
        y0 = x0

    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol, atol=atol,
                    dense_output=dense)
    if not sol.success:
        raise FlowError(f"integration failed: {sol.message}")
    yT = sol.y[:, -1]
    xT = yT[:d]
    drift = abs(ham.value(xT) - ham.value(x0))
    W = None
    res = 0.0
    if variational:
        W_raw = yT[d:].reshape(d, d)
        res = symplectic_residual(W_raw)
        W = resymplectify(W_raw)
    return FlowResult(x=xT, W=W, t=T, energy_drift=drift,
                      sympl_residual=res, nfev=sol.nfev, sol=sol)


@dataclass(frozen=True)
class ClosedCharacteristic:
    """Closed orbit of the H_alpha flow on the unit level set."""

    spec: SurfaceSpec
    alpha: float
    x0: tuple[float, ...]
    period: float
    plane: int | None = None

    @property
    def action(self) -> float:
        return 0.5 * self.alpha * self.period


def plane_circle_radius(spec: SurfaceSpec, l: int) -> float:
    """Radius of the closed circle in the l-th invariant plane."""
    w = spec.weights[l]
    dq = spec.delta * spec.quartic[l]
    if dq == 0.0:
        return float(spec.radii[l])
    disc = w * w + 4.0 * dq
    if disc <= 0:
        raise GaugeError(f"plane {l} carries no circle (not star-shaped)")
    r2 = (-w + math.sqrt(disc)) / (2.0 * dq)
    if r2 <= 0:
        raise GaugeError(f"plane {l} circle radius is not positive")
    return math.sqrt(r2)


def plane_circle(spec: SurfaceSpec, alpha: float, l: int) -> ClosedCharacteristic:
    rho = plane_circle_radius(spec, l)
    x0 = np.zeros(2 * spec.n)
    x0[l] = rho
    return ClosedCharacteristic(spec=spec, alpha=alpha, x0=tuple(x0),
                                period=TWO_PI * rho * rho / alpha, plane=l)


def find_orbits(spec: SurfaceSpec, alpha: float = 1.5, confirm: bool = True,
                confirm_tol: float = 1e-7, rtol: float = 1e-11,
                ) -> list[ClosedCharacteristic]:
    """Closed characteristics on the surface, sorted by action.

    For this surface family every coordinate plane carries a closed circle;
    each candidate is confirmed by integrating one full period and checking
    the return error.  Orbits of equal action (symmetric surfaces) are kept
    once per plane.
    """
    orbits = []
    for l in range(spec.n):
        orb = plane_circle(spec, alpha, l)
        if confirm:
            res = integrate_flow(spec, alpha, np.asarray(orb.x0), orb.period,
                                 rtol=rtol, variational=False)
            err = float(np.linalg.norm(res.x - np.asarray(orb.x0)))
            if err > confirm_tol * max(1.0, np.linalg.norm(orb.x0)):
                raise OrbitSearchError(
                    f"plane {l} circle failed confirmation (return error {err:.2e})")
        orbits.append(orb)
    return sorted(orbits, key=lambda o: o.action)


def minimal_period(spec: SurfaceSpec, orbit: ClosedCharacteristic,
                   k_max: int = 8, tol: float = 1e-8) -> float:
    """Earliest return time T/k among integer divisors of the stored period."""
    x0 = np.asarray(orbit.x0)
    for k in range(k_max, 1, -1):
        res = integrate_flow(spec, orbit.alpha, x0, orbit.period / k,
                             variational=False)
        if np.linalg.norm(res.x - x0) < tol * max(1.0, np.linalg.norm(x0)):
            return orbit.period / k
    return orbit.period


def ellipsoid_orbit_path(spec: SurfaceSpec, alpha: float, l: int,
                         ) -> SymplecticPath:
    """Closed-form linearized-flow path along an ellipsoid plane circle.

    The l-th (in-plane) factor is a rotation composed with a lower shear and
    has the parabolic monodromy of the orbit's own plane; every other plane
    contributes a rotation at its transverse frequency.
    """
    if not spec.is_ellipsoid():
        raise GaugeError("closed-form path requires delta = 0")
    w = spec.weights
    tau = TWO_PI * spec.radii[l] ** 2 / alpha
    parts = []
    for k in range(spec.n):
        a = alpha * w[k]
        if k == l:
            parts.append(product_path(
                rotation_path(a * tau, tau),
                lower_shear_path(a * (alpha - 2.0) * tau, tau)))
        else:
            parts.append(rotation_path(a * tau, tau))
    p = diamond_paths(parts)
    p.label = f"ellipsoid plane {l} circle"
    return p


def monodromy_path(spec: SurfaceSpec, alpha: float,
                   orbit: ClosedCharacteristic, steps: int | None = None,
                   rtol: float = 1e-11) -> SymplecticPath:
    """Linearized-flow path W(t) along the orbit as an index-engine input."""
    if spec.is_ellipsoid() and orbit.plane is not None:
        return ellipsoid_orbit_path(spec, alpha, orbit.plane)
    N = steps or max(600, 200 * spec.n)
    res = integrate_flow(spec, alpha, np.asarray(orbit.x0), orbit.period,
                         rtol=rtol, dense=True)
    d = 2 * spec.n
    ts = np.linspace(0.0, orbit.period, N + 1)
    Ws = res.sol.sol(ts)[d:].T.reshape(-1, d, d)
    Ws[0] = np.eye(d)
    Ws[-1] = res.W  # resymplectified endpoint
    return path_from_samples(ts, Ws, label="integrated monodromy")


def action_quadrature(spec: SurfaceSpec, alpha: float,
                      orbit: ClosedCharacteristic, N: int = 2048) -> float:
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


def enclosing_radii(spec: SurfaceSpec, samples: int = 4096, seed: int = 0,
                    ) -> tuple[float, float]:
    """Min and max distance from the origin to the surface.

    Dense direction sampling plus the exact plane-circle radii; for delta=0
    these are the smallest and largest semiaxes.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, 2 * spec.n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = np.array([1.0 / gauge(spec, ui) for ui in u])
    exact = [plane_circle_radius(spec, l) for l in range(spec.n)]
    lo = min(radii.min(), min(exact))
    hi = max(radii.max(), max(exact))
    return float(lo), float(hi)


def convexity_margin(spec: SurfaceSpec, samples: int = 256, seed: int = 0,
                     ) -> float:
    """Smallest eigenvalue of the squared-gauge Hessian over sampled points.

    Positive margin certifies (sampled) convexity of the gauge ball.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(samples):
        u = rng.standard_normal(2 * spec.n)
        u /= np.linalg.norm(u)
        x = u / gauge(spec, u)
        j, gj, Hj = gauge_grad_hess(spec, x)
        H2 = 2.0 * np.outer(gj, gj) + 2.0 * j * Hj
        worst = min(worst, float(np.linalg.eigvalsh(H2).min()))
    return worst
