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

Its derivatives come from one pass per point (`_gauge_derivs`): j,
z = x / j, the plane coefficients and grad j, with Hess j built on top
only when a caller needs it.  Each SurfaceSpec builds the arrays that pass
reads (weights, quartic coefficients, the Hessian mask, the identity) once.
The plain flow makes a gradient-only pass per right-hand side call, the
variational flow a full one.  Plane circles are confirmed as closed orbits
by the algebraic orbit condition at one point (`find_orbits`), and the
linearized flow along them comes in closed form from one Hessian
(`monodromy_path`); neither integrates.  The flows are the independent
route the tests and the benchmark check both against.

F and |x|^2 = sum_l a_l depend on x only through the plane radii
a_l = rho_l^2, so the shape of the surface lives on the simplex of
directions of a.  The ray through a meets the surface iff
Q^2 + 4 delta P4 = a^T (w w^T + 4 delta diag q) a > 0.  That matrix is
positive off its diagonal, so the form is positive on the whole simplex
iff every diagonal entry w_l^2 + 4 delta q_l is, that is, iff every plane
carries a circle; `SurfaceSpec` checks that once.  `enclosing_radii`
takes the extremes of |x| exactly, from the stationary points of sum a on
the faces of the simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import FlowError, GaugeError, OrbitSearchError
from .paths import (SymplecticPath, diamond_paths, lower_shear_path,
                    product_path, rotation_path)
from .sympl import resymplectify, standard_J, symplectic_residual

TWO_PI = 2.0 * math.pi
# relative residuals of the orbit condition and of the closed-form
# linearization, met to rounding
_CLOSED_FORM_TOL = 1e-9
# DOP853 tolerances of every flow
_RTOL, _ATOL = 1e-11, 1e-12


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
        quartic = quartic or (0.0,) * len(radii)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "quartic", quartic)
        w, q = 1.0 / np.asarray(radii) ** 2, np.asarray(quartic)
        # star-shaped iff every plane carries a circle (module docstring)
        bare = np.flatnonzero(~(w * w + 4.0 * (self.delta * q) > 0))
        if bare.size:
            raise GaugeError(f"plane {bare[0]} carries no circle: the "
                             "surface is not star-shaped")
        # read-only constants of every gauge evaluation, built once; the
        # mask holds 8 delta q_l on the entries (l, n+l) x (l, n+l)
        consts = dict(
            _w=w, _q=q,
            _dq2=2.0 * self.delta * q,
            _mask=np.kron(np.ones((2, 2)), np.diag(8.0 * self.delta * q)),
            _eye=np.eye(2 * len(radii)))
        for name, arr in consts.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def weights(self) -> np.ndarray:
        return self._w

    def is_ellipsoid(self) -> bool:
        return self.delta == 0.0 or all(q == 0.0 for q in self.quartic)


def _plane_r2(spec: SurfaceSpec, x: np.ndarray) -> np.ndarray:
    n = spec.n
    return x[:n] ** 2 + x[n:] ** 2


def gauge(spec: SurfaceSpec, x: np.ndarray) -> float:
    """Minkowski functional: the unique j > 0 with F(x / j) = 1."""
    x = np.asarray(x, float)
    r2 = _plane_r2(spec, x)
    Q = float(np.dot(spec._w, r2))
    if Q == 0.0:
        return 0.0
    P4 = float(np.dot(spec._q, r2 * r2))
    disc = Q * Q + 4.0 * spec.delta * P4
    if disc < 0:
        raise GaugeError("surface is not star-shaped at this point")
    return math.sqrt(0.5 * (Q + math.sqrt(disc)))


def _gauge_derivs(spec: SurfaceSpec, x: np.ndarray, hess: bool):
    """(j, grad j, Hess j) at x, the Hessian None unless asked for.

    One pass: the gauge j, z = x / j on the level set, the plane
    coefficients c_l = w_l + 2 delta q_l rho_l(z)^2 and grad F(z) = 2 c z,
    then grad j = grad F(z) / <grad F(z), z> by implicit differentiation
    of F(x / j) = 1.  Hess F(z) = diag(2 c) + mask * z z^T reads the
    per-spec mask of 8 delta q_l on each plane's 2x2 entries.
    """
    x = np.asarray(x, float)
    j = gauge(spec, x)
    if j == 0.0:
        raise GaugeError("gauge derivatives undefined at the origin")
    z = x / j
    c = spec._w + spec._dq2 * _plane_r2(spec, z)
    c2 = 2.0 * np.concatenate([c, c])
    g = c2 * z
    s = float(np.dot(g, z))
    if s <= 0:
        raise GaugeError("degenerate radial derivative; surface not transverse")
    grad = g / s
    if not hess:
        return j, grad, None
    # outer products by broadcasting: a[:, None] * b is np.outer(a, b)
    Fzz = spec._eye * c2 + spec._mask * (z[:, None] * z)
    Z = (spec._eye - z[:, None] * grad) / j
    H = (Fzz @ Z) / s - g[:, None] * (Z.T @ (Fzz @ z + g)) / (s * s)
    return j, grad, 0.5 * (H + H.T)


def gauge_grad_hess(spec: SurfaceSpec, x: np.ndarray):
    """Gauge value with gradient and Hessian by implicit differentiation,
    in one pass (`_gauge_derivs`) over the constants the spec built once."""
    return _gauge_derivs(spec, x, True)


@dataclass(frozen=True)
class AlphaHamiltonian:
    """Homogeneous Hamiltonian H = j^alpha for a fixed surface."""

    spec: SurfaceSpec
    alpha: float = 1.5

    def value(self, x: np.ndarray) -> float:
        return gauge(self.spec, x) ** self.alpha

    def grad(self, x: np.ndarray) -> np.ndarray:
        j, gj, _ = _gauge_derivs(self.spec, x, False)
        return self.alpha * j ** (self.alpha - 1.0) * gj


@dataclass
class FlowResult:
    x: np.ndarray
    W: np.ndarray | None
    t: float
    energy_drift: float
    sympl_residual: float
    nfev: int
    sol: object = field(default=None, repr=False)


def _ham_derivs(spec: SurfaceSpec, alpha: float, x: np.ndarray):
    """(grad H, H'') of H = j^alpha at x, from one gauge pass:
    H' = a j^(a-1) j' and H'' = a (a-1) j^(a-2) j' j'^T + a j^(a-1) j''."""
    j, gj, Hj = _gauge_derivs(spec, x, True)
    a1 = alpha * j ** (alpha - 1.0)
    a2 = alpha * (alpha - 1.0) * j ** (alpha - 2.0)
    return a1 * gj, a2 * (gj[:, None] * gj) + a1 * Hj


def integrate_flow(spec: SurfaceSpec, alpha: float, x0: np.ndarray, T: float,
                   variational: bool = True, dense: bool = False) -> FlowResult:
    """Integrate x' = J grad H_alpha, optionally with W' = J H'' W (the
    independent route the algebraic orbit check of `find_orbits` and the
    closed-form `monodromy_path` are tested against)."""
    ham = AlphaHamiltonian(spec, alpha)
    d = 2 * spec.n
    J = standard_J(spec.n)
    x0 = np.asarray(x0, float)

    if variational:
        def rhs(_, y):
            x, W = y[:d], y[d:].reshape(d, d)
            grad, S = _ham_derivs(spec, alpha, x)
            out = np.empty_like(y)
            out[:d] = J @ grad
            out[d:] = (J @ S @ W).ravel()
            return out
        y0 = np.concatenate([x0, np.eye(d).ravel()])
    else:
        def rhs(_, y):
            return J @ ham.grad(y)
        y0 = x0

    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=_RTOL,
                    atol=_ATOL, dense_output=dense)
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
    r2 = (-w + math.sqrt(w * w + 4.0 * dq)) / (2.0 * dq)
    if r2 <= 0:
        raise GaugeError(f"plane {l} circle radius is not positive")
    return math.sqrt(r2)


def plane_circle(spec: SurfaceSpec, alpha: float, l: int) -> ClosedCharacteristic:
    rho = plane_circle_radius(spec, l)
    x0 = np.zeros(2 * spec.n)
    x0[l] = rho
    return ClosedCharacteristic(spec=spec, alpha=alpha, x0=tuple(x0),
                                period=TWO_PI * rho * rho / alpha, plane=l)


def find_orbits(spec: SurfaceSpec, alpha: float = 1.5) -> list[ClosedCharacteristic]:
    """Closed characteristics on the surface, sorted by action.

    For this surface family every coordinate plane carries a closed circle
    x(t) = exp(2 pi t J / T) x0.  It is an orbit of x' = J grad H_alpha on
    the unit level set exactly when j(x0) = 1 and grad H_alpha(x0) =
    (2 pi / T) x0.  F depends only on the rho_l^2, so H is invariant under
    turning each plane, and the condition at x0 holds on the whole circle.
    Each circle is confirmed by both residuals, relative, against
    _CLOSED_FORM_TOL; OrbitSearchError carries the larger one.  Orbits of
    equal action (symmetric surfaces) are kept once per plane.
    """
    orbits = []
    for l in range(spec.n):
        orb = plane_circle(spec, alpha, l)
        x0 = np.asarray(orb.x0)
        j, gj, _ = _gauge_derivs(spec, x0, False)
        turn = (TWO_PI / orb.period) * x0
        grad = alpha * j ** (alpha - 1.0) * gj
        res = max(abs(j - 1.0),
                  float(np.linalg.norm(grad - turn) / np.linalg.norm(turn)))
        if res > _CLOSED_FORM_TOL:
            raise OrbitSearchError(
                f"plane {l} circle failed confirmation: the orbit condition "
                f"is off by {res:.2e} (relative)", res)
        orbits.append(orb)
    return sorted(orbits, key=lambda o: o.action)


def monodromy_path(spec: SurfaceSpec, alpha: float,
                   orbit: ClosedCharacteristic) -> SymplecticPath:
    """Linearized-flow path W(t) along a plane circle, in closed form.

    On the circle x(t) = R_l(omega t) x0 through x0 = rho_l e_l, H'' is
    R_l S0 R_l^T with S0 = H''(x0), so W(t) = R_l(omega t) exp(t J (S0 -
    omega P_l)), P_l the projector onto plane l.  The gradient of every
    rho_k^2, k != l, vanishes at x0, so S0 is sigma_k I off plane l and
    diag(omega + b, omega) in it: W turns plane l by 2 pi over the period
    after the lower shear [[1, 0], [b t, 1]], and every other plane at rate
    sigma_k (Ekeland 1990, Ch. V; Long 2002, Ch. 8).  Raises FlowError,
    carrying the relative residual, if S0 has other blocks or omega times
    the period is off 2 pi.
    """
    n, tau, l = spec.n, orbit.period, orbit.plane
    S0 = _ham_derivs(spec, alpha, np.asarray(orbit.x0, float))[1]
    s = np.diag(S0)
    sigma = 0.5 * (s[:n] + s[n:])
    model = np.concatenate([sigma, sigma])
    model[[l, n + l]] = s[[l, n + l]]
    omega, b = s[n + l], s[l] - s[n + l]
    block = float(np.abs(S0 - np.diag(model)).max() / np.abs(S0).max())
    turn = abs(omega * tau - TWO_PI) / TWO_PI
    if max(block, turn) > _CLOSED_FORM_TOL:
        raise FlowError(
            f"no closed form at the plane {l} circle: H'' is off its plane "
            f"blocks by {block:.2e} and the turn off 2 pi by {turn:.2e} "
            "(relative)", max(block, turn))
    parts = [product_path(rotation_path(TWO_PI, tau),
                          lower_shear_path(b * tau, tau)) if k == l
             else rotation_path(sigma[k] * tau, tau) for k in range(n)]
    p = diamond_paths(parts)
    p.label = f"plane {l} circle"
    return p


def enclosing_radii(spec: SurfaceSpec) -> tuple[float, float]:
    """Min and max distance from the origin to the surface, exact.

    With a_l = rho_l^2 the surface is F(a) = sum w_l a_l + delta sum q_l
    a_l^2 = 1 on the simplex of directions a >= 0, and |x|^2 = sum a_l.
    An extreme of sum a lies inside some face S (a_l > 0 exactly on S)
    and is stationary there: w_l + 2 delta q_l a_l = mu on S.  A face of
    one plane is its circle (`plane_circle_radius`).  On a larger face,
    F = 1 gives mu^2 sum_S 1/(4 delta q_l) = 1 + sum_S w_l^2/(4 delta q_l),
    and a plane with q_l = 0 fixes mu = w_l instead.  Only mu > 0 counts,
    since mu sum a = Q + 2 delta P4 > 0 on the star-shaped sheet.  A face
    with two planes of q_l = 0 has no isolated stationary point; where it
    has any, their sum a is that of a smaller face.  For delta = 0 the
    radii are the smallest and largest semiaxes.
    """
    radii = [plane_circle_radius(spec, l) for l in range(spec.n)]
    w = spec.weights.tolist()
    dq = [spec.delta * q for q in spec.quartic]
    for size in range(2, spec.n + 1):
        for S in itertools.combinations(range(spec.n), size):
            flat = [l for l in S if dq[l] == 0.0]
            curved = [l for l in S if dq[l] != 0.0]
            if len(flat) > 1:
                continue
            if flat:
                mu = w[flat[0]]
            else:
                A = sum(1.0 / (4.0 * dq[l]) for l in S)
                B = 1.0 + sum(w[l] ** 2 / (4.0 * dq[l]) for l in S)
                if A == 0.0 or B / A <= 0.0:
                    continue
                mu = math.sqrt(B / A)
            a = [(mu - w[l]) / (2.0 * dq[l]) for l in curved]
            if flat:   # F = 1 fixes the radius of the flat plane
                a.append((1.0 - sum(ak * (w[l] + dq[l] * ak)
                                    for l, ak in zip(curved, a)))
                         / w[flat[0]])
            if min(a) > 0.0:
                radii.append(math.sqrt(sum(a)))
    return min(radii), max(radii)


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
