"""Checks on symstab outputs that do not reuse the program's own formulas.

Closed forms for plane circles of ellipsoids and perturbed ellipsoids,
Long's iteration inequality, the action-index window from curvature
radii, and a second
index route through the dual action form with a time-dependent inverse
Hessian.  Integers are compared with ==; floats only within the bound the
method states.

Run ``python3 perfbench/oracles.py`` for a self-test on the n=1 ellipsoid
(a few seconds): every oracle must accept the program's output there and
reject a deliberately corrupted copy.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with an oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# closed forms for plane circles
# ---------------------------------------------------------------------------

def plane_circle_rho2(radii, quartic, delta, l: int) -> float:
    """rho_l^2 of the circle in plane l: the positive root of
    w rho^2 + delta q rho^4 = 1 with w = 1 / r_l^2."""
    w = 1.0 / radii[l] ** 2
    dq = delta * (quartic[l] if quartic else 0.0)
    if dq == 0.0:
        return radii[l] ** 2
    return (-w + math.sqrt(w * w + 4.0 * dq)) / (2.0 * dq)


def circle_action(radii, quartic, delta, l: int) -> float:
    """Action pi rho_l^2 of the plane-l circle."""
    return math.pi * plane_circle_rho2(radii, quartic, delta, l)


def _ratios(radii, j: int):
    rr = [r * r for r in radii]
    return [rr[j] / q for l, q in enumerate(rr) if l != j]


def _is_int(x: float) -> bool:
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


def ellipsoid_index_path(radii, j: int, m: int) -> tuple[int, int]:
    """Path-convention (i, nu) of the m-th iterate of the plane-j circle.

    Lattice count: each transverse plane l adds 2 #{k >= 1 : k < m r_j^2/r_l^2}
    to the orbit index 2(m - 1); an integer ratio adds a degenerate pair.
    """
    n = len(radii)
    i_orbit = 2 * (m - 1)
    nu = 1
    for x in _ratios(radii, j):
        x *= m
        below = math.ceil(x) - 1 if not _is_int(x) else round(x) - 1
        i_orbit += 2 * below
        nu += 2 if _is_int(x) else 0
    return i_orbit + n, nu


def ellipsoid_mean_index(radii, j: int) -> float:
    """Mean index 2 sum_l r_j^2 / r_l^2 of the plane-j circle."""
    return 2.0 + 2.0 * sum(_ratios(radii, j))


def ellipsoid_multipliers(radii, j: int) -> list[complex]:
    """Floquet multipliers: the trivial pair at 1 and e^{+-2 pi i r_j^2/r_l^2}."""
    out = [1.0 + 0j, 1.0 + 0j]
    for x in _ratios(radii, j):
        z = cmath.exp(2j * math.pi * x)
        out += [z, z.conjugate()]
    return out


def same_multiset(got, want, tol: float) -> bool:
    rest = list(want)
    if len(rest) != len(got):
        return False
    for z in got:
        k = min(range(len(rest)), key=lambda i: abs(z - rest[i]))
        if abs(z - rest[k]) > tol:
            return False
        rest.pop(k)
    return True


# ---------------------------------------------------------------------------
# inequalities every index table must satisfy
# ---------------------------------------------------------------------------

def long_iteration_ok(mean: float, bound: float, n: int, m: int,
                      i_m: int, nu_m: int) -> bool:
    """Long's inequality m(i^ - b) - n <= i_m <= m(i^ + b) + n - nu_m,
    with i^ known only to within the reported bound b."""
    return m * (mean - bound) - n <= i_m <= m * (mean + bound) + n - nu_m


def enclosing_radii(radii, quartic, delta, samples: int = 20000,
                    seed: int = 12345) -> tuple[float, float]:
    """Inner and outer radius of {F = 1} from the closed-form gauge.

    F = sum w_l rho_l^2 + delta sum q_l rho_l^4, so along a unit direction
    u the surface sits at distance 1/j(u) with
    j^2 = (Q + sqrt(Q^2 + 4 delta P)) / 2, Q = sum w_l u_l^2, P = sum q_l u_l^4.
    Sampled directions plus the plane circles.
    """
    n = len(radii)
    q = np.asarray(quartic if quartic else [0.0] * n, float)
    w = 1.0 / np.asarray(radii, float) ** 2
    u = np.random.default_rng(seed).standard_normal((samples, 2 * n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r2 = u[:, :n] ** 2 + u[:, n:] ** 2
    Q, P = r2 @ w, (r2 * r2) @ q
    dist = 1.0 / np.sqrt(0.5 * (Q + np.sqrt(Q * Q + 4.0 * delta * P)))
    circles = [math.sqrt(plane_circle_rho2(radii, quartic, delta, l))
               for l in range(n)]
    return (min(float(dist.min()), min(circles)),
            max(float(dist.max()), max(circles)))


def _gauge_sq(x, w, q, delta):
    n = len(w)
    r2 = x[..., :n] ** 2 + x[..., n:] ** 2
    Q, P = r2 @ w, (r2 * r2) @ q
    return 0.5 * (Q + np.sqrt(Q * Q + 4.0 * delta * P))


def curvature_radii(radii, quartic, delta, l: int, samples: int = 256,
                    h: float = 1e-4) -> tuple[float, float]:
    """Radii (rho_lo, rho_hi) of the balls whose inverse Hessians bound
    G = (Hess j^2)^{-1} along the plane-l circle: rho^2 = 2 / lambda for
    the extreme eigenvalues lambda of Hess j^2, by central differences of
    the closed-form gauge."""
    n = len(radii)
    w = 1.0 / np.asarray(radii, float) ** 2
    q = np.asarray(quartic if quartic else [0.0] * n, float)
    rho = math.sqrt(plane_circle_rho2(radii, quartic, delta, l))
    th = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    x = np.zeros((samples, 2 * n))
    x[:, l], x[:, n + l] = rho * np.cos(th), rho * np.sin(th)
    E = h * np.eye(2 * n)
    H = np.empty((samples, 2 * n, 2 * n))
    for a in range(2 * n):
        for b in range(2 * n):
            H[:, a, b] = (_gauge_sq(x + E[a] + E[b], w, q, delta)
                          - _gauge_sq(x + E[a] - E[b], w, q, delta)
                          - _gauge_sq(x - E[a] + E[b], w, q, delta)
                          + _gauge_sq(x - E[a] - E[b], w, q, delta)) / (4 * h * h)
    lam = np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1)))
    return math.sqrt(2.0 / lam.max()), math.sqrt(2.0 / lam.min())


def curvature_window_ok(s: float, n: int, rho_lo: float, rho_hi: float,
                        i_m: int, nu_m: int, rel: float = 1e-3) -> bool:
    """Action-index window from domination of inverse Hessians.

    (rho_lo^2 / 2) I <= G <= (rho_hi^2 / 2) I, and on the ball of radius
    rho the dual form at period s has 2n negative modes per k < s/(pi rho^2)
    and 2n null ones at k = s/(pi rho^2).  So the orbit-convention index
    is at least 2n #{k : k < s/(pi rho_hi^2)}, and index plus dual nullity
    (nu + 1) is at most 2n #{k : k <= s/(pi rho_lo^2)}.  `rel` widens both
    ends for the sampled curvature.
    """
    x_hi = s / (math.pi * rho_hi * rho_hi) * (1.0 - rel)
    x_lo = s / (math.pi * rho_lo * rho_lo) * (1.0 + rel)
    below = max(math.ceil(x_hi) - 1, 0)
    i_orb = i_m - n
    return 2 * n * below <= i_orb and i_orb + nu_m + 1 <= 2 * n * math.floor(x_lo)


# ---------------------------------------------------------------------------
# second route: dual action form with G(t) = (Hess j^2)(x(t))^{-1}
# ---------------------------------------------------------------------------

def inverse_hessian_loop(spec, x0, dynamics, wrap=None):
    """G(t) along the plane circle through x0 under the H_2 flow.

    Returns (G, s1): G is a callable on [0, infinity) with period s1, the
    H_2 period, which equals the circle's action.  `wrap`, if given,
    decorates G (the traced run uses it to time each sample).
    """
    rho2 = float(np.dot(x0, x0))
    s1 = math.pi * rho2
    flow = dynamics.integrate_flow(spec, 2.0, np.asarray(x0, float), s1,
                                   variational=False, dense=True)
    sol = flow.sol

    def G(t):
        x = sol.sol(t % s1)
        j, gj, Hj = dynamics.gauge_grad_hess(spec, x)
        return np.linalg.inv(2.0 * np.outer(gj, gj) + 2.0 * j * Hj)

    return (wrap(G) if wrap else G), s1


def galerkin_table(G, s1: float, n: int, m_max: int, galerkin):
    """Orbit-convention (i, nu) of iterates m = 1..m_max by mode counting."""
    out = []
    for m in range(1, m_max + 1):
        gi, gn, _K = galerkin.stabilized_index(G, m * s1, n)
        out.append((gi, gn))
    return out


def shifted(engine_table, n: int):
    """Engine (path convention) -> dual form convention (i - n, nu + 1)."""
    return [(i - n, nu + 1) for i, nu in engine_table]


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test() -> None:
    """Every oracle accepts the program on the n=1 ellipsoid and rejects a
    corrupted copy."""
    from symstab import dynamics, galerkin, index

    radii, alpha, n, m_max, K = (0.9,), 1.5, 1, 3, 32
    spec = dynamics.SurfaceSpec(radii)
    (orb,) = dynamics.find_orbits(spec, alpha)
    path = dynamics.monodromy_path(spec, alpha, orb)
    table = [r.as_tuple() for r in index.iterate_indices(path, m_max)]
    mean, bound = index.mean_index(path, K=K)
    mults = list(np.linalg.eigvals(path.endpoint))

    want = [ellipsoid_index_path(radii, 0, m) for m in range(1, m_max + 1)]
    require(table == want, f"index table {table} != closed form {want}")
    require(table != [(i + 2, nu) for i, nu in want], "index oracle is blind")
    exact = ellipsoid_mean_index(radii, 0)
    require(abs(mean - exact) <= bound == 4 * n / K,
            f"mean index {mean} +- {bound} vs {exact}")
    require(not abs(mean + 2 * bound - exact) <= bound, "mean oracle is blind")
    require(same_multiset(mults, ellipsoid_multipliers(radii, 0), 1e-6),
            f"multipliers {mults}")
    require(not same_multiset(mults, [1.0, -1.0], 1e-6),
            "multiplier oracle is blind")
    act = circle_action(radii, (), 0.0, 0)
    require(abs(orb.action - act) <= 1e-9 * act, f"action {orb.action} vs {act}")
    for m, (i_m, nu_m) in enumerate(table, start=1):
        require(long_iteration_ok(mean, bound, n, m, i_m, nu_m),
                f"Long's inequality at m={m}")
    require(not long_iteration_ok(mean, bound, n, 1, table[0][0] + 4,
                                  table[0][1]), "Long oracle is blind")
    r, R = enclosing_radii(radii, (), 0.0)
    require(abs(r - 0.9) < 1e-12 and abs(R - 0.9) < 1e-12, f"radii {r}, {R}")
    lo, hi = curvature_radii(radii, (), 0.0, 0)
    require(abs(lo - 0.9) < 1e-6 and abs(hi - 0.9) < 1e-6, f"curvature {lo}, {hi}")
    for m, (i_m, nu_m) in enumerate(table, start=1):
        require(curvature_window_ok(m * orb.action, n, lo, hi, i_m, nu_m),
                f"action window at m={m}")
    require(not curvature_window_ok(orb.action, n, lo, hi, table[0][0] + 2,
                                    table[0][1]), "window oracle is blind")
    G, s1 = inverse_hessian_loop(spec, np.asarray(orb.x0), dynamics)
    require(abs(s1 - orb.action) <= 1e-9 * s1, "H_2 period is not the action")
    gal = galerkin_table(G, s1, n, m_max, galerkin)
    require(gal == shifted(table, n), f"Galerkin {gal} vs engine {table}")
    print("oracle self-test passed on the n=1 ellipsoid")


if __name__ == "__main__":
    import pathlib
    import sys
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    self_test()
