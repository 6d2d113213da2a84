"""Floquet stability classes, index iteration rules, and surface reports.

Two index conventions appear side by side.  The crossing engine works in the
path convention (paths start at the identity); subtracting n gives the orbit
convention used in the multiplicity and stability statements.  All checks on
a surface report record which convention they use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (SurfaceSpec, enclosing_radii, find_orbits,
                       monodromy_path)
from .galerkin import stabilized_index
from .index import iterates_and_mean
from .spectral import SpectralSummary, classify_spectrum
from .sympl import _positive_int, diamond_all

PINCH_RATIO = 1.5   # gate: R^2 < (3/2) r^2 for the sharpened multiplicity bounds
# roots of unity in the discrete mean index of every orbit; its error
# bound is 4n / _MEAN_K
_MEAN_K = 256


def nonhyperbolic_bound(n: int) -> int:
    """Guaranteed number of geometrically distinct non-hyperbolic orbits:
    the n action slots less the admissible hyperbolic positions, n -
    floor(3(n-1)/4) + ceil((n-1)/4) - 1, which telescopes to this."""
    return 2 * ((n + 2) // 4)


def hyperbolic_position_range(n: int) -> tuple[int, int]:
    """Closed range of sorted positions (0-based) a hyperbolic orbit may occupy."""
    return math.ceil((n - 1) / 4), math.floor(3 * (n - 1) / 4)


def action_index_bounds(action: float, n: int, r: float, R: float,
                        ) -> tuple[int, int]:
    """(lower bound on i, upper bound on i + nu) in the orbit convention.

    On an (r, R)-pinched surface the index reaches 2nk as soon as the
    action exceeds k pi R^2, and i + nu stays at or below 2n(k-1) - 1
    whenever the action is still under k pi r^2.
    """
    k_lo = math.ceil(action / (math.pi * R * R)) - 1
    k_hi = math.floor(action / (math.pi * r * r)) + 1
    return 2 * n * max(k_lo, 0), 2 * n * (k_hi - 1) - 1


@dataclass(frozen=True)
class FloquetClass:
    """Stability type read off a spectral summary of the monodromy."""

    label: str
    strictly_elliptic: bool
    hyperbolic: bool
    nonhyperbolic: bool
    elliptic_height: int      # total algebraic multiplicity on the unit circle
    one_cluster_alg: int


def floquet_classify(summary: SpectralSummary) -> FloquetClass:
    height = summary.elliptic_height
    one = summary.cluster_at(1.0)
    one_alg = one.alg if one is not None else 0
    minus = summary.cluster_at(-1.0)

    strictly = (
        len(summary.off_circle) == 0
        and one_alg == 2
        and minus is None
        and all(c.n2_nontrivial == 0 and c.n2_trivial == 0
                and (c.krein[0] == 0 or c.krein[1] == 0)
                for c in summary.clusters if not c.is_real)
    )
    hyperbolic = (height == one_alg == 2)
    nonhyp = height > 2
    if strictly:
        label = "strictly elliptic"
    elif hyperbolic:
        label = "hyperbolic"
    elif len(summary.off_circle) == 0:
        label = "elliptic"
    else:
        label = "mixed"
    return FloquetClass(label=label, strictly_elliptic=strictly,
                        hyperbolic=hyperbolic, nonhyperbolic=nonhyp,
                        elliptic_height=height, one_cluster_alg=one_alg)


def iteration_case(i1: int, nu1: int, i2: int, nu2: int, n: int) -> str | None:
    """Second-iterate dichotomy in the path convention.

    Case "i": i2 - 2 i1 = n; case "ii": i2 + nu2 - 2(i1 + nu1) = 1 - n.
    Both can hold; a label is returned when at least one does.
    """
    first = i2 - 2 * i1 == n
    second = i2 + nu2 - 2 * (i1 + nu1) == 1 - n
    if first and second:
        return "i+ii"
    if first:
        return "i"
    if second:
        return "ii"
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    required: bool
    detail: str = ""

    @property
    def blocking(self) -> bool:
        return self.required and not self.passed


@dataclass(frozen=True)
class OrbitReport:
    plane: int | None
    action: float
    period: float
    indices_path: tuple[tuple[int, int], ...]   # (i, nu) for m = 1..m_max
    index_orbit: int
    nullity: int
    mean_index: float
    mean_index_bound: float
    floquet: FloquetClass
    iteration_case_label: str | None
    multipliers: tuple[complex, ...]
    galerkin: tuple[int, int, int] | None = None   # dual-form (i, nu, K)

    def to_dict(self) -> dict:
        doc = {
            "plane": self.plane,
            "action": self.action,
            "period": self.period,
            "indices_path": [list(p) for p in self.indices_path],
            "index_orbit": self.index_orbit,
            "nullity": self.nullity,
            "mean_index": self.mean_index,
            "mean_index_bound": self.mean_index_bound,
            "floquet": self.floquet.label,
            "strictly_elliptic": self.floquet.strictly_elliptic,
            "hyperbolic": self.floquet.hyperbolic,
            "iteration_case": self.iteration_case_label,
            "multipliers": [[z.real, z.imag] for z in self.multipliers],
        }
        if self.galerkin is not None:
            gi, gn, K = self.galerkin
            doc["galerkin"] = {"index": gi, "nullity": gn, "modes": K}
        return doc


@dataclass(frozen=True)
class StabilityReport:
    spec: SurfaceSpec
    alpha: float
    n: int
    inner_radius: float
    outer_radius: float
    pinch_ratio: float
    gate_passed: bool
    theorems_apply: bool
    orbits: tuple[OrbitReport, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return not any(c.blocking for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "radii": list(self.spec.radii),
            "quartic": list(self.spec.quartic),
            "delta": self.spec.delta,
            "alpha": self.alpha,
            "n": self.n,
            "inner_radius": self.inner_radius,
            "outer_radius": self.outer_radius,
            "pinch_ratio": self.pinch_ratio,
            "gate_passed": self.gate_passed,
            "theorems_apply": self.theorems_apply,
            "orbits": [o.to_dict() for o in self.orbits],
            "checks": [{"name": c.name, "passed": c.passed,
                        "required": c.required, "detail": c.detail}
                       for c in self.checks],
            "passed": self.passed,
        }


def verify_surface(spec: SurfaceSpec, alpha: float = 1.5, m_max: int = 2,
                   ) -> StabilityReport:
    """Compute all closed plane characteristics and check the stability laws.

    The multiplicity and ellipticity bounds are enforced when the pinching
    gate R^2 < 1.5 r^2 holds and n >= 2; otherwise they are reported as
    informational.  A failed required check marks the report as failed but
    never raises.

    The spectrum of each monodromy is read once (`SymplecticPath.spectrum`)
    for the arcs of the index counts, the Floquet class and the
    multipliers, which keep LAPACK's order.
    The mean index of each orbit is the discrete average over the
    _MEAN_K-th roots of unity.  An m_max that is no integer >= 1 raises
    DimensionError before the orbit search, and so does an alpha outside
    (1, 2), from the search itself.

    On an exact ellipsoid the inverse Hessian G of the dual action form is
    constant, so each orbit also gets the Galerkin Morse counts of that form,
    and the required last check `dual-form-agreement` compares them with
    the crossing engine.
    """
    m_max = _positive_int(m_max, "iterate table needs an integer m_max")
    n = spec.n
    lo, hi = enclosing_radii(spec)
    ratio = (hi / lo) ** 2
    gate = ratio < PINCH_RATIO
    enforced = gate and n >= 2
    G = (diamond_all([np.eye(2) * (r * r / 2.0) for r in spec.radii])
         if spec.is_ellipsoid() else None)

    orbit_reports: list[OrbitReport] = []
    for orb in find_orbits(spec, alpha):
        path = monodromy_path(spec, alpha, orb)
        results, (mi, mb) = iterates_and_mean(path, m_max, _MEAN_K)
        fc = floquet_classify(classify_spectrum(path.spectrum))
        case = None
        if m_max >= 2:
            (i1, nu1), (i2, nu2) = results[0].as_tuple(), results[1].as_tuple()
            case = iteration_case(i1, nu1, i2, nu2, n)
        orbit_reports.append(OrbitReport(
            plane=orb.plane,
            action=orb.action,
            period=orb.period,
            indices_path=tuple(r.as_tuple() for r in results),
            index_orbit=results[0].index - n,
            nullity=results[0].nullity,
            mean_index=mi,
            mean_index_bound=mb,
            floquet=fc,
            iteration_case_label=case,
            multipliers=tuple(path.spectrum.eigvals),
            galerkin=(None if G is None
                      else stabilized_index(G, orb.action, n)),
        ))
    orbit_reports.sort(key=lambda o: o.action)

    checks: list[CheckResult] = []

    def add(name, passed, required, detail=""):
        checks.append(CheckResult(name=name, passed=bool(passed),
                                  required=bool(required), detail=detail))

    add("pinch-gate", gate, False,
        f"R^2/r^2 = {ratio:.6f} vs {PINCH_RATIO}")

    window_lo, window_hi = math.pi * lo * lo, math.pi * hi * hi
    in_window = all(window_lo - 1e-9 <= o.action <= window_hi + 1e-9
                    for o in orbit_reports)
    add("action-window", in_window, enforced,
        f"actions in [{window_lo:.6f}, {window_hi:.6f}]")

    inter = all(o.index_orbit <= 2 * i <= o.index_orbit + o.nullity - 1
                for i, o in enumerate(orbit_reports))
    add("index-interlacing", inter, enforced,
        "orbit-convention i(u_k) <= 2(k-1) <= i(u_k) + nu - 1 along actions")

    if m_max >= 2:
        sec = all(2 * n <= o.indices_path[1][0] - n <= 4 * n - 1
                  for o in orbit_reports)
        add("second-iterate-window", sec, enforced,
            "orbit-convention i(y^2) within [2n, 4n-1]")

    ab_ok = True
    for o in orbit_reports:
        for m, (i_m, nu_m) in enumerate(o.indices_path, start=1):
            blo, bhi = action_index_bounds(m * o.action, n, lo, hi)
            if not (i_m - n >= blo and i_m - n + nu_m <= bhi):
                ab_ok = False
    add("action-index-bounds", ab_ok, enforced,
        "i >= 2nk above k pi R^2 and i + nu <= 2n(k-1) - 1 below k pi r^2")

    above = all(o.mean_index - o.mean_index_bound >= 2.0 - 1e-6
                for o in orbit_reports)
    add("mean-index-above-two", above, enforced,
        f"mean indices {[round(o.mean_index, 4) for o in orbit_reports]}")

    n_se = sum(o.floquet.strictly_elliptic for o in orbit_reports)
    add("strictly-elliptic-count", n_se >= 2, enforced,
        f"{n_se} strictly elliptic orbit(s)")

    n_nh = sum(not o.floquet.hyperbolic for o in orbit_reports)
    add("nonhyperbolic-count", n_nh >= nonhyperbolic_bound(n), enforced,
        f"{n_nh} non-hyperbolic vs bound {nonhyperbolic_bound(n)}")

    p_lo, p_hi = hyperbolic_position_range(n)
    hyp_ok = all(p_lo <= i <= p_hi
                 for i, o in enumerate(orbit_reports) if o.floquet.hyperbolic)
    add("hyperbolic-positions", hyp_ok, enforced,
        f"admissible sorted positions [{p_lo}, {p_hi}]")

    if G is not None:
        agree = all(o.galerkin[:2] == (o.indices_path[0][0] - n,
                                       o.indices_path[0][1] + 1)
                    for o in orbit_reports)
        add("dual-form-agreement", agree, True,
            "Galerkin Morse counts match the crossing engine on every orbit")

    return StabilityReport(
        spec=spec, alpha=alpha, n=n,
        inner_radius=lo, outer_radius=hi, pinch_ratio=ratio,
        gate_passed=gate, theorems_apply=enforced,
        orbits=tuple(orbit_reports), checks=tuple(checks),
    )
