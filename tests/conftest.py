"""Shared fixtures and deterministic randomized pools for the test suite.

The ellipsoid corpus (n = 1, 2, 3) and its index tables are session scoped
because monodromy paths and crossing counts are reused by several modules.
Oracle formulas for plane-circle orbits live here as plain functions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from symstab import (
    SurfaceSpec,
    diamond_all,
    exp_path,
    find_orbits,
    integrate_flow,
    iterate_indices,
    monodromy_path,
    normal_form_path,
    verify_surface,
)
from symstab.paths import path_from_samples
from symstab.sympl import (D_block, N1_block, N2_block, R_block,
                           random_symplectic, resymplectify)

ALPHA = 1.5
ELLIPSOID_RADII = ((0.9,), (1.0, 1.1), (1.0, 1.1, 1.25))
PERTURBED = dict(radii=(1.0, 1.1), quartic=(0.3, -0.2), delta=0.15)
PERTURBED_N1 = dict(radii=(0.9,), quartic=(0.25,), delta=0.1)
# just above the pinching bound: R^2/r^2 = 1.500101, with the minimum
# radius inside the face a_1 = 0 of the simplex of plane radii
SURFACE_X = dict(radii=(1.0659, 1.229663, 1.0606),
                 quartic=(-0.0372, -0.2928, -0.0775), delta=0.15)


# ---------------------------------------------------------------------------
# closed-form oracles for plane circles on an ellipsoid
# ---------------------------------------------------------------------------

def exact_orbit_index(radii, j: int, m: int) -> int:
    """Orbit-convention index of the m-th iterate of the j-th plane circle."""
    rr = [r * r for r in radii]
    tot = m - 1
    for l, q in enumerate(rr):
        if l != j:
            x = m * rr[j] / q
            tot += math.ceil(x) - 1        # number of k >= 1 with k < x
    return 2 * tot


def exact_mean_index(radii, j: int) -> float:
    rr = [r * r for r in radii]
    return 2.0 * sum(rr[j] / q for q in rr)


# ---------------------------------------------------------------------------
# corpus fixtures
# ---------------------------------------------------------------------------

class CorpusEntry:
    def __init__(self, spec: SurfaceSpec, alpha: float):
        self.spec = spec
        self.alpha = alpha
        self.orbits = find_orbits(spec, alpha)
        self.paths = [monodromy_path(spec, alpha, o) for o in self.orbits]


@pytest.fixture(scope="session")
def corpus():
    return [CorpusEntry(SurfaceSpec(r), ALPHA) for r in ELLIPSOID_RADII]


@pytest.fixture(scope="session")
def corpus_tables(corpus):
    """Path-convention (i, nu) for m = 1..5, one list per corpus orbit."""
    return [[iterate_indices(p, 5) for p in entry.paths] for entry in corpus]


@pytest.fixture(scope="session")
def e11_report():
    """Full verification report for the 1:1.1 ellipsoid, m_max = 2."""
    return verify_surface(SurfaceSpec((1.0, 1.1)), alpha=ALPHA, m_max=2)


@pytest.fixture(scope="session")
def perturbed_spec():
    return SurfaceSpec(**PERTURBED)


@pytest.fixture(scope="session")
def perturbed_entries():
    """Closed-form monodromy entries for the two perturbed surfaces."""
    return [CorpusEntry(SurfaceSpec(**PERTURBED_N1), ALPHA),
            CorpusEntry(SurfaceSpec(**PERTURBED), ALPHA)]


# ---------------------------------------------------------------------------
# deterministic randomized pools (shared with the development probe)
# ---------------------------------------------------------------------------

def _random_block(rng: np.random.Generator) -> np.ndarray:
    kind = rng.integers(0, 4)
    if kind == 0:
        return D_block(float(rng.choice([2.0, -2.0, 1.7, -0.4])))
    if kind == 1:
        return N1_block(float(rng.choice([1.0, -1.0])),
                        float(rng.choice([-1.0, 0.0, 1.0])))
    theta = float(rng.uniform(0.3, 2 * np.pi - 0.3))
    if kind == 2:
        return R_block(theta)
    return N2_block(theta, trivial=bool(rng.integers(0, 2)))


def _random_normal_form(rng: np.random.Generator, n: int) -> np.ndarray:
    blocks: list[np.ndarray] = []
    planes = 0
    while planes < n:
        B = _random_block(rng)
        if planes + B.shape[0] // 2 > n:
            continue
        blocks.append(B)
        planes += B.shape[0] // 2
    M = diamond_all(blocks)
    g = random_symplectic(n, rng)
    return resymplectify(g @ M @ np.linalg.inv(g))


def sampled_monodromy_path(spec, alpha, orbit, steps=600):
    """The linearized flow integrated by DOP853 and splined through
    steps + 1 samples, as a `samples:` file would give it."""
    d = 2 * spec.n
    res = integrate_flow(spec, alpha, np.asarray(orbit.x0), orbit.period,
                         dense=True)
    ts = np.linspace(0.0, orbit.period, steps + 1)
    Ws = res.sol.sol(ts)[d:].T.reshape(-1, d, d)
    Ws[0] = np.eye(d)
    Ws[-1] = res.W  # resymplectified endpoint
    return path_from_samples(ts, Ws, label="sampled monodromy")


def orbit_path_pool():
    """Nine monodromy paths: the closed-form paths of the three ellipsoid
    and three perturbed plane circles, then the three perturbed ones again
    as splines through integrated samples."""
    ellipsoids = [SurfaceSpec(r) for r in ((0.9,), (1.0, 1.1))]
    perturbed = [SurfaceSpec(**kw) for kw in (PERTURBED_N1, PERTURBED)]
    out, sampled = [], []
    for spec in ellipsoids + perturbed:
        for o in find_orbits(spec, ALPHA):
            out.append(monodromy_path(spec, ALPHA, o))
            if spec in perturbed:
                sampled.append(sampled_monodromy_path(spec, ALPHA, o))
    return out + sampled


def bott_path_pool():
    """Deterministic paths for two-iterate identity checks: 194 random
    ones, then `orbit_path_pool()`."""
    return random_path_pool() + orbit_path_pool()


def random_path_pool():
    """The 194 random paths of `bott_path_pool()`: 140 exponentials of
    symmetric generators, then 54 normal-form paths."""
    rng = np.random.default_rng(42)
    paths = []
    for n in (1,) * 100 + (2,) * 40:
        A = rng.standard_normal((2 * n, 2 * n))
        S = 0.5 * (A + A.T)
        S *= 2.2 / max(1.0, np.linalg.norm(S, 2))
        paths.append(exp_path(S))
    for n in (1,) * 34 + (2,) * 20:
        paths.append(normal_form_path(_random_normal_form(rng, n)))
    return paths


def splitting_cases():
    """(matrix, omega) pairs: basic forms, diamond products, conjugations."""
    generic = np.exp(0.777j)
    forms = [
        D_block(2.0), D_block(-2.0),
        N1_block(1.0, 1.0), N1_block(1.0, -1.0), N1_block(1.0, 0.0),
        N1_block(-1.0, 1.0), N1_block(-1.0, -1.0), N1_block(-1.0, 0.0),
        R_block(2.0), R_block(4.0),
        N2_block(2.0, trivial=True), N2_block(2.0, trivial=False),
    ]
    products = [
        diamond_all([D_block(2.0), N1_block(1.0, 1.0)]),
        diamond_all([R_block(2.0), R_block(4.0)]),
        diamond_all([N1_block(-1.0, 1.0), R_block(2.0)]),
        diamond_all([D_block(-2.0), R_block(4.0)]),
        diamond_all([N2_block(2.0, trivial=True), D_block(2.0)]),
    ]
    cases = []
    for M in forms + products:
        omegas = {generic}
        for lam in np.linalg.eigvals(M):
            if abs(abs(lam) - 1.0) < 1e-9:
                omegas.add(complex(np.exp(1j * round(np.angle(lam), 12))))
        cases.extend((M, w) for w in sorted(omegas, key=np.angle))
    def unit_angles(M):
        return [abs(float(np.angle(lam))) for lam in np.linalg.eigvals(M)
                if abs(abs(lam) - 1.0) < 1e-9]

    def clear_of(block, angles):
        # an extra factor may share a cluster exactly but must not sit so
        # close that it breaks the constancy gap the one-sided probes use
        return all(any(abs(a - b) < 1e-9 for b in angles) or
                   all(abs(a - b) > 0.25 for b in angles)
                   for a in unit_angles(block)) if angles else True

    rng = np.random.default_rng(11)
    for _ in range(100):
        base = forms[int(rng.integers(0, len(forms)))]
        if rng.integers(0, 3) == 0:
            angles = unit_angles(base)
            extra = _random_block(rng)
            while not clear_of(extra, angles):
                extra = _random_block(rng)
            base = diamond_all([base, extra])
        n = base.shape[0] // 2
        g = random_symplectic(n, rng)
        M = resymplectify(g @ base @ np.linalg.inv(g))
        lams = [lam for lam in np.linalg.eigvals(base)
                if abs(abs(lam) - 1.0) < 1e-9]
        w = complex(np.exp(1j * np.angle(lams[0]))) if lams else generic
        cases.append((M, w))
    return cases
