"""The three workloads: inputs built from a seed, one pass of operations,
and the check of every output.

A workload is a list of operations.  Each operation calls the program
(timed) and then checks what came back (untimed).  A pass runs the whole
list once; every pass of a run is the same list, so the share of failed
operations does not depend on how many passes fit in a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from oracles import require

ALPHA = 1.5
# pinched perturbed ellipsoids (R^2/r^2 ~ 1.323 and ~ 1.315) and the
# perturbed n=1 surface, as in the test suite's fixtures
SURFACE_N1 = dict(radii=(0.9,), quartic=(0.25,), delta=0.1)
SURFACE_N2 = dict(radii=(1.0, 1.1), quartic=(0.3, -0.2), delta=0.15)
SURFACE_N3 = dict(radii=(1.0, 1.08, 1.15), quartic=(0.2, -0.1, 0.15), delta=0.1)
WARMUP_ELLIPSOID = (0.9,)
DUAL_FORM_M = 6


@dataclass
class Op:
    """One user-facing operation: `run` is timed, `check` is not.  The
    latency median (op_p50_ref_ms) is taken over the primary operations."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    primary: bool = True


class Workload:
    """Inputs are built by `setup` (timed), checked by `check_setup`, and
    consumed by the operations that `ops` returns.  `g_wrap`, if given,
    decorates the G(t) callables of the Galerkin route (the traced run
    times each sample with it)."""

    name = ""

    def __init__(self, sx, seed: int, workdir, g_wrap=None):
        self.sx = sx
        self.seed = seed
        self.workdir = workdir
        self.g_wrap = g_wrap

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError


def _surface_doc(radii, quartic=(), delta=0.0) -> dict:
    doc = {"kind": "ellipsoid", "n": len(radii), "radii": list(radii),
           "alpha": ALPHA}
    if delta:
        doc["kind"] = "perturbed-ellipsoid"
        doc["perturbation"] = {"delta": delta, "quartic_coeffs": list(quartic)}
    return doc


# ---------------------------------------------------------------------------
# verify-pinched
# ---------------------------------------------------------------------------

class VerifyPinched(Workload):
    """`symstab verify` in process on the pinched perturbed n=2 surface,
    after a warm-up report on the n=1 ellipsoid."""

    name = "verify-pinched"
    _galerkin = None

    def _verify(self, fname: str) -> tuple[int, dict | None]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.sx.cli.main(["verify", fname, "--seed", str(self.seed)])
        text = buf.getvalue()
        return rc, (json.loads(text) if text else None)

    def setup(self) -> None:
        self.files = {}
        for key, (radii, quartic, delta) in {
                "warmup": (WARMUP_ELLIPSOID, (), 0.0),
                "pinched": (SURFACE_N2["radii"], SURFACE_N2["quartic"],
                            SURFACE_N2["delta"])}.items():
            path = self.workdir / f"surface-{key}.json"
            path.write_text(json.dumps(_surface_doc(radii, quartic, delta)))
            self.files[key] = str(path)
        self.warmup = self._verify(self.files["warmup"])

    def check_setup(self) -> None:
        rc, doc = self.warmup
        require(rc == 0 and doc is not None, f"warm-up verify exit {rc}")
        require(doc["seed"] == self.seed, "seed not recorded in the report")
        radii = WARMUP_ELLIPSOID
        n = len(radii)
        for od in doc["orbits"]:
            j = od["plane"]
            table = [tuple(p) for p in od["indices_path"]]
            want = [oracles.ellipsoid_index_path(radii, j, m)
                    for m in range(1, len(table) + 1)]
            require(table == want, f"ellipsoid indices {table} != {want}")
            exact = oracles.ellipsoid_mean_index(radii, j)
            require(od["mean_index_bound"] == 4 * n / 256
                    and abs(od["mean_index"] - exact) <= od["mean_index_bound"],
                    f"ellipsoid mean index {od['mean_index']} vs {exact}")
            mults = [complex(re, im) for re, im in od["multipliers"]]
            require(oracles.same_multiset(
                mults, oracles.ellipsoid_multipliers(radii, j), 1e-6),
                f"ellipsoid multipliers {mults}")
            act = oracles.circle_action(radii, (), 0.0, j)
            require(abs(od["action"] - act) <= 1e-9 * act,
                    f"ellipsoid action {od['action']} vs {act}")
            gal = od["galerkin"]
            require((gal["index"], gal["nullity"])
                    == oracles.shifted(table, n)[0], "CLI Galerkin route")

    def _galerkin_tables(self, m_max: int) -> dict:
        """Second index route for each orbit of the pinched surface."""
        if self._galerkin is None:
            dyn, n = self.sx.dynamics, len(SURFACE_N2["radii"])
            spec = dyn.SurfaceSpec(**SURFACE_N2)
            self._galerkin = {}
            for l in range(n):
                x0 = np.zeros(2 * n)
                x0[l] = math.sqrt(oracles.plane_circle_rho2(
                    SURFACE_N2["radii"], SURFACE_N2["quartic"],
                    SURFACE_N2["delta"], l))
                G, s1 = oracles.inverse_hessian_loop(spec, x0, dyn)
                self._galerkin[l] = oracles.galerkin_table(
                    G, s1, n, m_max, self.sx.galerkin)
        return self._galerkin

    def _check_pinched(self, out) -> None:
        rc, doc = out
        require(rc == 0 and doc is not None and doc["passed"],
                f"verify on the pinched surface: exit {rc}")
        failed = [c["name"] for c in doc["checks"]
                  if c["required"] and not c["passed"]]
        require(not failed, f"required checks failed: {failed}")
        require(doc["gate_passed"] and doc["theorems_apply"],
                "pinching gate not applied")
        s = SURFACE_N2
        n = len(s["radii"])
        r, R = oracles.enclosing_radii(s["radii"], s["quartic"], s["delta"])
        require(abs(doc["pinch_ratio"] - (R / r) ** 2) <= 1e-3,
                f"pinch ratio {doc['pinch_ratio']} vs {(R / r) ** 2}")
        orbs = doc["orbits"]
        require(sorted(o["plane"] for o in orbs) == list(range(n)),
                "one orbit per plane")
        require(sum(o["strictly_elliptic"] for o in orbs) >= 2,
                "two strictly elliptic orbits")
        gal = self._galerkin_tables(len(orbs[0]["indices_path"]))
        for od in orbs:
            j = od["plane"]
            act = oracles.circle_action(s["radii"], s["quartic"], s["delta"], j)
            require(abs(od["action"] - act) <= 1e-9 * act,
                    f"action {od['action']} vs pi rho^2 = {act}")
            table = [tuple(p) for p in od["indices_path"]]
            require(gal[j] == oracles.shifted(table, n),
                    f"plane {j}: Galerkin {gal[j]} vs engine {table}")
            require(od["mean_index_bound"] == 4 * n / 256, "mean-index bound")
            for m, (i_m, nu_m) in enumerate(table, start=1):
                require(oracles.long_iteration_ok(
                    od["mean_index"], od["mean_index_bound"], n, m, i_m, nu_m),
                    f"Long's inequality, plane {j}, m={m}")

    def ops(self) -> list[Op]:
        return [Op("verify pinched n=2",
                   lambda: self._verify(self.files["pinched"]),
                   self._check_pinched)]


# ---------------------------------------------------------------------------
# index-degenerate
# ---------------------------------------------------------------------------

def _unit_angles(M) -> list[float]:
    return [abs(float(np.angle(lam))) for lam in np.linalg.eigvals(M)
            if abs(abs(lam) - 1.0) < 1e-9]


def _two_shears(blocks) -> bool:
    """More than one 2x2 block N1(+-1, b), b = 0 included.  index_nu raises
    TangencyError at +-1 on such products: always for two shears
    N1(-1, b != 0), and for some conjugations of N1(1, b) with N1(-1, 0)
    (see CHANGES.md).  Seeded inputs leave them out."""
    return sum(B.shape == (2, 2) and abs(B[0, 0]) == 1.0
               and B[1, 1] == B[0, 0] and B[1, 0] == 0.0
               for B in blocks) > 1


class IndexDegenerate(Workload):
    """Splitting numbers at unit eigenvalues of normal forms, two ways, and
    second-iterate identities i(g^2) = i_1 + i_-1 on seeded paths.

    The seed draws the conjugating matrices, the extra factors and the
    path pool; the make-up (which base form, how many paths of each kind
    and dimension) is fixed, so passes on different seeds do comparable
    work.
    """

    name = "index-degenerate"
    EXTRA_EVERY = 3            # every third conjugated form gets an extra factor
    EXP_PATHS = (1,) * 20 + (2,) * 8
    NORMAL_FORM_PATHS = (1,) * 7 + (2,) * 5

    def _random_block(self, rng, kinds=4):
        s = self.sx.sympl
        kind = rng.integers(0, kinds)
        if kind == 0:
            return s.D_block(float(rng.choice([2.0, -2.0, 1.7, -0.4])))
        if kind == 1:
            return s.N1_block(float(rng.choice([1.0, -1.0])),
                              float(rng.choice([-1.0, 0.0, 1.0])))
        theta = float(rng.uniform(0.3, 2 * np.pi - 0.3))
        if kind == 2:
            return s.R_block(theta)
        return s.N2_block(theta, trivial=bool(rng.integers(0, 2)))

    def _conjugate(self, M, rng):
        s = self.sx.sympl
        g = s.random_symplectic(M.shape[0] // 2, rng)
        return s.resymplectify(g @ M @ np.linalg.inv(g))

    def setup(self) -> None:
        s = self.sx.sympl
        D, N1, R, N2 = s.D_block, s.N1_block, s.R_block, s.N2_block
        forms = [D(2.0), D(-2.0),
                 N1(1.0, 1.0), N1(1.0, -1.0), N1(1.0, 0.0),
                 N1(-1.0, 1.0), N1(-1.0, -1.0), N1(-1.0, 0.0),
                 R(2.0), R(4.0), N2(2.0, trivial=True), N2(2.0, trivial=False)]
        products = [s.diamond_all(b) for b in (
            [D(2.0), N1(1.0, 1.0)], [R(2.0), R(4.0)], [N1(-1.0, 1.0), R(2.0)],
            [D(-2.0), R(4.0)], [N2(2.0, trivial=True), D(2.0)])]
        generic = complex(np.exp(0.777j))
        cases = []
        # every unit-eigenvalue cluster of each block and product, plus a
        # generic point: 43 fixed pairs
        for M in forms + products:
            omegas = {generic}
            for lam in np.linalg.eigvals(M):
                if abs(abs(lam) - 1.0) < 1e-9:
                    omegas.add(complex(np.exp(1j * round(np.angle(lam), 12))))
            cases.extend((M, w) for w in sorted(omegas, key=np.angle))
        # one conjugate of each block form, every third with an extra factor
        rng = np.random.default_rng([self.seed, 1])
        for k, base in enumerate(forms):
            parts = [base]
            if k % self.EXTRA_EVERY == 0:
                angles = _unit_angles(base)
                extra = self._random_block(rng)
                # an extra factor shares a cluster exactly or keeps clear of
                # it, so the one-sided probes see a constant index
                while _two_shears([base, extra]) or (
                        angles and not all(
                            any(abs(a - b) < 1e-9 for b in angles)
                            or all(abs(a - b) > 0.25 for b in angles)
                            for a in _unit_angles(extra))):
                    extra = self._random_block(rng)
                parts.append(extra)
            lams = [lam for lam in np.linalg.eigvals(base)
                    if abs(abs(lam) - 1.0) < 1e-9]
            w = complex(np.exp(1j * np.angle(lams[0]))) if lams else generic
            cases.append((self._conjugate(s.diamond_all(parts), rng), w))
        self.splitting_cases = cases
        # the one known failure, the same on every seed
        self.failing_case = (s.diamond_all([N1(-1.0, 1.0), N1(-1.0, -1.0)]),
                             -1.0 + 0j)

        p = self.sx.paths
        rng = np.random.default_rng([self.seed, 2])
        pool = []
        for n in self.EXP_PATHS:
            A = rng.standard_normal((2 * n, 2 * n))
            S = 0.5 * (A + A.T)
            pool.append(p.exp_path(S * (2.2 / max(1.0, np.linalg.norm(S, 2)))))
        for n in self.NORMAL_FORM_PATHS:
            blocks = [self._random_block(rng, kinds=3) for _ in range(n)]
            while _two_shears(blocks):
                blocks = [self._random_block(rng, kinds=3) for _ in range(n)]
            if n == 2 and rng.integers(0, 4) == 0:
                blocks = [s.N2_block(float(rng.uniform(0.3, 2 * np.pi - 0.3)),
                                     trivial=bool(rng.integers(0, 2)))]
            pool.append(p.normal_form_path(
                self._conjugate(s.diamond_all(blocks), rng)))
        self.bott_pool = pool

    def check_setup(self) -> None:
        require(len(self.splitting_cases) == 43 + 12,
                f"{len(self.splitting_cases)} splitting cases")

    def _splitting(self, M, w):
        sp = self.sx.spectral
        table = sp.splitting_table(sp.spectral_summary(M), w).as_tuple()
        num = self.sx.index.splitting_numbers_numeric(
            self.sx.paths.normal_form_path(M), w).as_tuple()
        return table, num

    def _bott(self, path):
        ix = self.sx.index
        r1, rm = ix.index_nu(path, 1.0), ix.index_nu(path, -1.0)
        r2 = ix.index_nu(self.sx.paths.iterate_path(path, 2), 1.0)
        return r1.as_tuple(), rm.as_tuple(), r2.as_tuple()

    @staticmethod
    def _check_splitting(out) -> None:
        table, num = out
        require(table == num, f"block table {table} != one-sided limits {num}")

    @staticmethod
    def _check_bott(out) -> None:
        (i1, n1), (im, nm), (i2, n2) = out
        require(i2 == i1 + im and n2 == n1 + nm,
                f"i(g^2) = ({i2}, {n2}) but i_1 + i_-1 = ({i1 + im}, {n1 + nm})")

    def ops(self) -> list[Op]:
        """The latency median is taken over the 43 fixed pairs: they are
        the same on every seed, so the median does not jump between seeds
        as the seeded pairs move it."""
        out = [Op(f"splitting {k}", (lambda M=M, w=w: self._splitting(M, w)),
                  self._check_splitting, primary=k < 43)
               for k, (M, w) in enumerate(self.splitting_cases)]
        out.append(Op("splitting double shear at -1",
                      lambda: self._splitting(*self.failing_case),
                      self._check_splitting))
        out += [Op(f"second iterate {k}", (lambda q=q: self._bott(q)),
                   self._check_bott, primary=False)
                for k, q in enumerate(self.bott_pool)]
        return out


# ---------------------------------------------------------------------------
# dual-form-integrated
# ---------------------------------------------------------------------------

class DualFormIntegrated(Workload):
    """Two-route index tables, m = 1..6, for every plane circle of the
    integrated n=1, n=2 and n=3 surfaces: crossing engine on the monodromy
    path, and Morse counts of the dual form with G(t) = (Hess j^2)^{-1}."""

    name = "dual-form-integrated"
    SURFACES = (SURFACE_N1, SURFACE_N2, SURFACE_N3)

    def setup(self) -> None:
        dyn = self.sx.dynamics
        self.specs = [dyn.SurfaceSpec(**s) for s in self.SURFACES]

    def check_setup(self) -> None:
        require(all(not s.is_ellipsoid() for s in self.specs),
                "dual-form surfaces must be integrated, not closed-form")

    def _orbits(self, spec):
        dyn = self.sx.dynamics
        orbits = dyn.find_orbits(spec, ALPHA)
        self.found[spec.n] = {orb.plane: orb for orb in orbits}
        return dyn.enclosing_radii(spec), [(o.plane, o.action) for o in orbits]

    def _tables(self, spec, plane: int):
        dyn, ix = self.sx.dynamics, self.sx.index
        orb = self.found[spec.n][plane]
        path = dyn.monodromy_path(spec, ALPHA, orb)
        engine = [r.as_tuple() for r in ix.iterate_indices(path, DUAL_FORM_M)]
        G, s1 = oracles.inverse_hessian_loop(spec, np.asarray(orb.x0), dyn,
                                             wrap=self.g_wrap)
        dual = oracles.galerkin_table(G, s1, spec.n, DUAL_FORM_M,
                                      self.sx.galerkin)
        return orb.action, engine, dual

    @staticmethod
    def _check_orbits(s: dict):
        n = len(s["radii"])
        r, R = oracles.enclosing_radii(s["radii"], s["quartic"], s["delta"])

        def check(out) -> None:
            (lo, hi), planes = out
            require(abs(lo - r) <= 1e-3 * r and abs(hi - R) <= 1e-3 * R,
                    f"enclosing radii ({lo}, {hi}) vs ({r}, {R})")
            require(sorted(p for p, _a in planes) == list(range(n)),
                    "one orbit per plane")
            for plane, action in planes:
                act = oracles.circle_action(s["radii"], s["quartic"],
                                            s["delta"], plane)
                require(abs(action - act) <= 1e-9 * act,
                        f"action {action} vs {act}")
        return check

    @staticmethod
    def _check_tables(s: dict, plane: int):
        n = len(s["radii"])
        rho = oracles.curvature_radii(s["radii"], s["quartic"], s["delta"],
                                      plane)

        def check(out) -> None:
            action, engine, dual = out
            require(dual == oracles.shifted(engine, n),
                    f"n={n} plane {plane}: engine {engine} vs dual {dual}")
            for m, (i_m, nu_m) in enumerate(engine, start=1):
                require(oracles.curvature_window_ok(m * action, n, *rho,
                                                    i_m, nu_m),
                        f"n={n} plane {plane}: action window at m={m}")
        return check

    def ops(self) -> list[Op]:
        """Per surface: orbit search and enclosing radii, then one op with
        both routes per orbit (the primary ops)."""
        self.found = {}
        out = []
        for spec, s in zip(self.specs, self.SURFACES):
            out.append(Op(f"orbits n={spec.n}",
                          (lambda spec=spec: self._orbits(spec)),
                          self._check_orbits(s), primary=False))
            out += [Op(f"two-route tables n={spec.n} plane {l}",
                       (lambda spec=spec, l=l: self._tables(spec, l)),
                       self._check_tables(s, l))
                    for l in range(spec.n)]
        return out


WORKLOADS = {w.name: w for w in (VerifyPinched, IndexDegenerate,
                                 DualFormIntegrated)}
