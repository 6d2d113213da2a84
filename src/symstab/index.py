"""Index and nullity of symplectic paths at unit-circle parameters.

The pair (i_omega, nu_omega) of a path gamma starting at the identity is
computed by crossing counting:

    i = [half signature of the start form, only at omega = 1]
      + sum over interior crossings of the signature of the crossing form
      + endpoint resolution by a rotational twist.

The crossing form at time t on ker(P(t) - omega) is the restriction of
the symmetric coefficient S(t) = J^{-1} P' P^{-1}.  Both one-sided twists
gamma(t) exp(+-eps t J / tau) are counted; the lower one is the index
(lower semicontinuous convention) and their difference must equal the
endpoint nullity, which is asserted on every call.  Degenerate crossing
forms trigger an eps ladder; persistent degeneracy raises TangencyError.
Points within 1e-4 of omega = 1, other than 1 itself up to 1e-12
rounding, are refused: their crossings sit at the very start of the
path, where the count cannot resolve them.

Crossings are located on a grid of the twisted path.  The grid and the
eigenvalues of the twisted path there depend on the twist sign, eps and
the grid size N, not on omega, so one `index_nu` call or one arc rule
(below) samples each grid once for all the omega it counts; the N grid
of the grid check is a subset of its 2N grid and is read from the 2N
samples.  Every run of
grid cells that holds a sign change of the real function D_omega, or a
local minimum below `trigger` of the eigenvalue distance to omega, is a
bracket; all brackets are cut into 16 cells per level, with one batched
evaluation per level, until they are narrower than 64 refine_rtol tau.
Their midpoints, merged within one radius, are the candidate crossings.
A candidate counts only if P(t) - omega I has a numerical kernel
(smallest singular value below rank_tol relative); the crossing form is
restricted to that kernel.

Mean indices, iterate tables and splitting numbers need i_omega at many
points of the circle U.  By the Bott-type formula i_omega is constant on
each arc of U between unit eigenvalues of the endpoint gamma(tau), nu_omega
vanishes there, and i_conj(omega) = i_omega.  So these are read from one
count per arc of the upper half circle cut at +-1 and at the endpoint
eigenvalue angles, plus direct counts at points close to a cut.  All
counts of one such rule share the grid samples; `iterates_and_mean` reads
an iterate table and a mean index from one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    IndexUnstableError,
    MergedCutError,
    NumericalConsistencyError,
    TangencyError,
)
from .paths import SymplecticPath, twisted_path
from .spectral import SplittingPair, _principal_angle
from .sympl import sympl_dim

__all__ = [
    "IndexOptions",
    "IndexResult",
    "D_omega",
    "index_nu",
    "iterate_indices",
    "iterates_and_mean",
    "mean_index",
    "splitting_numbers_numeric",
]

# omega closer to 1 than _AT_ONE is read as 1 (rounding of angle tokens
# like 2pi); omega closer than _NEAR_ONE otherwise is refused, because its
# crossings fall at the very start of the path
_AT_ONE = 1e-12
_NEAR_ONE = 1e-4
# endpoint eigenvalues within _CIRCLE_TOL of |z| = 1 cut the circle, and
# cuts closer than _CUT_TOL merge; both must exceed the sqrt(residual)
# splitting of the defective trivial pair in integrated monodromies
_CIRCLE_TOL = 1e-3
_CUT_TOL = 1e-3
# the crossing search cuts each bracket into _SPLIT cells per level: few
# enough levels that the batched calls stay cheap, fine enough that nearby
# crossings fall into different cells after a level or two.  For the first
# _ALL_MINIMA levels a bracket follows every sampled distance minimum, so
# clustered crossings separate; after that only its lowest one, so the
# number of brackets stays bounded
_SPLIT = 16
_ALL_MINIMA = 3


@dataclass(frozen=True)
class IndexOptions:
    grid: int = 256
    eps: float = 1e-4
    eps_ladder: int = 7
    rank_tol: float = 1e-6
    accept_tol: float = 1e-6
    trigger: float = 0.05
    refine_rtol: float = 1e-12
    form_tol: float = 1e-7
    check_start: bool = True


@dataclass(frozen=True)
class IndexResult:
    index: int
    nullity: int
    omega: complex
    crossings: tuple
    eps: float

    def as_tuple(self) -> tuple[int, int]:
        return (self.index, self.nullity)


class _Degenerate(Exception):
    pass


class _RetryEps(Exception):
    pass


def _normalize_omega(omega) -> complex:
    w = complex(omega)
    r = abs(w)
    if abs(r - 1.0) > 1e-6:
        raise DimensionError(f"omega must lie on the unit circle, got {omega}")
    return w / r


def D_omega(M: np.ndarray, omega) -> float:
    """(-1)^(n-1) conj(omega)^n det(M - omega I), real for symplectic M."""
    M = np.asarray(M, dtype=float)
    n = sympl_dim(M)
    w = _normalize_omega(omega)
    ev = np.linalg.eigvals(M)
    raw = np.prod(ev - w) * (-1.0) ** (n - 1) * np.conj(w) ** n
    scale = float(np.prod(np.maximum(np.abs(ev - w), 1e-3)))
    if abs(raw.imag) > 1e-5 * max(scale, 1e-12):
        raise NumericalConsistencyError(
            f"D_omega imaginary residual {raw.imag:.2e} at omega={omega}")
    return float(raw.real)


def _kernel_basis(M: np.ndarray, omega: complex, rank_tol: float):
    dim = M.shape[0]
    K = M - omega * np.eye(dim)
    _, s, Vh = np.linalg.svd(K)
    thr = rank_tol * max(1.0, float(s[0]))
    k = int(np.sum(s <= thr))
    if k == 0:
        return 0, None
    return k, Vh.conj().T[:, dim - k:]


def _signature(F: np.ndarray, form_tol: float) -> int:
    F = 0.5 * (F + F.conj().T)
    vals = np.linalg.eigvalsh(F)
    thr = form_tol * max(1.0, float(np.abs(vals).max()))
    if np.any(np.abs(vals) < thr):
        raise _Degenerate(f"crossing form eigenvalues {vals}")
    return int(np.sum(vals > 0) - np.sum(vals < 0))


def _grid(path: SymplecticPath, N: int) -> np.ndarray:
    tau = path.tau
    ts = set(np.linspace(0.0, tau, N + 1))
    geo = tau * np.power(2.0, -np.arange(4, 44, dtype=float))
    ts.update(geo)
    ts.update(tau - geo)
    ts.update(path.seams)
    arr = np.array(sorted(ts))
    return arr[(arr >= 0.0) & (arr <= tau)]


def _brackets(xs, D, dist, trigger: float, all_minima: bool) -> list:
    """Runs of cells of the sample xs that hold a sign change of D or sit
    next to a sampled local minimum of dist below trigger."""
    m = len(xs) - 1
    spans = [(i, i) for i in np.flatnonzero(D[:-1] * D[1:] < 0.0)]
    left = np.r_[True, dist[1:] <= dist[:-1]]
    right = np.r_[dist[:-1] <= dist[1:], True]
    mins = np.flatnonzero((dist < trigger) & left & right)
    if not all_minima and len(mins):
        mins = mins[[np.argmin(dist[mins])]]
    spans += [(max(j - 1, 0), min(j, m - 1)) for j in mins]
    runs: list[list[int]] = []
    for lo, hi in sorted(spans):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
        else:
            runs.append([lo, hi])
    return [(float(xs[lo]), float(xs[hi + 1])) for lo, hi in runs]


class _Samples:
    """Eigenvalues of the twisted grids of one path, shared by every omega.

    The twisted path gamma(t) exp(sign eps t J / tau) and its eigenvalues on
    `_grid(tw, N)` depend on (sign, eps, N) only, so each such grid is
    sampled once however many omega are counted against it.  The points of
    the N grid are all points of the 2N grid (the even half of its
    linspace, the same geometric and seam points), so once the 2N grid is
    sampled, the N grid is read from it.  One instance lives for one
    `index_nu` call or one arc rule; nothing outlives a public call.
    """

    def __init__(self, path: SymplecticPath):
        self.path = path
        self._twisted: dict[tuple, SymplecticPath] = {}
        self._grids: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def twisted(self, sign: int, eps: float) -> SymplecticPath:
        key = (sign, eps)
        if key not in self._twisted:
            self._twisted[key] = twisted_path(self.path, eps, sign)
        return self._twisted[key]

    def grid(self, sign: int, eps: float, N: int):
        """Times of `_grid(tw, N)` and the eigenvalues of tw there."""
        key = (sign, eps, N)
        if key not in self._grids:
            tw = self.twisted(sign, eps)
            ts = _grid(tw, N)
            fine = self._grids.get((sign, eps, 2 * N))
            if fine is not None:
                ev = fine[1][np.searchsorted(fine[0], ts)]
            else:
                ev = np.linalg.eigvals(tw.values(ts))
            self._grids[key] = ts, ev
        return self._grids[key]


def _count_once(samples: _Samples, omega: complex, sign: int, eps: float,
                opts: IndexOptions, N: int):
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
    if dist[-1] < 3.0 * opts.accept_tol:
        raise _RetryEps(f"twisted endpoint still degenerate (eps={eps:.1e})")

    # every bracket is cut into _SPLIT cells per level, and all new points
    # of a level are evaluated in one batched call; a bracket narrower than
    # `width` becomes a candidate crossing at its midpoint
    width = 64.0 * opts.refine_rtol * tau
    live = np.reshape(_brackets(ts, Draw.real, dist, opts.trigger, True),
                      (-1, 2))
    found: list[float] = []
    level = 0
    while True:
        narrow = live[:, 1] - live[:, 0] < width
        found.extend(live[narrow].mean(axis=1))
        live = live[~narrow]
        if not len(live):
            break
        level += 1
        xs = np.linspace(live[:, 0], live[:, 1], _SPLIT + 1, axis=1)
        Dv, dv = measure(np.linalg.eigvals(tw.values(xs.ravel())))
        live = np.reshape(
            [br for x, D, d in zip(xs, Dv.real.reshape(xs.shape),
                                   dv.reshape(xs.shape))
             for br in _brackets(x, D, d, opts.trigger, level <= _ALL_MINIMA)],
            (-1, 2))

    # neighbouring brackets can close in on one crossing from both sides;
    # distinct crossings closer than this radius would be
    # indistinguishable to the form evaluation anyway
    radius = max(200.0 * opts.refine_rtol * tau, 1e-6 * tau)
    crossings: list[float] = []
    for t in sorted(found):
        if 1e-9 * tau <= t <= tau * (1.0 - 1e-13) and not (
                crossings and t - crossings[-1] < radius):
            crossings.append(t)

    # the kernel test is the only acceptance test: near a Krein collision
    # the eigenvalue distance to omega grows like sqrt|t - t_c|, while the
    # smallest singular value of P - omega I grows linearly in t
    total = 0
    counted = []
    seam_atol = 1e-9 * tau
    mats = tw.values(np.array(crossings)) if crossings else ()
    for t, M in zip(crossings, mats):
        k, B = _kernel_basis(M, omega, opts.rank_tol)
        if k == 0:
            continue  # a distance minimum that is no crossing
        near = [s for s in tw.seams if abs(s - t) < seam_atol]
        if near:
            s = near[0]
            f1 = _signature(B.conj().T @ tw.sform(s, -1) @ B, opts.form_tol)
            f2 = _signature(B.conj().T @ tw.sform(s, 1) @ B, opts.form_tol)
            if (f1 + f2) % 2:
                raise NumericalConsistencyError(
                    f"odd corner signature pair ({f1},{f2}) at t={s:.6g}")
            total += (f1 + f2) // 2
        else:
            total += _signature(B.conj().T @ tw.sform(t, 1) @ B, opts.form_tol)
        counted.append(t)

    if abs(omega - 1.0) < _AT_ONE:
        sig0 = _signature(tw.sform(0.0, 1), opts.form_tol)
        if sig0 % 2:
            raise NumericalConsistencyError("odd start-form signature")
        total += sig0 // 2

    return total, tuple(counted)


def _count_total(samples, omega, sign, eps, opts, verify_grid):
    N = max(opts.grid, samples.path.grid_hint)
    if verify_grid:
        samples.grid(sign, eps, 2 * N)  # the count at N reads its grid here
    t1, c1 = _count_once(samples, omega, sign, eps, opts, N)
    if not verify_grid:
        return t1, c1
    t2, c2 = _count_once(samples, omega, sign, eps, opts, 2 * N)
    if t2 == t1:
        return t2, c2
    t4, c4 = _count_once(samples, omega, sign, eps, opts, 4 * N)
    if t4 == t2:
        return t4, c4
    raise IndexUnstableError(
        f"crossing count kept changing under grid refinement at omega={omega:.6g} "
        f"({t1}, {t2}, {t4})")


def index_nu(path: SymplecticPath, omega=1.0, opts: IndexOptions | None = None,
             ) -> IndexResult:
    """Index and nullity of the path at the given unit-circle parameter.

    Raises DimensionError for omega off the unit circle, and for
    1e-12 < |omega - 1| < 1e-4.
    """
    opts = opts or IndexOptions()
    if opts.check_start:
        path.check_start()
    return _index_nu(_Samples(path), omega, opts)


def _index_nu(samples: _Samples, omega, opts: IndexOptions) -> IndexResult:
    w = _normalize_omega(omega)
    if _AT_ONE <= abs(w - 1.0) < _NEAR_ONE:
        raise DimensionError(
            f"omega={w:.6g} lies within {_NEAR_ONE:g} of 1 but is not 1; "
            "the crossing count cannot resolve it")
    nu, _ = _kernel_basis(samples.path.endpoint, w, opts.rank_tol)

    eps = opts.eps
    last = "no attempt"
    for _ in range(opts.eps_ladder):
        try:
            i_minus, cr = _count_total(samples, w, -1, eps, opts,
                                       verify_grid=True)
            i_plus, _ = _count_total(samples, w, 1, eps, opts,
                                     verify_grid=False)
        except (_Degenerate, _RetryEps) as e:
            last = str(e)
            eps *= 0.5
            continue
        if i_plus - i_minus != nu:
            last = (f"one-sided counts {i_minus}/{i_plus} inconsistent with "
                    f"nullity {nu} at eps={eps:.1e}")
            eps *= 0.5
            continue
        return IndexResult(index=i_minus, nullity=nu, omega=w,
                           crossings=cr, eps=eps)
    raise TangencyError(
        f"tangency unresolved at omega={w:.6g} after twist ladder: {last}")


# ---------------------------------------------------------------------------
# many omega: the arc rule
# ---------------------------------------------------------------------------

class _ArcRule:
    """(i_omega, nu_omega) anywhere on U from one count per arc.

    The closed upper half circle is cut at 1, at -1 and at the clustered
    angles of the endpoint eigenvalues near U; each cut is an angle range
    [lo, hi].  Between cuts the index is that of the arc midpoint and the
    nullity is 0.  Within _CUT_TOL of a cut, omega is counted directly.
    Lower half points are read through conjugate symmetry.  Counts are
    cached, so a rule serves any number of queries on one path, and all
    its counts share one sampling of the twisted grids.
    """

    def __init__(self, path: SymplecticPath, opts: IndexOptions):
        if opts.check_start:
            path.check_start()
        self.path, self.opts = path, opts
        self.samples = _Samples(path)
        ev = np.linalg.eigvals(path.endpoint)
        angles = sorted([0.0, np.pi] + [_principal_angle(z) for z in ev
                                        if abs(abs(z) - 1.0) < _CIRCLE_TOL])
        self.cuts = [[0.0, 0.0]]
        for a in angles[1:]:
            if a - self.cuts[-1][1] <= _CUT_TOL:
                self.cuts[-1][1] = a
            else:
                self.cuts.append([a, a])
        self._arcs: dict[int, int] = {}
        self._direct: dict[float, tuple[int, int]] = {}

    def arc(self, j: int) -> int:
        """Index on the open arc between cuts j and j + 1."""
        if j not in self._arcs:
            mid = 0.5 * (self.cuts[j][1] + self.cuts[j + 1][0])
            res = _index_nu(self.samples, np.exp(1j * mid), self.opts)
            if res.nullity:
                # nu vanishes on an open arc; a kernel at the midpoint means
                # it sits within the twist's reach of a cut (a Jordan block
                # splits by ~sqrt(eps)), so its index cannot be trusted
                raise TangencyError(
                    f"arc midpoint at angle {mid:.6g} reports nullity "
                    f"{res.nullity}")
            self._arcs[j] = res.index
        return self._arcs[j]

    def locate(self, a: float) -> tuple[int, bool]:
        """(j, True) if angle a in [0, pi] is near cut j, else (j, False)
        for a inside arc j."""
        j = sum(lo - _CUT_TOL <= a for lo, _ in self.cuts) - 1
        return j, a <= self.cuts[j][1] + _CUT_TOL

    def __call__(self, omega) -> tuple[int, int]:
        w = _normalize_omega(omega)
        a = _principal_angle(w)
        j, near = self.locate(a)
        if not near:
            return self.arc(j), 0
        key = round(a, 12)
        if key not in self._direct:
            up = w if w.imag >= 0.0 else w.conjugate()
            self._direct[key] = _index_nu(self.samples, up,
                                          self.opts).as_tuple()
        return self._direct[key]


def iterate_indices(path: SymplecticPath, m_max: int,
                    opts: IndexOptions | None = None) -> list[IndexResult]:
    """(i, nu) of the m-fold iterates, m = 1..m_max, via the root sum

        i(gamma, m) = sum over omega^m = 1 of i_omega(gamma),

    with every i_omega read from the arc rule.
    """
    return _iterate_table(_ArcRule(path, opts or IndexOptions()), m_max)


def _iterate_table(rule: _ArcRule, m_max: int) -> list[IndexResult]:
    out = []
    for m in range(1, m_max + 1):
        pairs = [rule(np.exp(2j * np.pi * k / m)) for k in range(m)]
        out.append(IndexResult(index=sum(i for i, _ in pairs),
                               nullity=sum(nu for _, nu in pairs),
                               omega=1.0 + 0.0j, crossings=(), eps=0.0))
    return out


def mean_index(path: SymplecticPath, K: int = 1024,
               opts: IndexOptions | None = None) -> tuple[float, float]:
    """K-th discrete average of the index, with an a priori error bound.

    Returns (i(gamma, K) / K, bound) where the first entry differs from
    the true mean index by at most 2n/K; the reported bound is 4n/K.
    i(gamma, K) is the sum of i_omega over the K-th roots of unity, read
    from the arc rule: the count scales with the endpoint spectrum, not
    with K.  Conjugate roots share an index, so only the closed upper
    half circle is visited.
    """
    return _mean(_ArcRule(path, opts or IndexOptions()), K)


def _mean(rule: _ArcRule, K: int) -> tuple[float, float]:
    total = rule(1.0)[0]
    if K % 2 == 0:
        total += rule(-1.0)[0]
    for k in range(1, (K + 1) // 2):
        total += 2 * rule(np.exp(2j * np.pi * k / K))[0]
    return total / K, 4.0 * rule.path.n / K


def iterates_and_mean(path: SymplecticPath, m_max: int, K: int = 1024,
                      opts: IndexOptions | None = None,
                      ) -> tuple[list[IndexResult], tuple[float, float]]:
    """`iterate_indices(path, m_max)` and `mean_index(path, K)` from one
    arc rule, so the counts both need (omega = +-1, the arcs) run once."""
    rule = _ArcRule(path, opts or IndexOptions())
    return _iterate_table(rule, m_max), _mean(rule, K)


def splitting_numbers_numeric(path: SymplecticPath, omega,
                              opts: IndexOptions | None = None,
                              ) -> SplittingPair:
    """Splitting numbers at omega by one-sided index limits.

    S+-(omega) = lim as delta -> 0+ of i at omega e^{+-i delta} minus
    i at omega.  The index is constant on the arcs of the arc rule, so
    each limit is the index at the midpoint of the arc next to omega on
    that side, minus i_omega; omega counts as the cut it lies near.  At
    +-1 both sides are the same arc by conjugate symmetry.

    At omega within rank_tol of +-1 with nullity 0, +-1 is no eigenvalue
    and the pair is (0, 0).  Raises MergedCutError when omega is farther
    than rank_tol from +-1 but its cut merged with the cut at +-1: the arc
    between omega and +-1 is then never counted.
    """
    w = _normalize_omega(omega)
    opts = opts or IndexOptions()
    rule = _ArcRule(path, opts)
    a = _principal_angle(w)
    j, near = rule.locate(a)
    last = len(rule.cuts) - 2
    lo, hi = rule.cuts[j]
    # within rank_tol of +-1 the kernel test cannot tell omega from +-1
    gap = min(a, np.pi - a)
    if near and j in (0, last + 1) and lo < hi and gap > opts.rank_tol:
        raise MergedCutError(
            f"omega at angle {a:.9g} lies {gap:.2e} rad from "
            f"{'+1' if j == 0 else '-1'}, at the merged cut "
            f"[{lo:.9g}, {hi:.9g}]; the splitting numbers there are not "
            "resolved", gap)
    i0, nu0 = rule(w)
    if not near or (nu0 == 0 and gap <= opts.rank_tol):
        # omega is no eigenvalue: the splitting numbers vanish there, so
        # a cut at +-1 merged with a nearby eigenvalue is not read
        return SplittingPair(0, 0)
    above = rule.arc(min(j, last)) - i0
    below = rule.arc(max(j - 1, 0)) - i0
    if w.imag < 0.0:
        above, below = below, above
    return SplittingPair(above, below)
