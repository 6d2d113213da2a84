"""Index and nullity of symplectic paths at unit-circle parameters.

The pair (i_omega, nu_omega) of a path gamma starting at the identity is
computed by crossing counting:

    i = [half signature of the start form, only at omega = 1]
      + sum over interior crossings of the signature of the crossing form
      + endpoint resolution by a rotational twist.

The crossing form at time t on ker(P(t) - omega) is the restriction of
the symmetric coefficient S(t) = J^{-1} P' P^{-1}.  On a diamond product
(every orbit path) P and S are block diagonal in the plane-interleaved
basis, so the kernel is the direct sum of the factor kernels and the
signature of the form is the sum of the factors' signatures; kernels and
forms are read per factor (`_form_counts`).  Both one-sided twists
gamma(t) exp(+-eps t J / tau) are counted; the lower one is the index
(lower semicontinuous convention) and their difference must equal the
endpoint nullity, which is asserted on every call; where it does not,
the upper twist is counted again on the finer grid where the lower
count settled before the twist is halved.  Degenerate crossing
forms trigger an eps ladder; persistent degeneracy raises TangencyError.
Points within 1e-4 of omega = 1, other than 1 itself up to 1e-12
rounding, are refused: their crossings sit at the very start of the
path, where the count cannot resolve them.  The arc rule (below) reads
such a point from the arc it lies on when no endpoint eigenvalue lies
between it and 1, nor within _RANK_TOL of it.

Crossings are located on a grid of the twisted path: N + 1 equal steps,
geometric points towards both ends, and the seams.  The grid and the
eigenvalues of the twisted path there depend on the twist sign, eps and
the grid size N, not on omega, so one `index_nu` call or one arc rule
(below) samples each grid once for all the omega it counts; the N grid
of the grid check is a subset of its 2N grid and is read from the 2N
samples.  The twist turns each plane on its own, so the twist of a
diamond product (every orbit path) is the diamond product of twisted
factors, and its eigenvalues are read factor by factor (`_eigvals`): a
2x2 factor in closed form; a 4x4 factor from the quadratic its
palindromic characteristic polynomial gives in l + 1/l, except at rows
near a double root or not symplectic to rounding, which go to LAPACK;
larger factors by LAPACK.  Endpoint spectra are always LAPACK's.

Every run of grid cells that holds a sign change of the real function
D_omega = (-1)^(n-1) conj(omega)^n det(P - omega I), or a local minimum
below _TRIGGER of the eigenvalue distance to omega, is a bracket; all
brackets are cut into 16 cells per level until they are narrower than
64 _REFINE_RTOL tau.  Their midpoints, merged within one radius, are the
candidate crossings.  A candidate counts only if the matrix of some
factor, F(t) - omega I, has a numerical kernel (singular values below
_RANK_TOL relative to its largest); each factor's crossing form is
restricted to its own kernel, and the signatures add.

The counts of one twisted path and one step of the eps ladder are swept
together: all their omega, and the grid sizes N and 2N of the lower
twist, share one batched evaluation and one bracket detection per
level, and then one read of the crossing forms (`_form_counts`).  That
read is per factor and exact: the kernel and the form of a factor at a
candidate depend only on the factor, the time and omega, so each factor
is evaluated once at the candidates of all counts, with one batched SVD
whose rows carry their own omega, and its coefficient is read once per
side.  Each count keeps its own brackets and candidates.  If a read of
that batch fails, each count is read again on its own and takes the
error its own read raises, so a sweep returns what separate counts
would.

Mean indices, iterate tables and splitting numbers need i_omega at many
points of the circle U.  By the Bott-type formula i_omega is constant on
each arc of U between unit eigenvalues of the endpoint gamma(tau), nu_omega
vanishes there, and i_conj(omega) = i_omega.  So these are read from one
count per arc of the upper half circle cut at +-1 and at the endpoint
eigenvalue angles, plus direct counts at points close to a cut.  The
rule takes all queries of a call at once and counts every arc and direct
point they need in one list, so the sweeps above hold all of them, and
it keeps no outcome from one call to the next; `iterates_and_mean` reads
an iterate table and a mean index from one call.  Splitting numbers
vanish off the endpoint spectrum, so they make no count off every cut,
and at a cut one call counts omega and the arcs on both sides of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    IndexUnstableError,
    MergedCutError,
    NumericalConsistencyError,
    SymstabError,
    TangencyError,
)
from .paths import SymplecticPath, twisted_path
from .spectral import (_ON_CIRCLE_TOL, SplittingPair, _as_complex,
                       _normalize_omega, _principal_angle)
from .sympl import _positive_int, standard_J

__all__ = [
    "IndexOptions",
    "IndexResult",
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
# split of the defective trivial pair (~1e-7 closed form, ~3e-5 integrated)
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
# equal steps of the crossing grid (at least; a path may hint more)
_GRID = 256
# twist halvings tried after the first twist before a TangencyError
_EPS_LADDER = 7
# singular values below _RANK_TOL (relative) span the numerical kernel
_RANK_TOL = 1e-6
# eigenvalue distance to omega below which a sampled minimum is a bracket
_TRIGGER = 0.05
# brackets are refined until narrower than 64 _REFINE_RTOL tau
_REFINE_RTOL = 1e-12
# crossing-form eigenvalues below _FORM_TOL (relative) are degenerate
_FORM_TOL = 1e-7
# a 4x4 factor's spectrum is read in closed form (`_eigvals4`) where its
# quadratic in l + 1/l has no root within _QUAD_TOL (relative) of a double
# one, and where P^T J P - J stays within _SYMPL_TOL (relative to
# ||P||_F^2) of 0: constructor-built paths stay below 1e-15, splines
# through integrated samples reach 1e-12 to 5e-10.  Rounding in the
# quadratic grows like 1/sqrt of that distance; at 1e-6 it moved the
# sampled distance minima of a twisted Jordan block at 1 enough to open
# extra brackets (the same integers, more evaluations)
_QUAD_TOL = 1e-3
_SYMPL_TOL = 1e-13
_J4 = standard_J(2)
# _EPS is the first twist of the ladder; a twisted endpoint with an
# eigenvalue within 3 _ACCEPT_TOL of omega asks for a smaller one
_EPS = 1e-4
_ACCEPT_TOL = 1e-6


@dataclass(frozen=True)
class IndexOptions:
    """The engine's first twist and acceptance tolerance, _EPS and
    _ACCEPT_TOL, for code that reads them; no function takes them."""

    eps: float = _EPS
    accept_tol: float = _ACCEPT_TOL


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


# what one count can raise; a batched count keeps it as that count's outcome
_FAILURES = (SymstabError, _Degenerate, np.linalg.LinAlgError)


def _kernel_basis(M: np.ndarray, omega):
    """Numerical kernel of M - omega I: (k, basis), the basis in columns,
    or (0, None).  Singular values up to _RANK_TOL * max(1, s_0) of each
    matrix span its kernel.  A stack (m, d, d) takes one batched SVD and
    gives the list of the m pairs; omega is one value or one per row."""
    dim = M.shape[-1]
    w = np.asarray(omega)[..., None, None]
    _, s, Vh = np.linalg.svd(M - w * np.eye(dim))
    ks = np.sum(s <= _RANK_TOL * np.maximum(1.0, s[..., :1]), axis=-1)
    out = [(k, V.conj().T[:, dim - k:] if k else None)
           for k, V in zip(ks.reshape(-1).tolist(), Vh.reshape(-1, dim, dim))]
    return out[0] if M.ndim == 2 else out


def _grid(path: SymplecticPath, N: int) -> np.ndarray:
    """N + 1 equal steps on [0, tau], geometric points towards both ends
    and the seams, sorted, each time once."""
    tau = path.tau
    geo = tau * np.power(2.0, -np.arange(4, 44, dtype=float))
    return np.unique(np.concatenate([np.linspace(0.0, tau, N + 1), geo,
                                     tau - geo, path.seams]))


def _eigvals(path: SymplecticPath, ts) -> np.ndarray:
    """Eigenvalues of path at the times ts, stacked on the last axis.

    The spectrum of a diamond product is the union of those of its
    factors, so each factor is read on its own through its `values`.  A
    2x2 factor [[a, b], [c, d]] has (a + d)/2 +- sqrt(((a - d)/2)^2 + b c);
    in that form a small rotation angle keeps its relative accuracy, where
    the trace and determinant form would cancel.  A 4x4 factor is read
    from its reciprocal-pair quadratic (`_eigvals4`), and larger factors
    go to LAPACK.
    """
    parts = []
    for f in path.factors:
        P = f.values(ts)
        if f.n == 1:
            a, b, c, d = P[:, 0, 0], P[:, 0, 1], P[:, 1, 0], P[:, 1, 1]
            h = 0.5 * (a - d)
            r = np.sqrt(h * h + b * c + 0j)
            mid = 0.5 * (a + d)
            parts.append(np.stack([mid + r, mid - r], axis=-1))
        elif f.n == 2:
            parts.append(_eigvals4(P))
        else:
            parts.append(np.linalg.eigvals(P))
    return np.concatenate(parts, axis=-1)


def _eigvals4(P: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack (m, 4, 4) of symplectic matrices, (m, 4).

    The characteristic polynomial of a symplectic P is palindromic,
    l^4 - a l^3 + b l^2 - a l + 1 with a = tr P and b = (a^2 - tr P^2)/2,
    so x = l + 1/l solves x^2 - a x + (b - 2) = 0.  Its roots are taken in
    the stable form x1 = (a + sgn(a) sqrt(d1))/2, x2 = (b - 2)/x1, with
    d1 = 2 tr P^2 - a^2 + 8, and each x gives l = (x + r)/2 and 1/l, where
    r = +-sqrt(x^2 - 4) is signed to add to x, so |l| >= 1.  Near a double
    root (d1 or x^2 - 4 within _QUAD_TOL of zero: a Krein collision, or an
    eigenvalue pair near +-1) rounding in the roots grows up to sqrt(eps),
    and a row that is not symplectic to _SYMPL_TOL has no palindromic
    polynomial.  Such rows, and non-finite ones, go to LAPACK, bit for bit
    as a LAPACK call on the whole stack would read them.
    """
    a = np.trace(P, axis1=1, axis2=2)
    tr2 = np.einsum("tij,tji->t", P, P)
    fro2 = np.einsum("tij,tij->t", P, P)
    b = 0.5 * (a * a - tr2)
    d1 = 2.0 * tr2 - a * a + 8.0
    with np.errstate(all="ignore"):    # rows that fail the tests below
        x1 = 0.5 * (a + np.where(a < 0.0, -1.0, 1.0) * np.sqrt(d1 + 0j))
        x = np.stack([x1, (b - 2.0) / x1], axis=-1)
        q = x * x - 4.0
        r = np.sqrt(q)
        r = np.where((x.conj() * r).real < 0.0, -r, r)
        lam = 0.5 * (x + r)
        ev = np.concatenate([lam, 1.0 / lam], axis=-1)
        PJP = P.transpose(0, 2, 1) @ _J4 @ P
        residual = np.abs(PJP - _J4).max(axis=(1, 2))
        # a comparison with nan is False, so a non-finite row is not ok;
        # d1 away from 0 also keeps x1 away from 0
        ok = ((np.abs(d1) >= _QUAD_TOL * (a * a + 2.0 * fro2 + 8.0))
              & (np.abs(q) >= _QUAD_TOL * (np.abs(x) ** 2 + 4.0)).all(axis=1)
              & (residual <= _SYMPL_TOL * np.maximum(1.0, fro2)))
    if not ok.all():
        ev[~ok] = np.linalg.eigvals(P[~ok])
    return ev


def _bracket_rows(xs, D, dist, trigger: float, all_minima: bool):
    """Brackets of every row of the samples xs, shape (R, m + 1).

    A bracket is a run of cells that hold a sign change of D or sit next
    to a sampled local minimum of dist below trigger (with all_minima
    false, only the first lowest minimum of each row).  A minimum at an
    inner sample covers the two cells beside it, and neighbouring cells
    join one run only there.  Returns the (k, 2) brackets in row-major
    order and the row of each.
    """
    R = xs.shape[0]
    edge = np.ones((R, 1), dtype=bool)
    left = np.hstack([edge, dist[:, 1:] <= dist[:, :-1]])
    right = np.hstack([dist[:, :-1] <= dist[:, 1:], edge])
    mins = (dist < trigger) & left & right
    if not all_minima:
        rows = np.arange(R)
        best = np.argmin(np.where(mins, dist, np.inf), axis=1)
        keep = mins[rows, best]
        mins = np.zeros_like(mins)
        mins[rows, best] = keep
    cover = (D[:, :-1] * D[:, 1:] < 0.0) | mins[:, :-1] | mins[:, 1:]
    link = mins[:, 1:-1]          # cells c and c + 1 share the minimum c + 1
    start, end = cover.copy(), cover.copy()
    start[:, 1:] &= ~link
    end[:, :-1] &= ~link
    rows, lo = np.nonzero(start)
    hi = np.nonzero(end)[1]
    return np.stack([xs[rows, lo], xs[rows, hi + 1]], axis=1), rows


def _measure(ev, omega, pref):
    """D_omega before its real part is taken, and the eigenvalue distance
    to omega; ev has the eigenvalues on its last axis, and omega and pref
    broadcast against its other axes."""
    diff = ev - omega[..., None]
    return pref * diff.prod(axis=-1), np.abs(diff).min(axis=-1)


class _Samples:
    """Eigenvalues of the twisted grids of one path, shared by every omega.

    The twisted path gamma(t) exp(sign eps t J / tau) and its eigenvalues on
    `_grid(tw, N)` depend on (sign, eps, N) only, so each such grid is
    sampled once however many omega are counted against it.  The points of
    the N grid are all points of the 2N grid (the even half of its
    linspace, the same geometric and seam points), so once the 2N grid is
    sampled, the N grid is read from it.  One ladder step counts all its
    omega on a twisted path in one sweep (`_sweep`).  One instance lives
    for one `index_nu` call or one arc rule; nothing outlives a public
    call.
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
                ev = _eigvals(tw, ts)
            self._grids[key] = ts, ev
        return self._grids[key]


def _sweep(samples: _Samples, sign: int, eps: float, jobs: list) -> list:
    """Crossing counts of the jobs (omega, N) on one twisted path.

    Each job counts on its own grid, but every refinement level of all the
    jobs makes one batched evaluation, and the crossing forms at the
    candidates of all the jobs are read together (`_form_counts`).  The
    outcome of a job is (total, crossings) or the exception its count
    raised.
    """
    if not jobs:
        return []
    tw = samples.twisted(sign, eps)
    tau, n = tw.tau, tw.n
    omegas = np.array([w for w, _ in jobs])
    prefs = np.array([(-1.0) ** (n - 1) * np.conj(w) ** n for w, _ in jobs])
    out: list = [None] * len(jobs)

    live, owner = [], []
    for N in sorted({N for _, N in jobs}, reverse=True):  # 2N serves N
        ts, ev = samples.grid(sign, eps, N)
        ks = np.array([k for k, (_, M) in enumerate(jobs) if M == N])
        Draw, dist = _measure(ev, omegas[ks, None], prefs[ks, None])
        skew = np.abs(Draw.imag).max(axis=1) > 1e-6 * np.maximum(
            np.abs(Draw).max(axis=1), 1e-12)
        stuck = dist[:, -1] < 3.0 * _ACCEPT_TOL
        for k, bad, retry in zip(ks, skew, stuck):
            if bad:
                out[k] = NumericalConsistencyError(
                    "determinant function not real; input path may not be "
                    "symplectic")
            elif retry:
                out[k] = _RetryEps(
                    f"twisted endpoint still degenerate (eps={eps:.1e})")
        ok = ~(skew | stuck)
        br, rows = _bracket_rows(np.broadcast_to(ts, dist.shape)[ok],
                                 Draw.real[ok], dist[ok], _TRIGGER, True)
        live.append(br)
        owner.append(ks[ok][rows])

    # every bracket is cut into _SPLIT cells per level, and all new points
    # of a level are evaluated in one batched call; a bracket narrower than
    # `width` becomes a candidate crossing at its midpoint
    width = 64.0 * _REFINE_RTOL * tau
    live, owner = np.concatenate(live), np.concatenate(owner)
    found: list[list[float]] = [[] for _ in jobs]
    level = 0
    while True:
        narrow = live[:, 1] - live[:, 0] < width
        for k, t in zip(owner[narrow], live[narrow].mean(axis=1)):
            found[k].append(t)
        live, owner = live[~narrow], owner[~narrow]
        if not len(live):
            break
        level += 1
        xs = np.linspace(live[:, 0], live[:, 1], _SPLIT + 1, axis=1)
        ev = _eigvals(tw, xs.ravel()).reshape(*xs.shape, -1)
        Dv, dv = _measure(ev, omegas[owner, None], prefs[owner, None])
        live, rows = _bracket_rows(xs, Dv.real, dv, _TRIGGER,
                                   level <= _ALL_MINIMA)
        owner = owner[rows]

    todo = [k for k in range(len(jobs)) if out[k] is None]
    for k, res in zip(todo, _form_counts(tw, [(jobs[k][0], found[k])
                                              for k in todo])):
        out[k] = res
    return out


def _form_counts(tw: SymplecticPath, jobs: list) -> list:
    """Signature sums of the crossing forms of the jobs (omega, found) on
    the twisted path: per job (total, crossings counted), or its error.
    All jobs are read in one batch; if a read fails, each job is read
    again on its own, so every job gets what a count of its own gives."""
    try:
        return _form_batch(tw, jobs)
    except _FAILURES:
        pass
    out: list = []
    for job in jobs:
        try:
            out += _form_batch(tw, [job])
        except _FAILURES as exc:
            out.append(exc)
    return out


def _form_batch(tw: SymplecticPath, jobs: list) -> list:
    """`_form_counts` from one batched read per factor; a failing read raises.

    In the plane-interleaved basis P(t) and S(t) of a diamond product are
    block diagonal, so ker(P - omega) is the direct sum of the factor
    kernels, the form restricted to it is block diagonal too, and its
    signature is the sum of the factors' (Long 2002, Ch. 8); the same
    holds for the start form.  A path that is no diamond product is its
    own single factor.  So each factor makes one `values` call at the
    candidates of all jobs and one batched SVD of F(t) - omega I with each
    row's own omega; then each factor makes one `sforms` call per side
    where it has a kernel (a seam reads both sides; the start form of
    omega = 1 rides on the right side at t = 0, once for all jobs).  The
    forms go to one `eigvalsh` per matrix size.  Each job then signs its
    candidates in order; a degenerate form or an odd signature is its
    outcome.
    """
    tau = tw.tau
    # neighbouring brackets can close in on one crossing from both sides;
    # distinct crossings closer than this radius would be
    # indistinguishable to the form evaluation anyway
    radius = max(200.0 * _REFINE_RTOL * tau, 1e-6 * tau)
    seam_atol = 1e-9 * tau
    rows_of, cands = [], []
    for _, found in jobs:
        crossings: list[float] = []
        for t in sorted(found):
            if 1e-9 * tau <= t <= tau * (1.0 - 1e-13) and not (
                    crossings and t - crossings[-1] < radius):
                crossings.append(t)
        rows_of.append(range(len(cands), len(cands) + len(crossings)))
        cands += crossings
    ts = np.array(cands, dtype=float)
    ws = np.repeat([w for w, _ in jobs], [len(rows) for rows in rows_of])
    # the seam a candidate sits on, where both one-sided forms are read
    seam = [next((s for s in tw.seams if abs(s - t) < seam_atol), None)
            for t in cands]
    at_one = [abs(w - 1.0) < _AT_ONE for w, _ in jobs]

    # the kernel test is the only acceptance test: near a Krein collision
    # the eigenvalue distance to omega grows like sqrt|t - t_c|, while the
    # smallest singular value of F - omega I grows linearly in t
    kers = [_kernel_basis(f.values(ts), ws) if cands else []
            for f in tw.factors]
    forms: dict = {}      # forms[shape]: the (key, form) pairs to sign
    for fi, (f, ker) in enumerate(zip(tw.factors, kers)):
        hits = [r for r, (k, _) in enumerate(ker) if k]
        left = [(seam[r], r) for r in hits if seam[r] is not None]
        right = [(ts[r] if seam[r] is None else seam[r], r) for r in hits]
        right += [(0.0, None)] * any(at_one)
        for side, rows in ((-1, left), (1, right)):
            if not rows:
                continue
            S = f.sforms([t for t, _ in rows], side)
            for (_, r), Si in zip(rows, S):
                if r is not None:
                    B = ker[r][1]
                    Si = B.conj().T @ Si @ B
                forms.setdefault(Si.shape, []).append(((r, fi, side), Si))

    # the signature of every form, keyed (row, factor, side); start: row None
    sigs: dict = {}
    for entries in forms.values():
        F = np.stack([form for _, form in entries])
        V = np.linalg.eigvalsh(0.5 * (F + F.conj().transpose(0, 2, 1)))
        thr = _FORM_TOL * np.maximum(1.0, np.abs(V).max(axis=1))
        degenerate = (np.abs(V) < thr[:, None]).any(axis=1)
        sig = (V > 0).sum(axis=1) - (V < 0).sum(axis=1)
        for (key, _), v, bad, s in zip(entries, V, degenerate, sig):
            sigs[key] = (_Degenerate(f"crossing form eigenvalues {v}")
                         if bad else int(s))

    def count(k):
        total, counted = 0, []
        for r in rows_of[k]:
            hits = [fi for fi, ker in enumerate(kers) if ker[r][0]]
            if not hits:
                continue  # a distance minimum that is no crossing
            for fi in hits:
                if seam[r] is None:
                    total += _value(sigs[r, fi, 1])
                    continue
                f1, f2 = _value(sigs[r, fi, -1]), _value(sigs[r, fi, 1])
                if (f1 + f2) % 2:
                    raise NumericalConsistencyError(
                        f"odd corner signature pair ({f1},{f2}) at "
                        f"t={seam[r]:.6g}")
                total += (f1 + f2) // 2
            counted.append(cands[r])
        if at_one[k]:
            sig0 = sum(_value(sigs[None, fi, 1]) for fi in range(len(kers)))
            if sig0 % 2:
                raise NumericalConsistencyError("odd start-form signature")
            total += sig0 // 2
        return total, tuple(counted)

    out: list = []
    for k in range(len(jobs)):
        try:
            out.append(count(k))
        except _FAILURES as exc:
            out.append(exc)
    return out


def _ladder_step(samples: _Samples, ws: list, nus: list, eps: float) -> list:
    """One-sided counts of every omega in ws at one eps of the ladder.

    Per omega the outcome is (i_minus, crossings, i_plus) or an exception,
    taken in the order of one count at a time: the lower twist at N, then
    at 2N, at 4N only where those totals differ, and the upper twist at N
    only where the lower count succeeded.  Where the upper minus the lower
    count is not the nullity nus[k], the upper twist is counted again on
    the grid where the lower count settled: two crossings of different
    factors can share a cell of the N grid.
    """
    N = max(_GRID, samples.path.grid_hint)
    lower = _sweep(samples, -1, eps, [(w, N) for w in ws]
                   + [(w, 2 * N) for w in ws])
    coarse, fine = lower[:len(ws)], lower[len(ws):]
    out: list = [None] * len(ws)
    settled = {}
    finest = []
    for k, (c1, c2) in enumerate(zip(coarse, fine)):
        if isinstance(c1, Exception):
            out[k] = c1
        elif isinstance(c2, Exception) or c2[0] == c1[0]:
            out[k], settled[k] = c2, 2 * N
        else:
            finest.append(k)
    for k, c4 in zip(finest, _sweep(samples, -1, eps,
                                    [(ws[k], 4 * N) for k in finest])):
        if isinstance(c4, Exception) or c4[0] == fine[k][0]:
            out[k], settled[k] = c4, 4 * N
        else:
            out[k] = IndexUnstableError(
                "crossing count kept changing under grid refinement at "
                f"omega={ws[k]:.6g} ({coarse[k][0]}, {fine[k][0]}, {c4[0]})")
    done = [k for k in range(len(ws)) if not isinstance(out[k], Exception)]
    upper = dict(zip(done, _sweep(samples, 1, eps,
                                  [(ws[k], N) for k in done])))
    again = [k for k, up in upper.items() if not isinstance(up, Exception)
             and up[0] - out[k][0] != nus[k]]
    upper.update(zip(again, _sweep(samples, 1, eps,
                                   [(ws[k], settled[k]) for k in again])))
    for k, up in upper.items():
        out[k] = up if isinstance(up, Exception) else (*out[k], up[0])
    return out


def _index_nus(samples: _Samples, omegas: list) -> list:
    """`index_nu` at every omega on one path: an IndexResult or the error
    that `index_nu` raises there, per omega.  Each step of the eps ladder
    counts all omega still unresolved together."""
    out: list = [None] * len(omegas)
    ws, nus, last = {}, {}, {}
    for k, omega in enumerate(omegas):
        try:
            w = _normalize_omega(omega)
            if _AT_ONE <= abs(w - 1.0) < _NEAR_ONE:
                raise DimensionError(
                    f"omega={w:.6g} lies within {_NEAR_ONE:g} of 1 but is "
                    "not 1; the crossing count cannot resolve it")
            nus[k], _ = _kernel_basis(samples.path.endpoint, w)
        except _FAILURES as exc:  # the query's outcome, replayed in order
            out[k] = exc
            continue
        ws[k], last[k] = w, "no attempt"

    active = list(ws)
    eps = _EPS
    for _ in range(_EPS_LADDER):
        if not active:
            break
        retry = []
        for k, res in zip(active, _ladder_step(
                samples, [ws[k] for k in active], [nus[k] for k in active],
                eps)):
            if isinstance(res, (_Degenerate, _RetryEps)):
                last[k] = str(res)
                retry.append(k)
            elif isinstance(res, Exception):
                out[k] = res
            elif res[2] - res[0] != nus[k]:
                last[k] = (f"one-sided counts {res[0]}/{res[2]} inconsistent "
                           f"with nullity {nus[k]} at eps={eps:.1e}")
                retry.append(k)
            else:
                out[k] = IndexResult(index=res[0], nullity=nus[k], omega=ws[k],
                                     crossings=res[1], eps=eps)
        active = retry
        eps *= 0.5
    for k in active:
        out[k] = TangencyError(
            f"tangency unresolved at omega={ws[k]:.6g} after twist ladder: "
            f"{last[k]}")
    return out


def _check_path(path: SymplecticPath) -> None:
    """What every public entry checks first: the path starts at the
    identity, and its endpoint is finite."""
    path.check_start()
    if not np.isfinite(path.endpoint).all():
        raise NumericalConsistencyError(
            f"endpoint of {path!r} at t={path.tau:.6g} is not finite")


def _value(outcome):
    """A replayed outcome: raise it if it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def index_nu(path: SymplecticPath, omega=1.0) -> IndexResult:
    """Index and nullity of the path at the given unit-circle parameter.

    Raises DimensionError for omega off the unit circle, and for
    1e-12 < |omega - 1| < 1e-4.
    """
    _check_path(path)
    return _value(_index_nus(_Samples(path), [omega])[0])


# ---------------------------------------------------------------------------
# many omega: the arc rule
# ---------------------------------------------------------------------------

class _ArcRule:
    """(i_omega, nu_omega) anywhere on U from one count per arc.

    The closed upper half circle is cut at 1, at -1 and at the clustered
    angles of the endpoint eigenvalues near U; each cut is an angle range
    [lo, hi].  Between cuts the index is that of the arc midpoint and the
    nullity is 0.  Within _CUT_TOL of a cut, omega is counted directly,
    except that a point of the band the direct count refuses near 1 is
    read from arc 0 when the cut at 1 ends more than _RANK_TOL below its
    angle.
    Lower half points are read through conjugate symmetry.  A call counts
    every arc and direct point its queries need in one `_index_nus` list
    and keeps no outcome for the next call; only the sampling of the
    twisted grids is shared by all counts of a rule.
    """

    def __init__(self, path: SymplecticPath):
        _check_path(path)
        self.path = path
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
        lo, hi = np.array(self.cuts).T
        self._reach = lo - _CUT_TOL, hi + _CUT_TOL   # what `locate` calls near

    def locate(self, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(J, near) for angles A in [0, pi]: A[q] is near cut J[q] if
        near[q], else inside arc J[q]."""
        start, end = self._reach
        J = np.searchsorted(start, A, side="right") - 1
        return J, A <= end[J]

    def __call__(self, omegas=(), arcs=()) -> tuple[list, list]:
        """(i_omega, nu_omega) of each omega, and for each j of arcs the
        outcome of the count on the open arc between cuts j and j + 1:
        its index or its error, for the caller to raise with `_value`.

        The first omega, in query order, whose count failed raises its
        error.
        """
        omegas = list(omegas)
        W = np.fromiter(map(_as_complex, omegas), complex, len(omegas))
        radius = np.abs(W)
        off = ~(np.abs(radius - 1.0) <= _ON_CIRCLE_TOL)
        if off.any():   # the first omega off the circle raises its error
            _normalize_omega(omegas[off.argmax()])
        W.real /= radius
        W.imag /= radius
        A = np.angle(W) % (2.0 * np.pi)     # folded into [0, pi] below
        A = np.where(A <= np.pi, A, 2.0 * np.pi - A)
        J, near = self.locate(A)
        # refused by the direct count, but past the cut at 1 by more than
        # the kernel test can blur, so on arc 0
        d1 = np.abs(W - 1.0)
        near &= ~((J == 0) & (A > self.cuts[0][1] + _RANK_TOL)
                  & (_AT_ONE <= d1) & (d1 < _NEAR_ONE))
        direct: dict[int, float] = {}      # query position -> direct key
        points: dict[float, complex] = {}
        for q in near.nonzero()[0].tolist():
            key = direct[q] = round(float(A[q]), 12)
            w = complex(W[q])
            points.setdefault(key, w if w.imag >= 0.0 else w.conjugate())
        mids = {j: 0.5 * (self.cuts[j][1] + self.cuts[j + 1][0])
                for j in dict.fromkeys(J[~near].tolist() + list(arcs))}

        res = _index_nus(self.samples, [np.exp(1j * mid) for mid in
                                        mids.values()] + list(points.values()))
        found: dict = {}      # arc j -> its index or error
        for (j, mid), r in zip(mids.items(), res):
            if not isinstance(r, Exception) and r.nullity:
                # nu vanishes on an open arc; a kernel at the midpoint means
                # it sits within the twist's reach of a cut (a Jordan block
                # splits by ~sqrt(eps)), so its index cannot be trusted
                r = TangencyError(f"arc midpoint at angle {mid:.6g} reports "
                                  f"nullity {r.nullity}")
            found[j] = r if isinstance(r, Exception) else r.index
        at = {key: (r, 0) if isinstance(r, Exception) else r.as_tuple()
              for key, r in zip(points, res[len(mids):])}

        stored = [found.get(j) for j in range(len(self.cuts))]
        pairs = [(v, 0) for v in map(stored.__getitem__, J.tolist())]
        failed = np.array([isinstance(v, Exception) for v in stored])[J]
        for q, key in direct.items():
            pairs[q] = at[key]
            failed[q] = isinstance(pairs[q][0], Exception)
        if failed.any():      # a failed query's pair is (error, 0)
            raise pairs[failed.argmax()][0]
        return pairs, [found[j] for j in arcs]


def _mean_roots(K: int) -> list:
    """The K-th roots of unity on the closed upper half circle."""
    ends = [1.0, -1.0] if K % 2 == 0 else [1.0]
    k = np.arange(1, (K + 1) // 2)
    return ends + list(np.exp(1j * (2 * np.pi * k / K)))


def _iterates_and_mean(rule: _ArcRule, m_max: int, K: int | None):
    """The iterate table for m = 1..m_max and, unless K is None, the K-th
    discrete mean, from one call of the rule."""
    roots = [np.exp(2j * np.pi * k / m)
             for m in range(1, m_max + 1) for k in range(m)]
    pairs, _ = rule(roots + (_mean_roots(K) if K is not None else []))
    table, start = [], 0
    for m in range(1, m_max + 1):
        row = pairs[start:start + m]
        start += m
        table.append(IndexResult(index=sum(i for i, _ in row),
                                 nullity=sum(nu for _, nu in row),
                                 omega=1.0 + 0.0j, crossings=(), eps=0.0))
    if K is None:
        return table, None
    # conjugate roots share an index: count each upper root off +-1 twice
    half = pairs[start:]
    ends = 1 + (K % 2 == 0)
    total = sum(i for i, _ in half[:ends]) + 2 * sum(i for i, _ in half[ends:])
    return table, (total / K, 4.0 * rule.path.n / K)


def iterate_indices(path: SymplecticPath, m_max: int) -> list[IndexResult]:
    """(i, nu) of the m-fold iterates, m = 1..m_max, via the root sum

        i(gamma, m) = sum over omega^m = 1 of i_omega(gamma),

    with every i_omega read from the arc rule.  Raises DimensionError
    unless m_max is an integer >= 1.
    """
    m_max = _positive_int(m_max, "iterate table needs an integer m_max")
    return _iterates_and_mean(_ArcRule(path), m_max, None)[0]


def mean_index(path: SymplecticPath, K: int = 1024) -> tuple[float, float]:
    """K-th discrete average of the index, with an a priori error bound.

    Returns (i(gamma, K) / K, bound) where the first entry differs from
    the true mean index by at most 2n/K; the reported bound is 4n/K.
    i(gamma, K) is the sum of i_omega over the K-th roots of unity, read
    from the arc rule: the count scales with the endpoint spectrum, not
    with K.  Conjugate roots share an index, so only the closed upper
    half circle is visited.  Raises DimensionError unless K is an integer
    >= 1.
    """
    K = _positive_int(K, "mean index needs an integer K")
    return _iterates_and_mean(_ArcRule(path), 0, K)[1]


def iterates_and_mean(path: SymplecticPath, m_max: int, K: int = 1024,
                      ) -> tuple[list[IndexResult], tuple[float, float]]:
    """`iterate_indices(path, m_max)` and `mean_index(path, K)` from one
    arc rule, so the counts both need (omega = +-1, the arcs) run once.
    Raises DimensionError for m_max and K as those two do."""
    m_max = _positive_int(m_max, "iterate table needs an integer m_max")
    K = _positive_int(K, "mean index needs an integer K")
    return _iterates_and_mean(_ArcRule(path), m_max, K)


def splitting_numbers_numeric(path: SymplecticPath, omega) -> SplittingPair:
    """Splitting numbers at omega by one-sided index limits.

    S+-(omega) = lim as delta -> 0+ of i at omega e^{+-i delta} minus
    i at omega.  They vanish where omega is no endpoint eigenvalue (Long
    2002, Ch. 9), so off every cut the pair is (0, 0) and nothing is
    counted.  The index is constant on the arcs of the arc rule, so at a
    cut each limit is the index at the midpoint of the arc next to omega
    on that side, minus i_omega; one rule call counts omega and both
    arcs.  At +-1 both sides are the same arc by conjugate symmetry.

    At omega within _RANK_TOL of +-1 with nullity 0, +-1 is no eigenvalue
    and the pair is (0, 0), whatever the arc counts gave.  Raises
    MergedCutError when omega is farther than _RANK_TOL from +-1 but its
    cut merged with the cut at +-1: the arc between omega and +-1 is then
    never counted.
    """
    w = _normalize_omega(omega)
    rule = _ArcRule(path)
    a = _principal_angle(w)
    J, near = rule.locate(np.array([a]))
    if not near[0]:
        return SplittingPair(0, 0)
    j, last = int(J[0]), len(rule.cuts) - 2
    lo, hi = rule.cuts[j]
    # within _RANK_TOL of +-1 the kernel test cannot tell omega from +-1
    gap = min(a, np.pi - a)
    if j in (0, last + 1) and lo < hi and gap > _RANK_TOL:
        raise MergedCutError(
            f"omega at angle {a:.9g} lies {gap:.2e} rad from "
            f"{'+1' if j == 0 else '-1'}, at the merged cut "
            f"[{lo:.9g}, {hi:.9g}]; the splitting numbers there are not "
            "resolved", gap)
    [(i0, nu0)], arcs = rule([w], [min(j, last), max(j - 1, 0)])
    if nu0 == 0 and gap <= _RANK_TOL:
        # +-1 is no eigenvalue, so a cut at +-1 merged with a nearby
        # eigenvalue is not read
        return SplittingPair(0, 0)
    above, below = (_value(i) - i0 for i in arcs)
    if w.imag < 0.0:
        above, below = below, above
    return SplittingPair(above, below)
