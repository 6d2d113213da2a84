"""Symplectic paths and the algebra used to build them.

A path is a piecewise-smooth map gamma: [0, tau] -> Sp(2n), given by one
batched evaluator: a function from a 1-d array of times to the stacked
matrices.  `SymplecticPath.value(t)` reads that evaluator at one time, so
each matrix formula is written once.  Constant generators L are evaluated
through an eigenbasis of L or, when L is defective, through one batched
degree-13 Pade scaling and squaring built from the powers of L; neither
loops over the times in Python.  Besides values, the index machinery
needs the symmetric coefficient

    S(t) = J^{-1} dgamma/dt gamma(t)^{-1},

i.e. the Hamiltonian matrix of the linear system the path solves.  It too
has one batched evaluator, which every constructor here gives in closed
form (a spline through samples, from its derivative); `sforms`
symmetrizes its stack and checks the residual row by row.

Paths carry a list of interior seam times where they may only be C^0;
S(t, side) takes one-sided limits there.  A direct sum keeps its parts
as `factors`, and a twist of it twists each part, so its spectrum can be
read factor by factor: the spectrum of a diamond product is the union of
the spectra of its factors.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalConsistencyError, SymplecticityError
from .sympl import _positive_int, expJ, standard_J, sympl_dim

__all__ = [
    "SymplecticPath",
    "exp_path",
    "rotation_path",
    "shear_path",
    "lower_shear_path",
    "normal_form_path",
    "product_path",
    "iterate_path",
    "diamond_paths",
    "twisted_path",
    "twist",
    "path_from_samples",
]


def _span(tau) -> float:
    """tau as a float; DimensionError unless it is finite and positive."""
    if not 0.0 < tau < np.inf:
        raise DimensionError(f"path needs a finite tau > 0, got {tau}")
    return float(tau)


def _finite(x, what: str):
    if not np.isfinite(x):
        raise DimensionError(f"{what} must be finite, got {x}")
    return x


class SymplecticPath:
    """Piecewise-smooth symplectic path on [0, tau].

    values_fn, the only evaluator, takes a 1-d float array of times and
    returns the stacked (m, 2n, 2n) matrices; `value(t)` is values_fn at
    the single time t.  sform_fn(ts, side) is the only coefficient
    evaluator, batched the same way: it returns the (m, 2n, 2n) stack of
    S at the times ts, with the side (+1 right limit, -1 left limit)
    honoured at seams.  `sforms` checks that shape and raises
    DimensionError otherwise, so a scalar coefficient function fails with
    a typed error; `sform(t, side)` is `sforms` at the single time t.
    `factors` are the paths whose diamond product this path is, in plane
    order; a path that is no such product is its own single factor.
    """

    def __init__(self, n, tau, values_fn, sform_fn, seams=(),
                 grid_hint=96, label="", factors=None):
        self.n = int(n)
        self.tau = _span(tau)
        self._values = values_fn
        self._sform = sform_fn
        self.seams = tuple(sorted(s for s in seams if 0.0 < s < self.tau))
        self.grid_hint = int(grid_hint)
        self.label = label
        self._factors = tuple(factors) if factors else None
        self._endpoint = None

    @property
    def factors(self) -> tuple:
        return self._factors or (self,)

    # -- evaluation ---------------------------------------------------------

    def value(self, t: float) -> np.ndarray:
        # the stored evaluator, not self.values: a traced `values` must not
        # count scalar reads
        return self._values(np.array([float(t)]))[0]

    __call__ = value

    def values(self, ts) -> np.ndarray:
        return self._values(np.asarray(ts, dtype=float))

    @property
    def endpoint(self) -> np.ndarray:
        if self._endpoint is None:
            self._endpoint = self.value(self.tau)
        return self._endpoint

    def sforms(self, ts, side: int = 1) -> np.ndarray:
        """S(t) = J^{-1} P' P^{-1} at every time of ts, symmetrized, with
        one-sided limits: the (m, 2n, 2n) stack."""
        return self._symmetric(np.asarray(ts, dtype=float), int(side))

    def sform(self, t: float, side: int = 1) -> np.ndarray:
        # the stored evaluator, not self.sforms, as in `value`
        return self._symmetric(np.array([float(t)]), int(side))[0]

    def _symmetric(self, ts, side):
        d = 2 * self.n
        try:
            S = np.asarray(self._sform(ts, side))
        except TypeError as exc:
            raise DimensionError(
                f"{self.label or 'path'}: sform_fn must take a 1-d array of "
                f"times ({exc})") from exc
        if S.shape != (len(ts), d, d):
            raise DimensionError(
                f"{self.label or 'path'}: sform_fn returned shape {S.shape} "
                f"for {len(ts)} times, not ({len(ts)}, {d}, {d})")
        Ssym = 0.5 * (S + S.transpose(0, 2, 1))
        asym = np.abs(S - Ssym).max(axis=(1, 2))
        bad = asym > 1e-3 * (1.0 + np.abs(Ssym).max(axis=(1, 2)))
        if bad.any():
            r = int(bad.argmax())
            raise NumericalConsistencyError(
                f"{self.label or 'path'}: coefficient at t={ts[r]:.6g} is not "
                f"symmetric (residual {asym[r]:.2e}); path may not be "
                "symplectic")
        return Ssym

    # -- convenience --------------------------------------------------------

    def check_start(self) -> None:
        r = np.abs(self.value(0.0) - np.eye(2 * self.n)).max()
        if r > 1e-9:
            raise SymplecticityError(f"path must start at the identity, "
                                     f"residual {r:.2e}")

    def __repr__(self):
        lbl = f" {self.label!r}" if self.label else ""
        return (f"<SymplecticPath{lbl} n={self.n} tau={self.tau:.6g} "
                f"seams={len(self.seams)}>")


# ---------------------------------------------------------------------------
# elementary constructors
# ---------------------------------------------------------------------------

# Pade [13/13] coefficients of exp, and theta13, the 1-norm of A up to
# which that approximant has a backward error below double rounding
# (Higham, SIAM J. Matrix Anal. Appl. 26, 2005)
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152


def _pade_exp(L: np.ndarray):
    """Batched evaluator ts -> exp(t L), by scaling and squaring.

    Every t L is a multiple of the same L, so the powers L^0..L^13 are
    formed once; a stack of times then costs two coefficient contractions,
    one batched solve and at most s_max masked squarings, where s_t is the
    smallest s with |t| ||L||_1 / 2^s <= theta13.
    """
    d = L.shape[0]
    powers = np.empty((14, d, d))
    powers[0] = np.eye(d)
    for k in range(1, 14):
        powers[k] = powers[k - 1] @ L
    odd = powers[1::2].reshape(7, d * d)
    even = powers[0::2].reshape(7, d * d)
    norm = np.abs(L).sum(axis=0).max()

    def values(ts):
        ratio = np.maximum(np.abs(ts) * norm / _THETA13, 1.0)
        s = np.ceil(np.log2(ratio)).astype(int)
        C = np.ldexp(ts, -s)[:, None] ** np.arange(14) * _PADE13
        # einsum, not matmul: a row rounds alike in any stack of times
        U = np.einsum("tk,kj->tj", C[:, 1::2], odd).reshape(-1, d, d)
        V = np.einsum("tk,kj->tj", C[:, 0::2], even).reshape(-1, d, d)
        R = np.linalg.solve(V - U, V + U)
        for level in range(1, int(s.max(initial=0)) + 1):
            sel = s >= level
            Rs = R[sel]
            R[sel] = Rs @ Rs
        return R

    return values


def _constant(S: np.ndarray):
    """Batched coefficient evaluator of a constant S."""
    return lambda ts, side: np.broadcast_to(S, (len(ts), *S.shape))


def exp_path(S_sym: np.ndarray, tau: float = 1.0, label="") -> SymplecticPath:
    """Path exp(t J S) of the constant linear system x' = J S x.

    With a well-conditioned eigenbasis of L = J S the values are
    V exp(t Lambda) V^{-1}; a defective L (a shear plane, a Jordan block of
    `normal_form_path`) goes through the batched Pade evaluator
    `_pade_exp`, which serves a whole time stack from the powers of L.
    """
    tau = _span(tau)
    S_sym = np.asarray(S_sym, dtype=float)
    n = sympl_dim(S_sym)
    J = standard_J(n)
    S_sym = 0.5 * (S_sym + S_sym.T)
    L = J @ S_sym

    evals, V = np.linalg.eig(L)
    use_eig = np.linalg.cond(V) < 1e6
    if use_eig:
        Vinv = np.linalg.inv(V)
        # defective generators make the eigenbasis useless long before the
        # condition number looks alarming; check the reconstruction itself
        use_eig = np.abs((V @ Vinv).real - np.eye(2 * n)).max() < 1e-12
    if use_eig:

        def values(ts):
            # an overflowing exponential leaves a non-finite value without
            # a warning; the engine refuses a non-finite endpoint
            with np.errstate(over="ignore", invalid="ignore"):
                E = np.exp(np.multiply.outer(ts, evals))      # (m, 2n)
                return np.einsum("tij,jk->tik", V * E[:, None, :], Vinv).real
    else:
        values = _pade_exp(L)

    hint = 96 + int(16 * min(np.linalg.norm(L, 2) * tau, 400))
    return SymplecticPath(n, tau, values, sform_fn=_constant(S_sym),
                          grid_hint=hint, label=label or "exp")


def rotation_path(theta: float, tau: float = 1.0) -> SymplecticPath:
    """R(theta t / tau) in one plane."""
    rate = _finite(theta, "rotation angle") / _span(tau)

    def values(ts):
        c, s = np.cos(rate * ts), np.sin(rate * ts)
        out = np.empty((len(ts), 2, 2))
        out[:, 0, 0] = c
        out[:, 0, 1] = -s
        out[:, 1, 0] = s
        out[:, 1, 1] = c
        return out

    return SymplecticPath(1, tau, values, sform_fn=_constant(rate * np.eye(2)),
                          grid_hint=96 + int(16 * abs(theta)),
                          label=f"rotation({theta:.4g})")


def _shear_values(ts, beta, row, col):
    """Identity stack with beta t in entry (row, col)."""
    out = np.zeros((len(ts), 2, 2))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, row, col] = beta * ts
    return out


def shear_path(b: float, tau: float = 1.0) -> SymplecticPath:
    """[[1, b t/tau], [0, 1]], the straight upper shear."""
    beta = _finite(b, "shear") / _span(tau)
    S = np.array([[0.0, 0.0], [0.0, -beta]])
    return SymplecticPath(1, tau, lambda ts: _shear_values(ts, beta, 0, 1),
                          sform_fn=_constant(S),
                          label=f"shear({b:.4g})")


def lower_shear_path(b: float, tau: float = 1.0) -> SymplecticPath:
    """[[1, 0], [b t/tau, 1]], the straight lower shear."""
    beta = _finite(b, "lower shear") / _span(tau)
    S = np.array([[beta, 0.0], [0.0, 0.0]])
    return SymplecticPath(1, tau, lambda ts: _shear_values(ts, beta, 1, 0),
                          sform_fn=_constant(S),
                          label=f"lshear({b:.4g})")


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def product_path(p1: SymplecticPath, p2: SymplecticPath,
                 label="") -> SymplecticPath:
    """Pointwise product t -> p1(t) p2(t) on a common interval."""
    if p1.n != p2.n or abs(p1.tau - p2.tau) > 1e-12 * max(p1.tau, p2.tau):
        raise DimensionError("product needs equal dimension and tau")
    n, tau = p1.n, p1.tau

    def values(ts):
        return p1.values(ts) @ p2.values(ts)

    def sform(ts, side):
        Ait = np.linalg.inv(p1.values(ts)).transpose(0, 2, 1)
        return (p1.sforms(ts, side)
                + Ait @ p2.sforms(ts, side) @ Ait.transpose(0, 2, 1))

    return SymplecticPath(n, tau, values, sform_fn=sform,
                          seams=sorted(set(p1.seams) | set(p2.seams)),
                          grid_hint=max(p1.grid_hint, p2.grid_hint),
                          label=label or f"{p1.label}*{p2.label}")


def iterate_path(p: SymplecticPath, m: int) -> SymplecticPath:
    """m-fold iteration: gamma(t - j tau) gamma(tau)^j on [0, m tau].
    Raises DimensionError unless m is an integer >= 1."""
    m = _positive_int(m, "iterate needs an integer m")
    if m == 1:
        return p
    n, tau = p.n, p.tau
    M = p.endpoint
    powers = [np.eye(2 * n)]
    for _ in range(m):
        powers.append(M @ powers[-1])

    def pieces(ts):
        return np.clip(np.floor(ts / tau + 1e-13).astype(int), 0, m - 1)

    def values(ts):
        js = pieces(ts)
        out = np.empty((len(ts), 2 * n, 2 * n))
        for j in range(m):
            sel = js == j
            if sel.any():
                out[sel] = p.values(ts[sel] - j * tau) @ powers[j]
        return out

    def sform(ts, side):
        # S of the iterate at t is S of gamma at the time within its piece;
        # at a seam, the left limit is gamma's at tau and the right one
        # gamma's at 0, so every time keeps the side of the call
        js = pieces(ts)
        s = ts - js * tau
        if side < 0:
            s = np.where((s <= 1e-13 * tau) & (js > 0), tau, s)
        elif side > 0:
            s = np.where((tau - s <= 1e-13 * tau) & (js < m - 1), 0.0, s)
        return p.sforms(s, side)

    seams = sorted({j * tau for j in range(1, m)}
                   | {j * tau + s for j in range(m) for s in p.seams})
    return SymplecticPath(n, m * tau, values, sform_fn=sform, seams=seams,
                          grid_hint=m * p.grid_hint,
                          label=f"{p.label}^^{m}")


def diamond_paths(paths) -> SymplecticPath:
    """Plane-interleaved direct sum of paths on a common interval."""
    paths = list(paths)
    tau = paths[0].tau
    for q in paths:
        if abs(q.tau - tau) > 1e-12 * tau:
            raise DimensionError("direct sum needs a common tau")
    n = sum(q.n for q in paths)

    def place(parts, ts):
        out = np.zeros((len(ts), 2 * n, 2 * n))
        off = 0
        for q, blk in zip(paths, parts):
            xs = np.r_[off:off + q.n, n + off:n + off + q.n]
            out[np.ix_(np.arange(len(ts)), xs, xs)] = blk
            off += q.n
        return out

    def values(ts):
        return place([q.values(ts) for q in paths], ts)

    def sform(ts, side):
        return place([q.sforms(ts, side) for q in paths], ts)

    seams = sorted(set().union(*(q.seams for q in paths)))
    return SymplecticPath(n, tau, values, sform_fn=sform, seams=seams,
                          grid_hint=max(q.grid_hint for q in paths),
                          label="(" + "|".join(q.label for q in paths) + ")",
                          factors=[f for q in paths for f in q.factors])


def twist(P: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """P exp(a J) for each matrix P of the stack (m, 2n, 2n) and its angle a.

    exp(a J) = cos(a) I + sin(a) J turns every plane by a, so columns k and
    n + k of P mix as a rotation, without forming exp(a J).
    """
    n = P.shape[-1] // 2
    c, s = np.cos(angles)[:, None, None], np.sin(angles)[:, None, None]
    lo, hi = P[..., :n], P[..., n:]
    return np.concatenate([c * lo + s * hi, c * hi - s * lo], axis=-1)


def twisted_path(p: SymplecticPath, eps: float, sign: int) -> SymplecticPath:
    """gamma(t) exp(sign eps (t/tau) J), the rotational regularization.

    The coefficient gains sign*(eps/tau) (J gamma)(J gamma)^T, a definite
    term, which makes endpoint and frozen-arc degeneracies transversal.
    exp(s J) turns every plane by s, so the twist of a diamond product is
    the diamond product of the twisted factors; those are its factors.
    """
    n, tau = p.n, p.tau
    J = standard_J(n)
    rate = sign * eps / tau

    def values(ts):
        return twist(p.values(ts), rate * ts)

    def sform(ts, side):
        G = J @ p.values(ts)
        return p.sforms(ts, side) + rate * (G @ G.transpose(0, 2, 1))

    factors = ([twisted_path(f, eps, sign) for f in p.factors]
               if len(p.factors) > 1 else None)
    return SymplecticPath(n, tau, values, sform_fn=sform,
                          seams=p.seams, grid_hint=p.grid_hint,
                          label=f"{p.label}~tw({sign * eps:.1e})",
                          factors=factors)


# ---------------------------------------------------------------------------
# paths from matrices and samples
# ---------------------------------------------------------------------------

_ROT_CANDIDATES = tuple(np.linspace(0.0, np.pi, 25))


def normal_form_path(M: np.ndarray) -> SymplecticPath:
    """A smooth symplectic path on [0, 1] from I to M.

    Uses the principal logarithm when the spectrum avoids the negative
    reals; otherwise prepends a rigid rotation factor exp(theta J) chosen
    so that exp(-theta J) M has a safe spectrum, and takes the logarithm
    of the remainder.
    """
    M = np.asarray(M, dtype=float)
    n = sympl_dim(M)
    J = standard_J(n)

    cands = np.stack([expJ(-th, n) @ M for th in _ROT_CANDIDATES])
    # distance of eigenvalue arguments from pi, guarding tiny moduli; the
    # first candidate with the largest margin wins
    margins = np.abs(np.abs(np.angle(np.linalg.eigvals(cands))) - np.pi)
    k = int(np.argmax(margins.min(axis=1)))
    mg, theta, A = float(margins[k].min()), _ROT_CANDIDATES[k], cands[k]
    if mg < 1e-4:
        raise NumericalConsistencyError(
            "could not rotate the spectrum away from the branch cut")

    from scipy.linalg import expm, logm
    L = logm(A)
    L = np.real(L)
    # project the generator onto the Hamiltonian algebra and verify
    S0 = 0.5 * ((-J @ L) + (-J @ L).T)
    L = J @ S0
    resid = np.abs(expJ(theta, n) @ expm(L) - M).max()
    if resid > 1e-8 * (1.0 + np.abs(M).max()):
        raise NumericalConsistencyError(
            f"logarithm reconstruction residual {resid:.2e}")

    core = exp_path(S0, label="log")
    if theta == 0.0:
        return core
    # exp(t theta J) solves x' = J S x with S = theta I
    rot = exp_path(theta * np.eye(2 * n), label="rotfac")
    return product_path(rot, core, label=f"nf({theta:.3g})")


def path_from_samples(ts, mats, label="samples") -> SymplecticPath:
    """Cubic-spline interpolation through sampled matrices.

    The first sample must sit at t = 0 and equal the identity.  The
    coefficient S comes from the spline derivative; accuracy is limited
    by the sampling density.
    """
    from scipy.interpolate import CubicSpline
    ts = np.asarray(ts, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if ts.ndim != 1 or len(ts) != mats.shape[0] or len(ts) < 4:
        raise DimensionError("need >= 4 samples of matching length")
    if abs(ts[0]) > 1e-12 or not np.all(np.diff(ts) > 0):
        raise DimensionError("sample times must start at 0 and increase")
    n = sympl_dim(mats[0])
    if np.abs(mats[0] - np.eye(2 * n)).max() > 1e-9:
        raise SymplecticityError("first sample must be the identity")
    spl = CubicSpline(ts, mats, axis=0)
    dspl = spl.derivative()
    J = standard_J(n)

    def sform(ts, side):
        return -J @ dspl(ts) @ np.linalg.inv(spl(ts))

    return SymplecticPath(n, float(ts[-1]), spl, sform_fn=sform,
                          grid_hint=max(96, 2 * len(ts)), label=label)
