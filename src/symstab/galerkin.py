"""Finite-mode reduction of the dual action form at a closed characteristic.

The second variation of the dual (Clarke) action functional, restricted to
zero-mean loops of period s, block-diagonalizes over trigonometric modes.
With G the inverse Hessian of the quadratically rescaled Hamiltonian along
the orbit, constant in t, every mode is its own block; in suitably
rescaled coordinates the mode-k block is

    [[ G, J/w_k ], [ -J/w_k, G ]],      w_k = 2 pi k / s.

The Morse index of this form equals the path index minus n.  Its nullity
equals the path nullity nu for a general path; along an autonomous orbit
(the linearized flow of a closed characteristic) it is nu + 1, the + 1
being the flow direction.  Conjugating G by a constant rotation relabels
the mode basis and leaves index and nullity unchanged.

Along the plane circles of a `SurfaceSpec` surface G is constant in t,
since the quartic terms depend only on the |z_l|^2.  A callable G is
sampled once, at 32 points per period, and read as its mean G0.  It is
accepted only when that transform shows it constant: every harmonic
8 <= |h| <= 16 lies at or below the transform's rounding floor, the
standard truncation test of a Fourier series, and every harmonic
0 < |h| <= 2K at or below the looser floor of an Nt = max(512,
2^ceil(log2(8K + 8)))-point transform, one fine enough for K modes.
Otherwise a `GalerkinError` carries the floor minus the largest such
norm.  A harmonic beyond 16 is taken as zero: aliasing is assumed away.
`stabilized_index` memoises G, so all its K read the same 32 samples.

The certificate: the form is the compression of multiplication by G onto
an orthonormal basis, so the harmonics the per-mode form drops have norm
at most delta, the sum of their coefficient norms, with the Nyquist
coefficient split evenly between +-16.  `morse_index_nullity` raises a
`GalerkinError` carrying the margin when an eigenvalue lies within delta
of the zero threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import GalerkinError, ResonantFormError
from .sympl import standard_J

TWO_PI = 2.0 * np.pi
# eigenvalues within _ZERO_TOL of 0, relative to the largest, are kernel
_ZERO_TOL = 1e-7
# mode-count doublings `stabilized_index` tries before it gives up
_MAX_DOUBLINGS = 6
# a period ratio within _RESONANCE_TOL (relative) of an integer resonates
_RESONANCE_TOL = 1e-9
# samples per period of a callable G
_SAMPLES = 32
# G whose asymmetry exceeds _SYM_TOL times its largest entry is refused
_SYM_TOL = 1e-8


def _checked_period(s: float) -> float:
    """s, unless it is not a finite positive period."""
    if not (np.isfinite(s) and s > 0):
        raise GalerkinError(f"period must be finite and positive, got {s}")
    return s


def mode_frequencies(s: float, K: int) -> np.ndarray:
    _checked_period(s)
    if K < 1:
        raise GalerkinError(f"need at least one mode, got K={K}")
    return TWO_PI * np.arange(1, K + 1) / s


@dataclass(frozen=True)
class DualForm:
    """Assembled quadratic form as a stack of blocks.

    `blocks` is (K, 4n, 4n), one block per mode.  `delta` bounds the
    spectral norm of the coupling the dropped harmonics of a callable G
    would add; it is 0 for a matrix G.
    """

    s: float
    n: int
    K: int
    blocks: np.ndarray
    delta: float = 0.0

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.linalg.eigvalsh(self.blocks).ravel())


def _drop_floor(c0: np.ndarray, Nt: int) -> float:
    """Rounding floor of an Nt-point transform whose mean is c0.  Each
    coefficient sums Nt samples of about the size of c0 (G is positive
    definite), and a sum of Nt terms errs by at most Nt eps times their
    size.  A real harmonic below the floor is still covered: the
    certificate in `morse_index_nullity` counts it in delta."""
    return Nt * np.finfo(float).eps * float(np.linalg.norm(c0))


def _checked(Gs: np.ndarray, what: str) -> np.ndarray:
    """Gs, a stack of G values, unless one is non-finite or asymmetric."""
    if not np.isfinite(Gs).all():
        raise GalerkinError(f"{what} has non-finite entries")
    asym = float(np.abs(Gs - Gs.transpose(0, 2, 1)).max())
    size = float(np.abs(Gs).max())
    if asym > _SYM_TOL * size:
        raise GalerkinError(f"{what} is not symmetric: |G - G^T| = "
                            f"{asym:.3e} against entries up to {size:.3e}")
    return Gs


def _refuse_above(norms: np.ndarray, floor: float, what: str) -> None:
    """A GalerkinError carrying floor - max(norms) when that is negative."""
    top = float(norms.max())
    if top > floor:
        raise GalerkinError(
            f"G(t) is not constant in t: a harmonic {what} has norm "
            f"{top:.3e}, above the rounding floor {floor:.3e}",
            margin=floor - top)


def _sampled_mean(G, s: float, d: int, K: int) -> tuple[np.ndarray, float]:
    """(G0, delta) of a callable G: its mean over the _SAMPLES points
    t_k = k s / _SAMPLES, and the summed Frobenius norms of its harmonics
    0 < |h| <= 2K, which the K-mode form drops.  A G that does not read
    as constant by the two tests of the module docstring raises a
    GalerkinError carrying the margin."""
    Nt = _SAMPLES
    Gs = np.stack([np.asarray(G(t), float) for t in np.arange(Nt) * (s / Nt)])
    if Gs.shape != (Nt, d, d):
        raise GalerkinError(
            f"G(t) returned shape {Gs.shape[1:]}, expected {(d, d)}")
    Ghat = np.fft.fft(_checked(Gs, "G(t)"), axis=0) / Nt
    norms = np.linalg.norm(Ghat, axis=(1, 2))
    _refuse_above(norms[Nt // 4:3 * Nt // 4 + 1], _drop_floor(Ghat[0], Nt),
                  f"{Nt // 4} <= |h| <= {Nt // 2}")
    norms[Nt // 2] *= 0.5     # the Nyquist coefficient, split between +-Nt/2
    h = np.arange(-2 * K, 2 * K + 1)
    h = h[h != 0]
    dropped = np.where(np.abs(h) <= Nt // 2, norms[h % Nt], 0.0)
    Nt_K = max(512, 1 << int(np.ceil(np.log2(8 * K + 8))))
    _refuse_above(dropped, _drop_floor(Ghat[0], Nt_K), f"0 < |h| <= {2 * K}")
    return Ghat[0].real, float(dropped.sum())


def assemble_dual_form(G, s: float, n: int, K: int) -> DualForm:
    """Build the K-mode quadratic form for inverse-Hessian loop G.

    G may be a constant (2n, 2n) symmetric matrix, or a callable
    t -> matrix on [0, s) that is constant in t; a callable is read from
    32 samples as the module docstring describes.  A non-finite,
    asymmetric or varying G, or a period s that is not finite and
    positive, raises a GalerkinError.
    """
    d = 2 * n
    w = mode_frequencies(s, K)
    if callable(G):
        G0, delta = _sampled_mean(G, s, d, K)
    else:
        G0 = np.asarray(G, float)
        if G0.shape != (d, d):
            raise GalerkinError(f"G has shape {G0.shape}, expected {(d, d)}")
        G0, delta = _checked(G0[None], "G")[0], 0.0
    Jw = standard_J(n) / w[:, None, None]
    M = np.empty((K, 2 * d, 2 * d))
    M[:, :d, :d] = M[:, d:, d:] = G0
    M[:, :d, d:] = Jw
    M[:, d:, :d] = Jw.transpose(0, 2, 1)     # -J/w_k, as J^T = -J
    blocks = 0.5 * (M + M.transpose(0, 2, 1))
    return DualForm(s=s, n=n, K=K, blocks=blocks, delta=delta)


def morse_index_nullity(form: DualForm) -> tuple[int, int]:
    """Count negative and near-zero eigenvalues of the assembled form.

    A dropped part of norm delta moves each eigenvalue by at most delta
    (Weyl) and the threshold thr by at most _ZERO_TOL delta, so an
    eigenvalue that close to +-thr raises a GalerkinError with the margin.
    """
    vals = form.eigenvalues()
    thr = _ZERO_TOL * max(1.0, float(np.abs(vals).max()))
    if form.delta > 0:
        margin = float(np.abs(np.abs(vals) - thr).min()) \
            - form.delta * (1.0 + _ZERO_TOL)
        if margin <= 0:
            raise GalerkinError(
                f"per-mode layout dropped a coupling of norm "
                f"{form.delta:.3e}, which could move an eigenvalue across "
                f"the zero threshold {thr:.3e} (margin {margin:.3e})",
                margin=margin)
    null = int(np.sum(np.abs(vals) <= thr))
    neg = int(np.sum(vals < -thr))
    return neg, null


def stabilized_index(G, s: float, n: int) -> tuple[int, int, int]:
    """Morse index and nullity, with K doubled from max(8, ceil(2 s))
    until both counts repeat.

    Returns (index, nullity, K) for the first stable mode count.
    """
    if callable(G):
        # every K samples G at the same points t_k = k s / _SAMPLES
        G = functools.cache(G)
    K = max(8, int(np.ceil(2.0 * _checked_period(s))))
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        form = assemble_dual_form(G, s, n, K)
        cur = morse_index_nullity(form)
        if prev is not None and cur == prev:
            return cur[0], cur[1], K
        prev = cur
        K *= 2
    raise GalerkinError(
        f"index did not stabilize up to K={K // 2} (last counts {prev})")


def constant_form_index(s: float, rho: float, n: int) -> int:
    """Closed-form Morse index of the dual form on a round level set.

    With G = (rho^2/2) I, mode k is negative exactly when k < s / (pi rho^2);
    the index is 2n times that count.  An integer ratio means a resonant,
    degenerate form and is rejected.
    """
    ratio = s / (np.pi * rho * rho)
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= _RESONANCE_TOL * max(1.0, ratio):
        raise ResonantFormError(
            f"period s={s:.6g} resonates with the rho={rho:.6g} level set")
    return 2 * n * int(np.floor(ratio))
