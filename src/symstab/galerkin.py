"""Finite-mode reduction of the dual action form at a closed characteristic.

The second variation of the dual (Clarke) action functional, restricted to
zero-mean loops of period s, block-diagonalizes over trigonometric modes.
With G(t) the inverse Hessian of the quadratically rescaled Hamiltonian
along the orbit, the mode-k block in suitably rescaled coordinates is

    [[ G, J/w_k ], [ -J/w_k, G ]],      w_k = 2 pi k / s,

plus Fourier coupling between modes when G depends on t.  The Morse index
of this form equals the path index minus n.  Its nullity equals the path
nullity nu for a general path; along an autonomous orbit (the linearized
flow of a closed characteristic) it is nu + 1, the + 1 being the flow
direction.  Conjugating G by a constant rotation relabels the mode basis
and leaves index and nullity unchanged.

A callable G is sampled only as finely as its spectrum needs.  The
transform starts from 32 points per period and doubles until every
harmonic h with Nt/4 <= |h| <= Nt/2 lies at or below the transform's
rounding floor, the standard truncation test of a Fourier series; each
doubling samples only the new odd points.  The ceiling is the fixed
grid Nt = max(512, 2^ceil(log2(8K + 8))): a G that never resolves gets
that transform, bit for bit.  A resolved spectrum is zero-padded to the
ceiling's length, so the layout choice and the certificate below read it
as they read the full one.  Aliasing is assumed away: a harmonic beyond the
resolved band is taken as zero, as one beyond the ceiling's band always
is.  Along the plane circles of a `SurfaceSpec` surface G is constant, so
32 points resolve it.  The memo of G in `stabilized_index` is exact: the
grids of all levels and all K share their points bit for bit.

Modes k and k' couple only through the harmonics k - k' and k + k' of G,
so the form has one of two layouts.  When no harmonic 0 < |h| <= 2K lies
above the transform's rounding floor, G reads as constant: those
harmonics are zeroed, and every mode is its own 4n x 4n block.  Along the
plane circles of a `SurfaceSpec` surface G is constant in t, since the
quartic terms depend only on the |z_l|^2.  Otherwise the whole form is
one dense block and nothing is dropped.  The certificate: the form is the
compression of multiplication by G onto an orthonormal basis, so the
zeroed part has norm at most delta, the sum of the zeroed coefficient
norms.  `morse_index_nullity` raises a `GalerkinError` carrying the
margin when an eigenvalue lies within delta of the zero threshold.
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
# samples per period the resolved transform of a callable G starts from
_NT_START = 32
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

    `blocks` is (K, 4n, 4n), one block per mode, for a G that reads as
    constant, or (1, 4nK, 4nK), the whole form, otherwise.  `delta`
    bounds the spectral norm of the coupling the per-mode layout dropped;
    it is 0 when nothing was dropped.
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


def _split(Ghat: np.ndarray, K: int) -> tuple[bool, float, np.ndarray]:
    """(constant, delta, Ghat): constant when none of the harmonics
    0 < |h| <= 2K that the K-mode form reads lies above the rounding
    floor.  Then they are zeroed, and delta sums their Frobenius norms:
    the zeroed part is the compression of multiplication by their real
    loop.  Otherwise Ghat is kept whole and delta is 0.
    """
    Nt = len(Ghat)
    h = np.arange(-2 * K, 2 * K + 1)
    h = h[h != 0]
    norms = np.linalg.norm(Ghat[h % Nt], axis=(1, 2))
    if (norms > _drop_floor(Ghat[0], Nt)).any():
        return False, 0.0, Ghat
    Ghat = Ghat.copy()
    Ghat[h % Nt] = 0.0
    return True, float(norms.sum()), Ghat


def _class_blocks(Ghat: np.ndarray, modes: np.ndarray, w: np.ndarray,
                  ) -> np.ndarray:
    """Blocks of C classes of Kc modes each; modes is (C, Kc), ascending
    per row, and w their frequencies.  Layout per class: d x d blocks,
    0..Kc-1 for the -sin coefficients of its modes, Kc..2Kc-1 for the cos
    ones, stored for all pairs a <= b and mirrored."""
    Nt, d = Ghat.shape[:2]
    C, Kc = modes.shape
    J = standard_J(d // 2)
    M = np.zeros((C, 2 * d * Kc, 2 * d * Kc))
    B = M.reshape(C, 2 * Kc, d, 2 * Kc, d)   # B[c, p, :, q, :]: block (p, q)
    c = np.arange(C)[:, None]
    a, b = np.triu_indices(Kc)                # block pairs a <= b
    ka, kb = modes[:, a], modes[:, b]
    dif, tot = (ka - kb) % Nt, (ka + kb) % Nt

    def put(p, q, val):   # val at (p, q), val.T at (q, p); on p == q val wins
        B[c, q, :, p, :] = val.transpose(0, 1, 3, 2)
        B[c, p, :, q, :] = val

    re_dif, re_tot = Ghat.real[dif], Ghat.real[tot]
    put(a, b, re_dif - re_tot)                       # (-sin_a, -sin_b)
    put(Kc + a, Kc + b, re_dif + re_tot)             # (cos_a, cos_b)
    del re_dif, re_tot
    im_tot = Ghat.imag[tot]
    put(a, Kc + b, im_tot + Ghat.imag[dif])          # (-sin_a, cos_b)
    put(b, Kc + a, im_tot + Ghat.imag[(kb - ka) % Nt])  # (-sin_b, cos_a)
    del im_tot
    i = np.arange(Kc)
    B[c, i, :, Kc + i, :] += J / w[:, :, None, None]
    B[c, Kc + i, :, i, :] = B[c, i, :, Kc + i, :].transpose(0, 1, 3, 2)
    return 0.5 * (M + M.transpose(0, 2, 1))


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


def _resolved_transform(G, s: float, d: int, Nt_max: int) -> np.ndarray:
    """FFT coefficients of G on [0, s), Ghat[m] ~ (1/s) int G e^{-i w_m t},
    of length Nt_max: from the coarsest grid of _NT_START * 2^j points
    whose harmonics Nt/4 <= |h| <= Nt/2 lie at or below its rounding
    floor, zero-padded, with the Nyquist coefficient split evenly between
    +-Nt/2; or, if no coarser grid resolves, the Nt_max-point transform."""
    def sample(ts):
        Gs = np.stack([np.asarray(G(t), float) for t in ts])
        if Gs.shape != (len(ts), d, d):
            raise GalerkinError(
                f"G(t) returned shape {Gs.shape[1:]}, expected {(d, d)}")
        return _checked(Gs, "G(t)")

    Nt = _NT_START
    Gs = sample(np.arange(Nt) * (s / Nt))
    while True:
        Ghat = np.fft.fft(Gs, axis=0) / Nt
        if Nt == Nt_max:
            return Ghat
        band = np.linalg.norm(Ghat[Nt // 4:3 * Nt // 4 + 1], axis=(1, 2))
        if band.max() <= _drop_floor(Ghat[0], Nt):
            break
        # k (s / Nt) = 2k (s / 2Nt) exactly: the old points are the even ones
        Nt *= 2
        odd = sample(np.arange(1, Nt, 2) * (s / Nt))
        Gs = np.stack((Gs, odd), axis=1).reshape(Nt, d, d)
    h = Nt // 2
    full = np.zeros((Nt_max, d, d), complex)
    full[:h] = Ghat[:h]
    full[Nt_max - h + 1:] = Ghat[h + 1:]
    full[h] = full[-h] = 0.5 * Ghat[h]
    return full


def assemble_dual_form(G, s: float, n: int, K: int) -> DualForm:
    """Build the K-mode quadratic form for inverse-Hessian loop G.

    G may be a constant (2n, 2n) symmetric matrix, whose only harmonic is
    0, or a callable t -> matrix on [0, s), whose harmonics are read from
    the resolved transform of the module docstring: as few as 32 samples
    when G's spectrum allows, at most Nt = max(512, 2^ceil(log2(8K + 8))).
    A non-finite or asymmetric G, or a period s that is not finite and
    positive, raises a GalerkinError.  The layout is the one `_split`
    picks: one block per mode when G reads as constant, one dense block
    otherwise.
    """
    d = 2 * n
    w = mode_frequencies(s, K)
    Nt = max(512, 1 << int(np.ceil(np.log2(8 * K + 8))))
    if callable(G):
        Ghat = _resolved_transform(G, s, d, Nt)
    else:
        G0 = np.asarray(G, float)
        if G0.shape != (d, d):
            raise GalerkinError(f"G has shape {G0.shape}, expected {(d, d)}")
        Ghat = np.zeros((Nt, d, d), complex)
        Ghat[0] = _checked(G0[None], "G")[0]
    constant, delta, Ghat = _split(Ghat, K)
    k = np.arange(1, K + 1)
    modes = k[:, None] if constant else k[None]
    blocks = _class_blocks(Ghat, modes, w[modes - 1])
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
        # sample G once per grid point t_k = k s / Nt: every K reads the
        # same coarse grids of the resolved transform first, and a finer
        # grid's even points equal the coarser one's bit for bit, as
        # 2k (s / 2Nt) = k (s / Nt) exactly
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
