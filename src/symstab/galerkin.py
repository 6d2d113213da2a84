"""Finite-mode reduction of the dual action form at a closed characteristic.

The second variation of the dual (Clarke) action functional, restricted to
zero-mean loops of period s, block-diagonalizes over trigonometric modes.
With G(t) the inverse Hessian of the quadratically rescaled Hamiltonian
along the orbit, the mode-k block in suitably rescaled coordinates is

    [[ G, J/w_k ], [ -J/w_k, G ]],      w_k = 2 pi k / s,

plus Fourier coupling between modes when G depends on t.  The Morse index
of this form equals the path index minus n, and its nullity equals the
path nullity plus one.  Conjugating G by a constant rotation relabels the
mode basis and leaves index and nullity unchanged.  The memo of G in
`stabilized_index` is exact: its doublings share grid points bit for bit.

Modes k and k' couple only through the harmonics k - k' and k + k' of G.
When every harmonic G carries is a multiple of g, modes p and q couple
only if p = +-q (mod g), so the form splits into residue classes mod g
(the Bott formula on the Galerkin side), and each class is assembled and
diagonalized as its own block.  `assemble_dual_form` keeps the harmonics
above the transform's rounding floor, takes g as their gcd and zeros the
rest; g = 1 leaves one block, the whole form, bit for bit.  A constant G
keeps harmonic 0 alone, so every mode is its own class.  Along the plane
circles of a `SurfaceSpec` surface G is constant in t, since the quartic
terms depend only on the |z_l|^2.  The certificate: the form is the
compression of multiplication by G onto an orthonormal basis, so the
zeroed part has norm at most delta, the sum of the zeroed coefficient
norms.  `morse_index_nullity` raises a `GalerkinError` carrying the
margin when a class eigenvalue lies within delta of the zero threshold.
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


def mode_frequencies(s: float, K: int) -> np.ndarray:
    if s <= 0:
        raise GalerkinError(f"period must be positive, got {s}")
    if K < 1:
        raise GalerkinError(f"need at least one mode, got K={K}")
    return TWO_PI * np.arange(1, K + 1) / s


@dataclass(frozen=True)
class DualForm:
    """Assembled quadratic form as residue-class blocks.

    `blocks` holds one (C, 4n Kc, 4n Kc) stack per class size Kc, each
    class in the dense layout of `assemble_dual_form` restricted to its
    modes.  `delta` bounds the spectral norm of the coupling the split
    dropped; it is 0 when nothing was dropped.
    """

    s: float
    n: int
    K: int
    blocks: tuple[np.ndarray, ...]
    delta: float = 0.0

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate(
            [np.linalg.eigvalsh(b).ravel() for b in self.blocks]))


def _drop_floor(c0: np.ndarray, Nt: int) -> float:
    """Rounding floor of an Nt-point transform whose mean is c0.  Each
    coefficient sums Nt samples of about the size of c0 (G is positive
    definite), and a sum of Nt terms errs by at most Nt eps times their
    size.  A real harmonic below the floor is still covered: the
    certificate in `morse_index_nullity` counts it in delta."""
    return Nt * np.finfo(float).eps * float(np.linalg.norm(c0))


def _split(Ghat: np.ndarray, K: int) -> tuple[int, float, np.ndarray]:
    """(g, delta, Ghat with every harmonic off the multiples of g zeroed).

    The K-mode form reads the harmonics -(K-1)..2K.  g is the gcd of those
    above the rounding floor, or 2K + 1 when none is, which leaves every
    mode its own class.  The zeroed part is the compression of
    multiplication by the real loop of the zeroed harmonics and their
    conjugates, so delta sums the Frobenius norms of all of them.
    """
    Nt = len(Ghat)
    h = np.arange(-2 * K, 2 * K + 1)
    norms = np.linalg.norm(Ghat[h % Nt], axis=(1, 2))
    kept = h[(h != 0) & (norms > _drop_floor(Ghat[0], Nt))]
    g = int(np.gcd.reduce(np.abs(kept))) or 2 * K + 1
    off = h % g != 0
    if off.any():
        Ghat = Ghat.copy()
        Ghat[h[off] % Nt] = 0.0
    return g, float(norms[off].sum()), Ghat


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


def assemble_dual_form(G, s: float, n: int, K: int) -> DualForm:
    """Build the K-mode quadratic form for inverse-Hessian loop G.

    G may be a constant (2n, 2n) symmetric matrix, whose only harmonic is
    0, or a callable t -> matrix on [0, s), whose harmonics are the FFT
    coefficients of G on Nt = max(512, 2^ceil(log2(8K + 8))) points.  The
    form splits into the residue classes mod g of `_split`, one block
    each; with g = 1 the one block is the whole form.
    """
    d = 2 * n
    w = mode_frequencies(s, K)
    Nt = max(512, 1 << int(np.ceil(np.log2(8 * K + 8))))
    if callable(G):
        ts = np.arange(Nt) * (s / Nt)
        Gs = np.stack([np.asarray(G(t), float) for t in ts])
        if Gs.shape != (Nt, d, d):
            raise GalerkinError(
                f"G(t) returned shape {Gs.shape[1:]}, expected {(d, d)}")
        Ghat = np.fft.fft(Gs, axis=0) / Nt   # Ghat[m] ~ (1/s) int G e^{-i w_m t}
    else:
        G0 = np.asarray(G, float)
        if G0.shape != (d, d):
            raise GalerkinError(f"G has shape {G0.shape}, expected {(d, d)}")
        Ghat = np.zeros((Nt, d, d), complex)
        Ghat[0] = G0
    g, delta, Ghat = _split(Ghat, K)

    # modes p, q share a class iff p = +-q (mod g); group the classes by
    # size so that each size is one batched assembly
    k = np.arange(1, K + 1)
    cls = np.minimum(k % g, -k % g)
    size = np.bincount(cls)[cls]
    modes = k[np.lexsort((k, cls, size))]
    blocks, start = [], 0
    for Kc in np.unique(size):
        stop = start + int(np.count_nonzero(size == Kc))
        group = modes[start:stop].reshape(-1, Kc)
        blocks.append(_class_blocks(Ghat, group, w[group - 1]))
        start = stop
    return DualForm(s=s, n=n, K=K, blocks=tuple(blocks), delta=delta)


def morse_index_nullity(form: DualForm) -> tuple[int, int]:
    """Count negative and near-zero eigenvalues of the assembled form.

    A dropped part of norm delta moves each eigenvalue by at most delta
    (Weyl) and the threshold thr by at most _ZERO_TOL delta, so a class
    eigenvalue that close to +-thr raises a GalerkinError with the margin.
    """
    vals = form.eigenvalues()
    thr = _ZERO_TOL * max(1.0, float(np.abs(vals).max()))
    if form.delta > 0:
        margin = float(np.abs(np.abs(vals) - thr).min()) \
            - form.delta * (1.0 + _ZERO_TOL)
        if margin <= 0:
            raise GalerkinError(
                f"class split dropped a coupling of norm {form.delta:.3e}, "
                f"which could move an eigenvalue across the zero threshold "
                f"{thr:.3e} (margin {margin:.3e})", margin=margin)
    null = int(np.sum(np.abs(vals) <= thr))
    neg = int(np.sum(vals < -thr))
    return neg, null


def stabilized_index(G, s: float, n: int) -> tuple[int, int, int]:
    """Morse index and nullity, with K doubled from max(8, ceil(2 s))
    until both counts repeat.

    Returns (index, nullity, K) for the first stable mode count.
    """
    if callable(G):
        # sample G once per grid point t_k = k s / Nt, Nt = max(512,
        # 2^ceil(log2(8K + 8))): for K <= 63 every doubling reuses the same 512
        # points, and when Nt doubles the even points of the new grid equal the
        # old ones bit for bit, as 2k (s / 2Nt) = k (s / Nt) exactly
        G = functools.cache(G)
    K = max(8, int(np.ceil(2.0 * s)))
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


def constant_form_bounds(s: float, r: float, R: float, n: int,
                         ) -> tuple[int, int]:
    """Index bounds from enclosing radii r <= |x| <= R on the level set.

    Domination of inverse Hessians gives i(R-ball) <= i <= i(r-ball) for
    the dual-form (orbit convention) index at period s.
    """
    if not 0 < r <= R:
        raise GalerkinError(f"need 0 < r <= R, got r={r}, R={R}")
    return constant_form_index(s, R, n), constant_form_index(s, r, n)
