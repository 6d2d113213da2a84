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
    """Assembled quadratic form; either per-mode blocks or one dense matrix."""

    s: float
    n: int
    K: int
    blocks: np.ndarray | None = None   # (K, 4n, 4n) when modes decouple
    dense: np.ndarray | None = None    # (4nK, 4nK) otherwise

    def eigenvalues(self) -> np.ndarray:
        if self.blocks is not None:
            return np.sort(np.linalg.eigvalsh(self.blocks).ravel())
        return np.linalg.eigvalsh(self.dense)


def _per_mode_blocks(G0: np.ndarray, s: float, K: int) -> np.ndarray:
    d = G0.shape[0]
    J = standard_J(d // 2)
    w = mode_frequencies(s, K)
    blocks = np.zeros((K, 2 * d, 2 * d))
    blocks[:, :d, :d] = G0
    blocks[:, d:, d:] = G0
    blocks[:, :d, d:] = J / w[:, None, None]
    blocks[:, d:, :d] = -J / w[:, None, None]
    return blocks


def assemble_dual_form(G, s: float, n: int, K: int) -> DualForm:
    """Build the K-mode quadratic form for inverse-Hessian loop G.

    G may be a constant (2n, 2n) symmetric matrix or a callable t -> matrix
    on [0, s).  The callable case assembles the dense matrix through FFT
    coefficients of G on Nt = max(512, 2^ceil(log2(8K + 8))) points.  Dense
    layout: d x d blocks, 0..K-1 for the -sin coefficients of modes 1..K,
    K..2K-1 for the cos ones, stored for all pairs a <= b and mirrored.
    """
    d = 2 * n
    if not callable(G):
        G0 = np.asarray(G, float)
        if G0.shape != (d, d):
            raise GalerkinError(f"G has shape {G0.shape}, expected {(d, d)}")
        return DualForm(s=s, n=n, K=K, blocks=_per_mode_blocks(G0, s, K))

    Nt = max(512, 1 << int(np.ceil(np.log2(8 * K + 8))))
    ts = np.arange(Nt) * (s / Nt)
    Gs = np.stack([np.asarray(G(t), float) for t in ts])
    if Gs.shape != (Nt, d, d):
        raise GalerkinError(f"G(t) returned shape {Gs.shape[1:]}, expected {(d, d)}")
    Ghat = np.fft.fft(Gs, axis=0) / Nt   # Ghat[m] ~ (1/s) int G e^{-i w_m t}

    J, w = standard_J(n), mode_frequencies(s, K)
    M = np.zeros((2 * d * K, 2 * d * K))
    B = M.reshape(2 * K, d, 2 * K, d)   # B[p, :, q, :] is block (p, q) of M
    a, b = np.triu_indices(K)           # block pairs a <= b, modes a+1, b+1
    dif, tot = (a - b) % Nt, (a + b + 2) % Nt

    def put(p, q, val):   # val at (p, q), val.T at (q, p); on p == q val wins
        B[q, :, p, :] = val.transpose(0, 2, 1)
        B[p, :, q, :] = val

    re_dif, re_tot = Ghat.real[dif], Ghat.real[tot]
    put(a, b, re_dif - re_tot)                     # (-sin_a, -sin_b)
    put(K + a, K + b, re_dif + re_tot)             # (cos_a, cos_b)
    del re_dif, re_tot
    im_tot = Ghat.imag[tot]
    put(a, K + b, im_tot + Ghat.imag[dif])         # (-sin_a, cos_b)
    put(b, K + a, im_tot + Ghat.imag[(b - a) % Nt])  # (-sin_b, cos_a)
    del im_tot
    i = np.arange(K)
    B[i, :, K + i, :] += J / w[:, None, None]
    B[K + i, :, i, :] = B[i, :, K + i, :].transpose(0, 2, 1)

    M = 0.5 * (M + M.T)
    return DualForm(s=s, n=n, K=K, dense=M)


def morse_index_nullity(form: DualForm) -> tuple[int, int]:
    """Count negative and near-zero eigenvalues of the assembled form."""
    vals = form.eigenvalues()
    thr = _ZERO_TOL * max(1.0, float(np.abs(vals).max()))
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
