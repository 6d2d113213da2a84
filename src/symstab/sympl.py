"""Symplectic linear algebra primitives.

Conventions used throughout the package:

* phase space is R^(2n) with coordinates (x_1..x_n, y_1..y_n),
* the standard symplectic matrix is J = [[0, -I], [I, 0]],
* plane j (0-based) of a block product occupies global coordinates
  (j, n + j).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError

__all__ = [
    "standard_J",
    "expJ",
    "rotation2",
    "sympl_dim",
    "symplectic_residual",
    "diamond",
    "diamond_all",
    "plane_embedding",
    "resymplectify",
    "random_symplectic",
    "D_block",
    "N1_block",
    "R_block",
    "N2_block",
]

# Newton projection onto Sp(2n): step limit and the residual it stops at
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-13


def _positive_int(value, need: str) -> int:
    """value as an int; DimensionError unless it is an integer >= 1 (a
    float or a string is no integer)."""
    try:
        k = operator.index(value)
    except TypeError:
        k = 0
    if k < 1:
        raise DimensionError(f"{need} >= 1, got {value!r}")
    return k


def standard_J(n: int) -> np.ndarray:
    """J_2n with block rows [0, -I; I, 0]."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def expJ(s: float, n: int = 1) -> np.ndarray:
    """exp(s J_2n) = cos(s) I + sin(s) J, a rigid rotation of every plane."""
    return np.cos(s) * np.eye(2 * n) + np.sin(s) * standard_J(n)


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sympl_dim(M: np.ndarray) -> int:
    """Half-dimension n of a 2n x 2n matrix, with shape validation."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] % 2 or M.shape[0] == 0:
        raise DimensionError(f"expected even size >= 2, got {M.shape[0]}")
    return M.shape[0] // 2


def symplectic_residual(M: np.ndarray) -> float:
    """max-norm of M^T J M - J."""
    n = sympl_dim(M)
    J = standard_J(n)
    return float(np.abs(M.T @ J @ M - J).max())


def plane_embedding(n_parts: tuple[int, ...]) -> np.ndarray:
    """Index permutation realizing the block product.

    For parts of half-dimensions (n_1, ..., n_k), returns ``idx`` such that
    ``big[np.ix_(idx, idx)] = block_diag(parts)`` produces the product in
    global (x-block, y-block) coordinates.
    """
    n = sum(n_parts)
    idx = []
    off = 0
    for ni in n_parts:
        idx.extend(range(off, off + ni))              # x rows of this part
        idx.extend(range(n + off, n + off + ni))      # y rows of this part
        off += ni
    return np.asarray(idx)


def diamond(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    """Symplectic direct sum of two blocks, interleaved into global coordinates.

    Satisfies J_2(n1+n2) = diamond(J_2n1, J_2n2) and spectrum(result) =
    spectrum(M1) union spectrum(M2).
    """
    return diamond_all([M1, M2])


def diamond_all(mats) -> np.ndarray:
    mats = [np.asarray(M, dtype=float) for M in mats]
    if not mats:
        raise DimensionError("empty block list")
    parts = tuple(sympl_dim(M) for M in mats)
    n = sum(parts)
    idx = plane_embedding(parts)
    out = np.zeros((2 * n, 2 * n))
    off = 0
    for ni, M in zip(parts, mats):
        sl = idx[2 * off:2 * (off + ni)]
        out[np.ix_(sl, sl)] = M
        off += ni
    return out


def resymplectify(W: np.ndarray) -> np.ndarray:
    """Project W back onto Sp(2n) by Newton steps W <- W(I + J E / 2).

    E = W^T J W - J is skew, the update cancels it to first order and the
    iteration converges quadratically for W near the group: at most
    _NEWTON_STEPS steps, stopping once max|E| <= _NEWTON_TOL.
    """
    n = sympl_dim(W)
    J = standard_J(n)
    I = np.eye(2 * n)
    W = np.array(W, dtype=float)
    for _ in range(_NEWTON_STEPS):
        E = W.T @ J @ W - J
        r = np.abs(E).max()
        if r <= _NEWTON_TOL:
            break
        W = W @ (I + 0.5 * (J @ E))
    return W


def random_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Product of two exp(J S_i) with random symmetric S_i, scaled by 0.7
    to stay well-conditioned."""
    from scipy.linalg import expm
    J = standard_J(n)
    M = np.eye(2 * n)
    for _ in range(2):
        A = rng.standard_normal((2 * n, 2 * n))
        S = 0.7 * (A + A.T) / (2 * np.sqrt(2 * n))
        M = M @ expm(J @ S)
    return resymplectify(M)


# ---------------------------------------------------------------------------
# basic block catalogue
# ---------------------------------------------------------------------------

def D_block(lam: float) -> np.ndarray:
    """Hyperbolic block diag(lam, 1/lam), |lam| != 0, 1."""
    if lam == 0 or abs(abs(lam) - 1.0) < 1e-12:
        raise DimensionError(f"hyperbolic block needs |lam| not in {{0,1}}, got {lam}")
    return np.diag([lam, 1.0 / lam])


def N1_block(lam: float, b: float) -> np.ndarray:
    """Shear block [[lam, b], [0, lam]] with lam in {1, -1}."""
    if lam not in (1.0, -1.0, 1, -1):
        raise DimensionError(f"shear block needs lam = +-1, got {lam}")
    return np.array([[float(lam), float(b)], [0.0, float(lam)]])


def R_block(theta: float) -> np.ndarray:
    return rotation2(theta)


def N2_block(theta: float, trivial: bool) -> np.ndarray:
    """4x4 non-semisimple block for a double eigenvalue exp(i theta).

    [[R(theta), b], [0, R(theta)]] with b = sigma * R(theta), which is
    symplectic for every theta.  sigma = -1 gives the trivial variant,
    sigma = +1 the nontrivial one; the two are not symplectically conjugate.
    """
    if abs(np.sin(theta)) < 1e-12:
        raise DimensionError("double-eigenvalue rotation block needs sin(theta) != 0")
    R = rotation2(theta)
    sigma = -1.0 if trivial else 1.0
    M = np.zeros((4, 4))
    M[:2, :2] = R
    M[2:, 2:] = R
    M[:2, 2:] = sigma * R
    return M
