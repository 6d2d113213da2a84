"""Unit-circle spectral analysis of symplectic matrices.

Clusters eigenvalues on the unit circle, measures algebraic/geometric
multiplicities, computes Krein signatures, and identifies the block
structure (identity planes, shears, rotations, double-rotation blocks)
needed for stability classification and splitting numbers.

Supported block catalogue: eigenvalue +-1 with Jordan chains of length
at most two, rotation eigenvalues of geometric defect at most one, and
arbitrary off-circle spectrum.  Longer Jordan chains raise
UnsupportedNormalForm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, NumericalConsistencyError,
                     UnsupportedNormalForm)
from .sympl import standard_J, sympl_dim

__all__ = [
    "SplittingPair",
    "ClusterInfo",
    "SpectralSummary",
    "spectral_summary",
    "splitting_table",
    "krein_gram",
]

TWO_PI = 2.0 * np.pi
# angular width that merges eigenvalues into one cluster; it must exceed
# the O(sqrt(eps)) splitting of defective pairs
_ANGLE_TOL = 1e-5
# relative singular-value threshold for kernel dimensions
_RANK_TOL = 1e-6
# angular distance within which `cluster_at` reads omega as a cluster
_CLUSTER_TOL = 1e-6
# omega whose modulus is farther than _ON_CIRCLE_TOL from 1 is refused
_ON_CIRCLE_TOL = 1e-6


@dataclass(frozen=True)
class SplittingPair:
    plus: int
    minus: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.plus, self.minus)


@dataclass
class ClusterInfo:
    """One unit-circle eigenvalue cluster, reported at angle in [0, pi].

    Complex clusters stand for the conjugate pair {omega, conj(omega)};
    multiplicities refer to omega alone.  Rotation blocks with angle in
    (0, pi) are counted in ``rot_upper``, their reflections through the
    real axis in ``rot_lower``.
    """

    omega: complex
    angle: float
    alg: int
    geo: int
    krein: tuple[int, int]
    planes_id: int = 0
    shear_pos: int = 0
    shear_neg: int = 0
    rot_upper: int = 0
    rot_lower: int = 0
    n2_trivial: int = 0
    n2_nontrivial: int = 0

    @property
    def is_real(self) -> bool:
        return abs(self.omega.imag) == 0.0


@dataclass
class SpectralSummary:
    n: int
    clusters: list[ClusterInfo] = field(default_factory=list)
    off_circle: list[complex] = field(default_factory=list)

    def cluster_at(self, omega: complex) -> ClusterInfo | None:
        """Cluster owning omega (or its conjugate), None if omega is not
        in the unit-circle spectrum."""
        a = _principal_angle(omega)
        for c in self.clusters:
            if abs(_angle_dist(a, c.angle)) <= _CLUSTER_TOL:
                return c
        return None

    @property
    def elliptic_height(self) -> int:
        """Total algebraic multiplicity on the unit circle."""
        tot = 0
        for c in self.clusters:
            tot += c.alg if c.is_real else 2 * c.alg
        return tot


def _principal_angle(omega: complex) -> float:
    """Angle of omega folded into [0, pi]."""
    a = float(np.angle(omega)) % TWO_PI
    return a if a <= np.pi else TWO_PI - a


def _as_complex(omega) -> complex:
    try:
        return complex(omega)
    except (TypeError, ValueError):
        raise DimensionError(
            f"omega must be a complex number, got {omega!r}") from None


def _normalize_omega(omega) -> complex:
    """omega scaled onto the unit circle; DimensionError for what is no
    complex number or lies farther than _ON_CIRCLE_TOL from the circle."""
    w = _as_complex(omega)
    r = abs(w)
    if not abs(r - 1.0) <= _ON_CIRCLE_TOL:
        raise DimensionError(f"omega must lie on the unit circle, got {omega}")
    return w / r


def _angle_dist(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _right_null_basis(Vh: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis for the k most singular right directions, in
    columns, from the Vh of an SVD."""
    return Vh.conj().T[:, Vh.shape[0] - k:]


def krein_gram(B: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix of the Krein form kappa(x, y) = x^H (iJ) y
    on the columns of B."""
    G = 1j * (B.conj().T @ J @ B)
    return 0.5 * (G + G.conj().T)


def _signature(vals: np.ndarray, tol: float) -> tuple[int, int, int]:
    pos = int(np.sum(vals > tol))
    neg = int(np.sum(vals < -tol))
    return pos, neg, len(vals) - pos - neg


def spectral_summary(M: np.ndarray, circle_tol: float = 1e-7,
                     ) -> SpectralSummary:
    """Cluster and classify the unit-circle spectrum of M.

    circle_tol: relative distance of |lambda| from 1 below which an
        eigenvalue is snapped onto the circle.  The snap width used is
        max(circle_tol, _ANGLE_TOL): a defective pair splits by
        O(sqrt(eps cond)) across the circle as well as along it.
    """
    M = np.asarray(M, dtype=float)
    n = sympl_dim(M)
    J = standard_J(n)
    scale = max(1.0, float(np.linalg.norm(M, 2)))

    evals = np.linalg.eigvals(M)
    snap = max(circle_tol, _ANGLE_TOL)
    on_mask = np.abs(np.abs(evals) - 1.0) <= snap * np.abs(evals).clip(min=1.0)
    on = evals[on_mask]
    off = [complex(z) for z in evals[~on_mask]]

    summary = SpectralSummary(n=n, off_circle=sorted(off, key=lambda z: (abs(z), z.real, z.imag)))
    if len(on) == 0:
        return summary

    # cluster folded angles
    folded = np.array([_principal_angle(z) for z in on])
    order = np.argsort(folded)
    groups: list[list[int]] = [[order[0]]]
    for i in order[1:]:
        if folded[i] - folded[groups[-1][-1]] <= _ANGLE_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])

    for grp in groups:
        ang = float(np.mean(folded[grp]))
        if ang <= _ANGLE_TOL:
            summary.clusters.append(_classify_real(M, J, 1.0, 0.0, len(grp), scale))
        elif np.pi - ang <= _ANGLE_TOL:
            summary.clusters.append(_classify_real(M, J, -1.0, np.pi, len(grp), scale))
        else:
            if len(grp) % 2:
                raise NumericalConsistencyError(
                    f"odd number of eigenvalues in conjugate cluster at angle {ang:.6f}")
            alg = len(grp) // 2
            summary.clusters.append(_classify_rotation(M, J, ang, alg, scale))

    summary.clusters.sort(key=lambda c: c.angle)
    return summary


def _generalized_basis(M: np.ndarray, omega: complex, alg: int, scale: float,
                       ) -> np.ndarray:
    """Basis of the order-two generalized eigenspace; rejects longer chains."""
    dim = M.shape[0]
    K = M - omega * np.eye(dim)
    B = _right_null_basis(np.linalg.svd(K @ K)[2], alg)
    resid = np.linalg.norm(K @ (K @ B), 2)
    if resid > 1e3 * _RANK_TOL * scale * scale:
        raise UnsupportedNormalForm(
            f"Jordan chain of length >= 3 at eigenvalue {omega:.6g} "
            f"(residual {resid:.2e})")
    return B


def _classify_real(M: np.ndarray, J: np.ndarray, lam: float, angle: float,
                   alg: int, scale: float) -> ClusterInfo:
    if alg % 2:
        raise NumericalConsistencyError(
            f"odd algebraic multiplicity {alg} at eigenvalue {lam:+.0f}")
    dim = M.shape[0]
    K = M - lam * np.eye(dim)
    _, s_all, Vh = np.linalg.svd(K)
    geo = int(np.sum(s_all <= _RANK_TOL * scale))

    info = ClusterInfo(omega=complex(lam), angle=angle, alg=alg, geo=geo,
                       krein=(alg // 2, alg // 2))
    if geo == alg:
        info.planes_id = alg // 2
        return info

    Bg = _generalized_basis(M, lam, alg, scale)
    Bk = _right_null_basis(Vh, geo)
    # complement of the kernel inside the generalized eigenspace
    W = Bg - Bk @ (Bk.conj().T @ Bg)
    Q, sw, _ = np.linalg.svd(W, full_matrices=False)
    W = Q[:, : alg - geo].real
    F = W.T @ (J @ K) @ W
    asym = np.abs(F - F.T).max()
    if asym > 1e-6 * max(1.0, np.abs(F).max()):
        raise NumericalConsistencyError(
            f"shear-sign form not symmetric at {lam:+.0f} (asym {asym:.2e})")
    vals = np.linalg.eigvalsh(0.5 * (F + F.T))
    thr = 1e-6 * max(1.0, np.abs(vals).max())
    pos, neg, zero = _signature(vals, thr)
    if zero:
        raise UnsupportedNormalForm(
            f"degenerate shear-sign form at eigenvalue {lam:+.0f}")
    info.shear_pos, info.shear_neg = pos, neg
    info.planes_id = (2 * geo - alg) // 2
    if info.planes_id < 0:
        raise UnsupportedNormalForm(
            f"multiplicity bookkeeping failed at {lam:+.0f} "
            f"(alg {alg}, geo {geo})")
    return info


def _classify_rotation(M: np.ndarray, J: np.ndarray, angle: float, alg: int,
                       scale: float) -> ClusterInfo:
    dim = M.shape[0]
    omega = complex(np.cos(angle), np.sin(angle))
    K = M - omega * np.eye(dim)
    _, s_all, Vh = np.linalg.svd(K)
    geo = int(np.sum(s_all <= _RANK_TOL * scale))
    if not 0 < geo <= alg:
        raise NumericalConsistencyError(
            f"kernel dimension {geo} vs multiplicity {alg} at angle {angle:.6f}")

    if geo == alg:
        B = _right_null_basis(Vh, geo)
        vals = np.linalg.eigvalsh(krein_gram(B, J))
        thr = 1e-6 * max(1.0, np.abs(vals).max())
        p, q, zero = _signature(vals, thr)
        if zero:
            raise UnsupportedNormalForm(
                f"degenerate Krein form at angle {angle:.6f}; distinct "
                "eigenvalues may have been merged into one cluster")
        return ClusterInfo(omega=omega, angle=angle, alg=alg, geo=geo,
                           krein=(p, q), rot_upper=q, rot_lower=p)

    n2 = alg - geo
    Bg = _generalized_basis(M, omega, alg, scale)
    vals = np.linalg.eigvalsh(krein_gram(Bg, J))
    thr = 1e-6 * max(1.0, np.abs(vals).max())
    P, Q, zero = _signature(vals, thr)
    if zero or P < n2 or Q < n2:
        raise UnsupportedNormalForm(
            f"Krein signature ({P},{Q}) incompatible with {n2} defective "
            f"block(s) at angle {angle:.6f}")

    # second form kappa(x, (M - omega) x) separates the two defective variants
    G2 = 1j * (Bg.conj().T @ J @ K @ Bg)
    sig2 = np.linalg.eigvalsh(0.5 * (G2 + G2.conj().T))
    vals2 = np.sort(np.abs(sig2))[::-1]
    lead = vals2[0]
    if n2 < len(vals2) and vals2[n2] > 1e-3 * lead:
        raise UnsupportedNormalForm(
            f"defective-block indicator not rank-{n2} at angle {angle:.6f}")
    thr2 = 1e-3 * lead
    triv = int(np.sum(sig2 > thr2))
    nontriv = int(np.sum(sig2 < -thr2))
    if triv + nontriv != n2:
        raise UnsupportedNormalForm(
            f"could not separate defective variants at angle {angle:.6f}")

    info = ClusterInfo(omega=omega, angle=angle, alg=alg, geo=geo,
                       krein=(P, Q), n2_trivial=triv, n2_nontrivial=nontriv,
                       rot_upper=Q - n2, rot_lower=P - n2)
    return info


def splitting_table(summary: SpectralSummary, omega: complex) -> SplittingPair:
    """Splitting numbers (S+, S-) at omega from the block structure.

    Additive over blocks: identity planes and positive shears give (1,1)
    at +1, negative shears give (0,0); the mirror rule holds at -1;
    a rotation block contributes (0,1) at its own eigenvalue and (1,0)
    at the conjugate; nontrivial double-rotation blocks give (1,1) at
    both, trivial ones (0,0).  omega is refused and scaled onto the circle
    as `splitting_numbers_numeric` does it.
    """
    omega = _normalize_omega(omega)
    c = summary.cluster_at(omega)
    if c is None:
        return SplittingPair(0, 0)
    if c.is_real:
        if c.omega.real > 0:
            s = c.planes_id + c.shear_pos
        else:
            s = c.planes_id + c.shear_neg
        return SplittingPair(s, s)
    upper = (float(np.angle(omega)) % TWO_PI) <= np.pi
    if upper:
        return SplittingPair(c.rot_lower + c.n2_nontrivial,
                             c.rot_upper + c.n2_nontrivial)
    return SplittingPair(c.rot_upper + c.n2_nontrivial,
                         c.rot_lower + c.n2_nontrivial)
