"""Readers and writers: matrices, sampled paths, surface files, reports.

Matrix text format: first line ``n=<int>``, then 2n whitespace-separated
rows of 2n entries.  A JSON array-of-arrays is accepted wherever a text
matrix is.  Sampled paths use the same header followed by ``t=<float>``
blocks.  Emitted JSON is canonical (sorted keys, floats at 12 significant
digits), so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import re

import numpy as np

from .errors import ParseError, SymstabError
from .sympl import symplectic_residual

__all__ = [
    "parse_real",
    "parse_angle",
    "parse_matrix_text",
    "load_matrix",
    "SYMPL_TOL",
    "require_symplectic",
    "parse_path_samples",
    "load_path_samples",
    "load_surface_file",
    "canonical_json",
    "write_csv",
]

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*([0-9]*\.?[0-9]*)\s*pi\s*(?:/\s*([0-9]*\.?[0-9]+))?\s*$",
    re.IGNORECASE)


def parse_real(token, what: str) -> float:
    """float(token); a non-numeric (a bool included) or non-finite token
    raises ParseError."""
    try:
        x = math.nan if isinstance(token, bool) else float(token)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ParseError(f"{what}: {token!r} is not a finite number")
    return x


def parse_angle(token: str) -> float:
    """Angle in radians from tokens like '2pi', 'pi/2', '-2pi/3', or '0.7';
    a token that gives no finite angle raises ParseError."""
    tok = str(token).strip()
    m = _ANGLE_RE.match(tok)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = parse_real(m.group(2), "angle") if m.group(2) else 1.0
        div = parse_real(m.group(3), "angle") if m.group(3) else 1.0
        if div == 0.0:
            raise ParseError(f"zero divisor in angle {token!r}")
        angle = sign * coef * math.pi / div
        if not math.isfinite(angle):
            raise ParseError(f"angle {token!r} is not finite")
        return angle
    return parse_real(tok, "angle")


def _rows_to_matrix(rows, n: int | None = None) -> np.ndarray:
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix entries not numeric: {exc}") from None
    if not np.isfinite(M).all():
        raise ParseError("matrix entries must be finite")
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise ParseError(f"matrix must be square of even size, got {M.shape}")
    if n is not None and M.shape[0] != 2 * n:
        raise ParseError(
            f"header says n={n} but found {M.shape[0]} rows instead of {2 * n}")
    return M


def _header(text: str, what: str) -> tuple[int, list[str]]:
    """n of the 'n=<int>' first line of text and the lines after it,
    blank and '#' comment lines dropped."""
    lines = [ln for ln in text.strip().splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("n="):
        raise ParseError(f"{what} must start with an 'n=<int>' line")
    try:
        n = int(lines[0].split("=", 1)[1])
    except ValueError:
        raise ParseError(f"bad dimension line {lines[0]!r}") from None
    return n, lines[1:]


def parse_matrix_text(text: str) -> np.ndarray:
    """One matrix from header+rows text or a JSON array-of-arrays."""
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            return _rows_to_matrix(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON matrix: {exc}") from None
    n, lines = _header(stripped, "matrix text")
    rows = [ln.split() for ln in lines]
    if len(rows) != 2 * n:
        raise ParseError(f"expected {2 * n} rows after the header, got {len(rows)}")
    return _rows_to_matrix(rows, n)


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix_text(fh.read())


def parse_path_samples(text: str) -> tuple[np.ndarray, np.ndarray]:
    """(ts, Ws) from 'n=<int>' followed by 't=<float>' + 2n rows blocks."""
    n, lines = _header(text, "path samples")
    d = 2 * n
    ts, Ws = [], []
    i = 0
    while i < len(lines):
        head = lines[i].replace(" ", "")
        if not head.startswith("t="):
            raise ParseError(f"expected 't=<float>' line, got {lines[i]!r}")
        ts.append(parse_real(head[2:], "sample time"))
        block = [ln.split() for ln in lines[i + 1:i + 1 + d]]
        if len(block) != d:
            raise ParseError(f"sample at t={ts[-1]} is missing rows")
        Ws.append(_rows_to_matrix(block, n))
        i += 1 + d
    if len(ts) < 2:
        raise ParseError("need at least two samples to form a path")
    order = np.argsort(ts)
    return np.asarray(ts, float)[order], np.stack(Ws)[order]


SYMPL_TOL = 1e-6


def require_symplectic(M: np.ndarray, what: str) -> float:
    """Symplectic residual of M; ParseError naming ``what`` if it exceeds
    SYMPL_TOL."""
    res = symplectic_residual(M)
    if res > SYMPL_TOL:
        raise ParseError(f"{what} is not symplectic (residual {res:.3e} "
                         f"> {SYMPL_TOL:.1e})")
    return res


def load_path_samples(path: str):
    """Sampled path file -> interpolating SymplecticPath.  A sample with
    symplectic residual above SYMPL_TOL, times that do not start at 0 and
    increase, or a first sample other than the identity raise
    ParseError."""
    from .paths import path_from_samples
    with open(path, "r", encoding="utf-8") as fh:
        ts, Ws = parse_path_samples(fh.read())
    for t, W in zip(ts, Ws):
        require_symplectic(W, f"{path}: sample at t={t:g}")
    try:
        return path_from_samples(ts, Ws, label=f"samples:{path}")
    except SymstabError as exc:
        raise ParseError(f"{path}: {exc}") from None


_SURFACE_KEYS = {"kind", "n", "radii", "alpha", "perturbation"}
_PJ_KEYS = {"delta", "quartic_coeffs"}


def load_surface_file(path: str):
    """Surface JSON -> (SurfaceSpec, alpha or None).

    Recognized fields: kind, n, radii[], alpha, and optionally
    perturbation{delta, quartic_coeffs[]}.  Unknown keys are rejected so a
    typo cannot silently fall back to defaults.
    """
    from .dynamics import SurfaceSpec
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    unknown = set(data) - _SURFACE_KEYS
    if unknown:
        raise ParseError(f"{path}: unknown keys {sorted(unknown)}")
    if "radii" not in data:
        raise ParseError(f"{path}: missing required key 'radii'")
    radii = data["radii"]
    if (not isinstance(radii, list) or not radii
            or not all(isinstance(r, (int, float)) for r in radii)):
        raise ParseError(f"{path}: 'radii' must be a non-empty number list")
    radii = tuple(parse_real(r, f"{path}: radii") for r in radii)
    kind = data.get("kind", "ellipsoid")
    if kind not in ("ellipsoid", "perturbed-ellipsoid"):
        raise ParseError(f"{path}: unknown kind {kind!r}")
    if "n" in data and data["n"] != len(radii):
        raise ParseError(f"{path}: n={data['n']} but {len(radii)} radii given")
    delta, quartic = 0.0, ()
    pert = data.get("perturbation")
    if pert is not None:
        if not isinstance(pert, dict):
            raise ParseError(f"{path}: 'perturbation' must be an object")
        bad = set(pert) - _PJ_KEYS
        if bad:
            raise ParseError(f"{path}: unknown perturbation keys {sorted(bad)}")
        delta = parse_real(pert.get("delta", 0.0), f"{path}: delta")
        coeffs = pert.get("quartic_coeffs", [])
        if not isinstance(coeffs, list):
            raise ParseError(f"{path}: 'quartic_coeffs' must be a number list")
        quartic = tuple(parse_real(q, f"{path}: quartic_coeffs") for q in coeffs)
        if quartic and len(quartic) != len(radii):
            raise ParseError(
                f"{path}: quartic_coeffs needs one entry per plane")
    alpha = data.get("alpha")
    if alpha is not None:
        alpha = parse_real(alpha, f"{path}: alpha")
        if not 1.0 < alpha < 2.0:
            raise ParseError(f"{path}: alpha must lie in (1, 2), got {alpha}")
    try:
        spec = SurfaceSpec(radii, quartic, delta)
    except (ValueError, SymstabError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    return spec, alpha


def _canon(obj):
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if isinstance(obj, complex):
        return [_canon(obj.real), _canon(obj.imag)]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x} in report")
        return float(format(x, ".12g"))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2) + "\n"


def write_csv(header, rows) -> str:
    """Rows to CSV text with 12-significant-digit floats."""
    buf = _io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format(x, ".12g") if isinstance(x, (float, np.floating))
                    else x for x in row])
    return buf.getvalue()
