"""Command-line front end.

Subcommands: matrix-analyze, path-index, orbits-find, verify.  Exit codes:
0 all applicable checks pass, 1 a check fails or a computation refuses to
stabilize, 2 unusable input.  JSON output is canonical (sorted keys, 12
significant digits), so identical inputs and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as sio
from .classify import verify_surface
from .dynamics import SurfaceSpec, find_orbits, monodromy_path
from .errors import ParseError, SymstabError
from .index import index_nu, iterate_indices
from .paths import (lower_shear_path, normal_form_path, rotation_path,
                    shear_path)
from .spectral import spectral_summary, splitting_table

# shared options; each subcommand declares only the ones it reads, so an
# option it would ignore is an argparse error (exit 2)
_FLAGS = {
    "--alpha": dict(type=float, default=1.5,
                    help="Hamiltonian homogeneity degree in (1, 2)"),
    "--m-max": dict(type=int, default=None,
                    help="iterates in index tables"),
    "--seed": dict(type=int, default=0,
                   help="seed recorded in reports; no computation uses it"),
    "--out": dict(metavar="FILE", default=None,
                  help="write the report here instead of stdout"),
    "--format": dict(choices=("json", "csv"), default="csv",
                     help="output format (default: csv)"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symstab",
        description="Closed characteristics on convex level sets: "
                    "indices, stability classes, and pinching checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        for name in names:
            p.add_argument(name, **_FLAGS[name])

    p = sub.add_parser("matrix-analyze",
                       help="spectral and stability analysis of one matrix")
    p.add_argument("file", help="matrix file (n=<int> header or JSON rows)")
    flags(p, "--seed", "--out")

    p = sub.add_parser("path-index",
                       help="index/nullity table of a symplectic path")
    p.add_argument("source",
                   help="rotation:<angle> | shear:<b> | lower-shear:<b> | "
                        "normal-form:<matrix file> | samples:<path file> | "
                        "orbit:<surface file>:<plane>")
    p.add_argument("--omega", default="",
                   help="comma list; '1'/'-1' are the real points, anything "
                        "else is an angle token like 2pi/3")
    flags(p, "--alpha", "--m-max", "--seed", "--out", "--format")

    p = sub.add_parser("orbits-find",
                       help="closed characteristics of a surface file")
    p.add_argument("surface", help="surface JSON file")
    flags(p, "--alpha", "--seed", "--out", "--format")

    p = sub.add_parser("verify",
                       help="full pipeline: orbits, indices, stability checks")
    p.add_argument("surface", help="surface JSON file")
    flags(p, "--alpha", "--m-max", "--seed", "--out")
    return ap


def _check_alpha(alpha: float) -> float:
    if not 1.0 < alpha < 2.0:
        raise ParseError(f"--alpha must lie in (1, 2), got {alpha}")
    return alpha


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_omega(token: str) -> complex:
    tok = token.strip()
    if tok in ("1", "+1"):
        return 1.0 + 0.0j
    if tok == "-1":
        return -1.0 + 0.0j
    return complex(np.exp(1j * sio.parse_angle(tok)))


def _resolve_source(token: str, alpha: float):
    kind, _, rest = token.partition(":")
    if kind == "rotation" and rest:
        return rotation_path(sio.parse_angle(rest), 1.0)
    if kind == "shear" and rest:
        return shear_path(sio.parse_real(rest, "shear"), 1.0)
    if kind == "lower-shear" and rest:
        return lower_shear_path(sio.parse_real(rest, "lower shear"), 1.0)
    if kind == "normal-form" and rest:
        M = sio.load_matrix(rest)
        sio.require_symplectic(M, rest)
        return normal_form_path(M)
    if kind == "samples" and rest:
        return sio.load_path_samples(rest)
    if kind == "orbit" and rest:
        fname, _, plane_s = rest.rpartition(":")
        if not fname:
            raise ParseError("orbit source needs orbit:<surface file>:<plane>")
        spec, file_alpha = sio.load_surface_file(fname)
        alpha = _check_alpha(file_alpha if file_alpha is not None else alpha)
        try:
            plane = int(plane_s)
        except ValueError:
            raise ParseError(f"bad plane index {plane_s!r}") from None
        for orb in find_orbits(spec, alpha):
            if orb.plane == plane:
                return monodromy_path(spec, alpha, orb)
        raise ParseError(f"no orbit found in plane {plane}")
    raise ParseError(f"unrecognized path source {token!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_matrix_analyze(args) -> int:
    M = sio.load_matrix(args.file)
    res = sio.require_symplectic(M, "matrix")
    summary = spectral_summary(M)
    clusters = []
    for c in summary.clusters:
        sp = splitting_table(summary, c.omega)
        clusters.append({
            "omega": complex(c.omega),
            "angle": c.angle,
            "alg": c.alg,
            "geo": c.geo,
            "krein": list(c.krein),
            "splitting": list(sp.as_tuple()),
            "blocks": {
                "identity_planes": c.planes_id,
                "shear_pos": c.shear_pos,
                "shear_neg": c.shear_neg,
                "rot_upper": c.rot_upper,
                "rot_lower": c.rot_lower,
                "double_rot_trivial": c.n2_trivial,
                "double_rot_nontrivial": c.n2_nontrivial,
            },
        })
    report = {
        "file": args.file,
        "n": summary.n,
        "symplectic_residual": res,
        "elliptic_height": summary.elliptic_height,
        "unit_clusters": clusters,
        "off_circle": [complex(z) for z in summary.off_circle],
        "seed": args.seed,
    }
    _emit(args, sio.canonical_json(report))
    return 0


def cmd_path_index(args) -> int:
    path = _resolve_source(args.source, args.alpha)
    tokens = [t for t in args.omega.split(",") if t.strip()]
    m_max = args.m_max if args.m_max is not None else 5
    if not tokens and m_max < 1:
        raise ParseError("nothing to do: empty omega list and no iterates")
    if not tokens and args.omega != "":
        raise ParseError("empty omega list")

    rows = []
    for tok in tokens:
        r = index_nu(path, _parse_omega(tok))
        rows.append(("omega", tok, r.index, r.nullity))
    table = iterate_indices(path, m_max) if m_max >= 1 else []
    for m, r in enumerate(table, start=1):
        rows.append(("iterate", m, r.index, r.nullity))

    if args.format == "json":
        report = {
            "source": args.source,
            "omega": [{"token": t, "index": i, "nullity": nu}
                      for k, t, i, nu in rows if k == "omega"],
            "iterates": [{"m": m, "index": i, "nullity": nu}
                         for k, m, i, nu in rows if k == "iterate"],
            "seed": args.seed,
        }
        _emit(args, sio.canonical_json(report))
    else:
        _emit(args, sio.write_csv(["kind", "arg", "index", "nullity"], rows))
    return 0


def cmd_orbits_find(args) -> int:
    spec, file_alpha = sio.load_surface_file(args.surface)
    alpha = _check_alpha(file_alpha if file_alpha is not None else args.alpha)
    orbits = find_orbits(spec, alpha)
    if args.format == "json":
        report = {
            "surface": args.surface,
            "alpha": alpha,
            "n": spec.n,
            "orbits": [{"plane": o.plane, "action": o.action,
                        "period": o.period, "x0": [float(v) for v in o.x0]}
                       for o in orbits],
            "seed": args.seed,
        }
        _emit(args, sio.canonical_json(report))
    else:
        rows = [(o.plane, o.action, o.period,
                 " ".join(format(float(v), ".12g") for v in o.x0))
                for o in orbits]
        _emit(args, sio.write_csv(["plane", "action", "period", "x0"], rows))
    return 0


def cmd_verify(args) -> int:
    spec, file_alpha = sio.load_surface_file(args.surface)
    alpha = _check_alpha(file_alpha if file_alpha is not None else args.alpha)
    m_max = args.m_max if args.m_max is not None else 2
    if m_max < 1:
        raise ParseError(f"--m-max must be at least 1, got {m_max}")
    rep = verify_surface(spec, alpha=alpha, m_max=m_max)
    doc = rep.to_dict()
    doc["seed"] = args.seed
    _emit(args, sio.canonical_json(doc))
    return 0 if rep.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "matrix-analyze": cmd_matrix_analyze,
        "path-index": cmd_path_index,
        "orbits-find": cmd_orbits_find,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymstabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
