#!/usr/bin/env python3
"""Run the full stability pipeline on one surface and summarize it.

Finds the plane-circle closed characteristics, builds their monodromy
paths, computes index tables and Floquet classes, and evaluates the
multiplicity/ellipticity checks.  With --out the canonical JSON report is
written next to the console summary.

Examples:
    python3 scripts/run_verify_ellipsoid.py
    python3 scripts/run_verify_ellipsoid.py --radii 1.0,1.3 --m-max 3
    python3 scripts/run_verify_ellipsoid.py --quartic 0.3,-0.2 --delta 0.15
"""

import argparse
import sys
import time

from symstab import SurfaceSpec, canonical_json, verify_surface


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radii", default="1.0,1.1",
                    help="comma list of semi-axes (default 1.0,1.1)")
    ap.add_argument("--quartic", default=None,
                    help="comma list of quartic coefficients, one per plane")
    ap.add_argument("--delta", type=float, default=0.0,
                    help="perturbation strength")
    ap.add_argument("--alpha", type=float, default=1.5,
                    help="homogeneity degree of the gauge, in (1, 2)")
    ap.add_argument("--m-max", type=int, default=2)
    ap.add_argument("--out", default=None, help="write the JSON report here")
    args = ap.parse_args(argv)

    radii = tuple(float(r) for r in args.radii.split(","))
    quartic = (tuple(float(q) for q in args.quartic.split(","))
               if args.quartic else ())
    spec = SurfaceSpec(radii, quartic, args.delta)

    t0 = time.time()
    rep = verify_surface(spec, alpha=args.alpha, m_max=args.m_max)
    dt = time.time() - t0

    print(f"surface radii={radii} quartic={quartic or '-'} "
          f"delta={args.delta} alpha={args.alpha}")
    print(f"pinch ratio R^2/r^2 = {rep.pinch_ratio:.4f} "
          f"(gate {'passed' if rep.gate_passed else 'failed'}, "
          f"theorems {'enforced' if rep.theorems_apply else 'informational'})")
    print()
    hdr = f"{'plane':>5} {'action':>10} {'i':>4} {'nu':>3} {'mean':>8} {'class':<18} case"
    print(hdr)
    for o in rep.orbits:
        print(f"{o.plane:>5} {o.action:>10.6f} {o.index_orbit:>4} "
              f"{o.nullity:>3} {o.mean_index:>8.4f} {o.floquet.label:<18} "
              f"{o.iteration_case_label or '-'}")
    print()
    for c in rep.checks:
        flag = "PASS" if c.passed else ("FAIL" if c.required else "info")
        print(f"  [{flag}] {c.name}: {c.detail}")
    print(f"\noverall: {'PASS' if rep.passed else 'FAIL'}  ({dt:.1f}s)")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(canonical_json(rep.to_dict()))
        print(f"report written to {args.out}")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
