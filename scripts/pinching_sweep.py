#!/usr/bin/env python3
"""Sweep the axis ratio of a two-plane ellipsoid across the pinching gate.

The multiplicity and ellipticity conclusions are only asserted while
R^2 < 1.5 r^2.  Sweeping the ratio past sqrt(1.5) shows the gate flip:
the orbits themselves stay strictly elliptic on ellipsoids, but the
checks downgrade to informational once the hypothesis fails.

    python3 scripts/pinching_sweep.py --ratios 1.05,1.1,1.2,1.25
"""

import argparse
import sys

from symstab import SurfaceSpec, verify_surface


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ratios", default="1.05,1.15,1.2,1.25",
                    help="comma list of R/r values to sweep")
    ap.add_argument("--alpha", type=float, default=1.5)
    args = ap.parse_args(argv)

    print(f"{'R/r':>6} {'R^2/r^2':>8} {'gate':>5} {'orbits':>6} "
          f"{'str.ell.':>8} {'verdict':>8}")
    for tok in args.ratios.split(","):
        ratio = float(tok)
        spec = SurfaceSpec((1.0, ratio))
        rep = verify_surface(spec, alpha=args.alpha, m_max=2)
        n_se = sum(o.floquet.strictly_elliptic for o in rep.orbits)
        print(f"{ratio:>6.3f} {rep.pinch_ratio:>8.4f} "
              f"{'yes' if rep.gate_passed else 'no':>5} "
              f"{len(rep.orbits):>6} {n_se:>8} "
              f"{'PASS' if rep.passed else 'FAIL':>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
