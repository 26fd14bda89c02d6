#!/usr/bin/env python3
"""Limit-shape experiment: sup gap between the tilted height and h_star.

One forward solve per depth; prints the decay of the sup error with lam.
`kpztail limit-shape` writes the profile CSV of one depth.
"""

import argparse
import sys

from kpztail.bridge import ShapeOptions, shape_profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambdas", default="8,12,16,20")
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--dx", type=float, default=0.05)
    ap.add_argument("--dt", type=float, default=0.01)
    args = ap.parse_args()

    opts = ShapeOptions(dx=args.dx, dt=args.dt)
    print(f"{'lam':>6} {'sup|h - h*|':>12}")
    for lam in (float(v) for v in args.lambdas.split(",") if v):
        prof = shape_profile(lam, args.delta, "pde", opts)
        print(f"{lam:6g} {prof.sup_error:12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
