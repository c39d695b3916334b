#!/usr/bin/env python3
"""Tabulate the non-defectivity bounds for a range of Grassmannians.

For each (r, n) the table lists the combinatorial bound, the linear
span bound, the aop bound, and which branch produced the first.  Rows
where n = r^2 + 3r + 1 are flagged; along that parabola the bound is a
polynomial in alpha = (n + 1) / (r + 1).
"""

import argparse
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from grassdef import aop_bound, grass_bound, linear_bound


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-min", type=int, default=2)
    ap.add_argument("--r-max", type=int, default=8)
    ap.add_argument("--n-max", type=int, default=60)
    ap.add_argument(
        "--only-ties",
        action="store_true",
        help="show only rows where the aop bound is not strictly smaller",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"{'shape':>10} {'grass':>6} {'linear':>7} {'aop':>5} {'branch':>8}")
    for r in range(args.r_min, args.r_max + 1):
        for n in range(2 * r + 1, args.n_max + 1):
            grass = grass_bound(r, n)
            lin = linear_bound(r, n)
            aop = aop_bound(r, n)
            if args.only_ties and grass.max_h > aop.max_h:
                continue
            marker = " *" if n == r * r + 3 * r + 1 else ""
            print(
                f"{f'G({r},{n})':>10} {grass.max_h:>6} {lin.max_h:>7}"
                f" {aop.max_h:>5} {grass.branch:>8}{marker}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
