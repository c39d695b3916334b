#!/usr/bin/env python3
"""Scan Grassmannians with the secant-dimension oracle.

For every (r, n) in range and every h up to the combinatorial bound
(or a flat cap) the oracle computes the dimension of the h-secant
variety over a 62-bit prime field and reports the verdict.
"""

import argparse
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from grassdef import (
    DEFAULT_PRIME,
    DEFAULT_SEED,
    GrassShape,
    grass_bound,
    secant_dimension,
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-max", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=9)
    ap.add_argument("--h-cap", type=int, default=6)
    ap.add_argument("--trials", type=int, default=1)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    defective = []
    for r in range(1, args.r_max + 1):
        for n in range(2 * r + 1, args.n_max + 1):
            shape = GrassShape(r, n)
            h_max = args.h_cap if r < 2 else min(args.h_cap, grass_bound(r, n).max_h + 2)
            for h in range(1, h_max + 1):
                start = time.perf_counter()
                cert = secant_dimension(
                    shape, h, trials=args.trials, prime=DEFAULT_PRIME, seed=args.seed
                )
                elapsed = time.perf_counter() - start
                print(
                    f"{shape.label} h={h}: computed {cert.computed_dim},"
                    f" expected {cert.expected_dim}, defect {cert.defect},"
                    f" {cert.verdict} ({elapsed:.2f} s)"
                )
                if cert.defect > 0:
                    defective.append((shape.label, h, cert.defect))
                if cert.computed_dim == shape.ambient_dim:
                    break
    print()
    if defective:
        print("defect evidence:")
        for label, h, d in defective:
            print(f"  {label} h={h}: defect {d}")
    else:
        print("no defect evidence in range")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
