#!/usr/bin/env python3
"""Classification sweep for blow-ups of a rank-one ambient at k points.

Prints, for each k in range, the Fano/weak-Fano verdict, the spherical
status, and the Mori-dream-space status of the blow-up, plus the Mori
chamber decomposition of the one-point blow-up when the ambient is a
Grassmannian of lines.
"""

import argparse
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from grassdef import (
    Ambient,
    anticanonical,
    classify_fano,
    mds_status,
    mori_chambers_g1n1,
    spherical_status,
    top_self_intersection,
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("grass", "quadric", "proj"), default="grass")
    ap.add_argument("--r", type=int, default=1)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--k-max", type=int, default=8)
    ap.add_argument("--chambers", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.kind == "grass":
        ambient = Ambient.grassmannian(args.r, args.n)
    elif args.kind == "quadric":
        ambient = Ambient.quadric(args.n)
    else:
        ambient = Ambient.projective(args.n)
    print(f"{ambient.label}: dim {ambient.dim}, degree {ambient.degree}, index {ambient.index}")
    for k in range(args.k_max + 1):
        fano = classify_fano(ambient, k)
        top = top_self_intersection(ambient, anticanonical(ambient, k))
        line = f"  k={k}: {fano.verdict:<13} (-K)^dim={top:<8} [{fano.source}]"
        if args.kind != "quadric":
            r = ambient.r if args.kind == "grass" else 0
            mds = mds_status(r, ambient.n, k)
            line += f" MDS={mds.summary}"
            if k >= 1:
                sph = spherical_status(r, ambient.n, k)
                line += f" spherical={'yes' if sph.spherical else 'no'}({sph.rule})"
        print(line)
    if args.chambers and args.kind == "grass" and ambient.r == 1:
        dec = mori_chambers_g1n1(ambient.n)
        print(f"chambers of {ambient.label} blown up at one point:")
        print(f"  walls: {', '.join(w.name for w in dec.walls)}")
        for chamber in dec.chambers:
            print(f"  [{chamber.rays[0].name}, {chamber.rays[1].name}] -> {chamber.model}")
        if dec.note:
            print(f"  note: {dec.note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
