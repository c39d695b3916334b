"""Reference answers the benchmark checks every case against.

Secant dimensions come from the literature, not from the program: a
secant variety has its expected dimension except on the classical
defective lists below.  Grassmannians G(r, n) are r-planes in P^n, the
convention of the package.  Tables of closed-form values are frozen as
digests of their canonical JSON, taken from the package as first
benchmarked and cross-checked against the values its test suite pins.
"""

from __future__ import annotations

import hashlib
import json
from math import comb, prod

CERTIFIED = "CertifiedNonDefective"
DEFECT_EVIDENCE = "DefectEvidence"
GENERICALLY_FINITE = "GenericallyFinite"
FIBER_EVIDENCE = "FiberEvidence"
CONSTANT_MAP = "ConstantMap"

# (label, h) -> dimension of the h-secant variety, where it is smaller than
# expected.  Grassmannians: lines at h = 2 in P^5 (skew forms of rank 4),
# and the Baur-Draisma-de Graaf list G(2,6) h3, G(3,7) h3/h4, G(2,8) h4.
# Segre-Veronese: sigma_4 of P2xP2xP2 (Strassen), P1xP1 in bidegree (2,2)
# at h = 3, and the quartic Veronese threefold at h = 9 (Alexander-
# Hirschowitz); all three are hypersurfaces.  Rational normal curves are
# never defective.
DEFECTIVE = {
    ("G(1,5)", 2): 13,
    ("G(2,6)", 3): 33,
    ("G(3,7)", 3): 49,
    ("G(3,7)", 4): 63,
    ("G(2,8)", 4): 73,
    ("SV(2,2,2;1,1,1)", 4): 25,
    ("SV(1,1;2,2)", 3): 7,
    ("SV(3;4)", 9): 33,
}

# `grassdef --json bound --grass 4 29`, byte for byte, as tests/test_cli.py pins it
BOUND_4_29_JSON = (
    '{"branch":"large_n","max_h":37,"raw_value":36,"rule":"grass",'
    '"shape":"G(4,29)","statement":"not h-defective for h \\u2264 37"}'
)


def grass(r: int, n: int) -> tuple:
    """Shape spec of G(r, n), stored with r <= n - r - 1 as the package does."""
    return ("grass", min(r, n - r - 1), n)


def sv(ns: tuple[int, ...], ds: tuple[int, ...]) -> tuple:
    """Shape spec of a Segre-Veronese variety, factors sorted by (n_j, d_j)."""
    return ("sv",) + tuple(zip(*sorted(zip(ns, ds))))


def label(spec: tuple) -> str:
    if spec[0] == "grass":
        return f"G({spec[1]},{spec[2]})"
    ns, ds = spec[1], spec[2]
    return f"SV({','.join(map(str, ns))};{','.join(map(str, ds))})"


def variety_dim(spec: tuple) -> int:
    if spec[0] == "grass":
        return (spec[1] + 1) * (spec[2] - spec[1])
    return sum(spec[1])


def num_coords(spec: tuple) -> int:
    if spec[0] == "grass":
        return comb(spec[2] + 1, spec[1] + 1)
    return prod(comb(n + d, n) for n, d in zip(spec[1], spec[2]))


def filling_order(spec: tuple) -> int:
    """The least s whose osculating space at a general point is the whole
    ambient: r + 1 on G(r, n), the total degree on a Segre-Veronese variety."""
    return spec[1] + 1 if spec[0] == "grass" else sum(spec[2])


def expected_secant_dim(spec: tuple, h: int) -> int:
    return min(h * (variety_dim(spec) + 1), num_coords(spec)) - 1


def secant_dim(spec: tuple, h: int) -> int:
    return DEFECTIVE.get((label(spec), h), expected_secant_dim(spec, h))


def secant_verdict(spec: tuple, h: int) -> str:
    return CERTIFIED if secant_dim(spec, h) == expected_secant_dim(spec, h) else DEFECT_EVIDENCE


def osculating_survivors(spec: tuple, s: int) -> int:
    """Coordinates at distance more than s from the coordinate point e_0:
    Pluecker indices sharing fewer than r + 1 - s entries with (0, ..., r),
    or monomials of degree more than s in the variables other than x_0."""
    if spec[0] == "grass":
        r, n = spec[1], spec[2]
        return sum(comb(r + 1, l) * comb(n - r, l) for l in range(s + 1, r + 2))
    by_degree = [1]
    for n, d in zip(spec[1], spec[2]):
        factor = [comb(n - 1 + l, l) for l in range(d + 1)]
        by_degree = [
            sum(by_degree[i] * factor[t - i] for i in range(len(by_degree)) if 0 <= t - i <= d)
            for t in range(len(by_degree) + d)
        ]
    return sum(by_degree[s + 1 :])


def grass_osculating_status(r: int, n: int, s: int) -> str:
    """Projection of G(r, n) from its order-s osculating space at a
    coordinate point: generically finite for s < r (the release gate's
    rule).  At s = r the survivors are the Pluecker coordinates of the
    complementary block, which map onto G(r, n - r - 1) with positive
    dimensional fibers, a single point when n = 2r + 1.  Past s = r
    nothing survives."""
    if s < r:
        return GENERICALLY_FINITE
    if s == r and n > 2 * r + 1:
        return FIBER_EVIDENCE
    return CONSTANT_MAP


def sv_osculating_status(ns: tuple[int, ...], ds: tuple[int, ...], s: int) -> str:
    """Projection of a Segre-Veronese variety of total degree d from its
    order-s osculating space at a diagonal coordinate point: the surviving
    monomials have degree at least s + 1 away from the point, which
    separates points for s <= d - 2.  At s = d - 1 only the monomials of
    top degree survive; they factor through the product of the P^{n_j - 1},
    a point when every n_j = 1.  Past that nothing survives."""
    d = sum(ds)
    if s <= d - 2:
        return GENERICALLY_FINITE
    if s == d - 1 and any(n > 1 for n in ns):
        return FIBER_EVIDENCE
    return CONSTANT_MAP


def rnc_osculating_status(n: int, a: int, b: int) -> str:
    """Projection of the degree-n rational normal curve from the osculating
    spaces of orders a and b at its two coordinate points: finite exactly
    when a + b <= n - 3, otherwise at most one coordinate survives (the
    release gate's rule)."""
    return GENERICALLY_FINITE if a + b <= n - 3 else CONSTANT_MAP


def digest(value) -> str:
    """Short digest of the canonical JSON of a case result."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# case name -> digest of its result at the commit that introduced the benchmark
FROZEN = {
    "birational chambers": "fca83253e98da77a",
    "birational effcone": "883d8a337fe39dff",
    "birational fano": "6e924a5429babc9e",
    "birational mds": "8a0a33fe263aa217",
    "birational spherical": "f50fe9e2362963d3",
    "bounds aop_bound": "f002cc154988bef1",
    "bounds grass_bound": "00d7f4945596e0a5",
    "bounds linear_bound": "2940eac0f3bf0f81",
    "cli bound": "63f48c5fccb482f9",
    "cli chambers": "c3b81f1b9496faa4",
    "cli classify": "7564bf6ee0bcfdc1",
    "cli effcone": "c23ace7d123a3fca",
    "cli schubert": "309ed361a810f181",
    "cli spherical": "022389c16ead03ff",
    "schubert G(3,8)": "7dd1c487c13dab98",
    "schubert G(4,9)": "a9d13bef2717921e",
}
