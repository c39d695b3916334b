"""Intersection theory on blow-ups of Grassmannians, quadrics, and
projective spaces at general points.

Divisor and curve classes live in the standard bases H, E_1, ..., E_k and
h, e_1, ..., e_k of the blow-up X_k at k general points.  On top of the
numerical pairing the module carries: anticanonical classes, Mori cone
generators with their range of validity, Fano and weak Fano classification
cross-checked between computation and the known tables, sphericality of
blown-up Grassmannians, effective cones from a torus-weight formula reported
on the catalogued cases, the Mori chamber decomposition for one-point
blow-ups of Grassmannians of lines, and Mori dream space status.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, log10

from .indices import GrassShape, _check_digits, _check_ints, _check_size, _int_text
from .schubert import grass_degree

GRASS = "grassmannian"
QUADRIC = "quadric"
PROJ = "projective"

PROVEN = "proven"
CONJECTURAL = "conjectural"
UNKNOWN = "unknown"

FANO = "Fano"
WEAK_FANO_ONLY = "WeakFanoOnly"
NEITHER = "Neither"

KNOWN_MDS = "KnownMDS"
MDS_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Ambient:
    """A homogeneous ambient variety to blow up at general points: a
    Grassmannian G(r, n) with r >= 1, a smooth quadric Q^n, or P^n.

    Only ambients of dimension at least 2 are allowed; Grassmannian
    parameters are normalized by GrassShape to n >= 2r + 1."""

    kind: str
    n: int
    r: int | None = None

    def __post_init__(self) -> None:
        if self.kind == GRASS:
            r = GrassShape(self.r, self.n).r
            if r == 0:
                raise ValueError(
                    "these parameters give a projective space, use Ambient.projective"
                )
            object.__setattr__(self, "r", r)
        elif self.kind in (QUADRIC, PROJ):
            _check_ints("n", (self.n,), 2)
            if self.r is not None:
                raise ValueError(f"a {self.kind} ambient takes no r, got r={self.r!r}")
        else:
            raise ValueError(f"unknown ambient kind {self.kind!r}")

    @classmethod
    def grassmannian(cls, r: int, n: int) -> "Ambient":
        return cls(GRASS, n, r)

    @classmethod
    def quadric(cls, n: int) -> "Ambient":
        return cls(QUADRIC, n)

    @classmethod
    def projective(cls, n: int) -> "Ambient":
        return cls(PROJ, n)

    @property
    def dim(self) -> int:
        if self.kind == GRASS:
            return (self.r + 1) * (self.n - self.r)
        return self.n

    @property
    def degree(self) -> int:
        if self.kind == GRASS:
            return grass_degree(self.r, self.n)
        if self.kind == QUADRIC:
            return 2
        return 1

    @property
    def index(self) -> int:
        # coefficient of H in the anticanonical class of the ambient
        if self.kind == QUADRIC:
            return self.n
        return self.n + 1

    @property
    def codim(self) -> int:
        if self.kind == GRASS:
            return comb(self.n + 1, self.r + 1) - 1 - self.dim
        if self.kind == QUADRIC:
            return 1
        return 0

    label = property(lambda self: self._label(str))

    def _label(self, text) -> str:
        if self.kind == GRASS:
            return f"G({text(self.r)},{text(self.n)})"
        return f"{'Q' if self.kind == QUADRIC else 'P'}{text(self.n)}"


def _class_name(lead: int, coeffs: tuple[int, ...], base: str, exceptional: str) -> str:
    """The name of lead base - sum_i coeffs_i exceptional_i, such as
    2H-E1+E2 for a divisor or h-e1 for a curve; "0" for the zero class."""
    terms = []
    if lead:
        terms.append(base if lead == 1 else f"{lead}{base}")
    for i, c in enumerate(coeffs, start=1):
        if not c:
            continue
        sign = "-" if c > 0 else "+"
        mag = abs(c)
        terms.append(f"{sign}{'' if mag == 1 else mag}{exceptional}{i}")
    if not terms:
        return "0"
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


@dataclass(frozen=True)
class DivisorClass:
    """The class a H - sum_i b_i E_i on a blow-up at k = len(b) points."""

    a: int
    b: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _check_ints("coefficients", (self.a, *self.b))[1:])

    @property
    def k(self) -> int:
        return len(self.b)

    @property
    def name(self) -> str:
        return _class_name(self.a, self.b, "H", "E")


@dataclass(frozen=True)
class CurveClass:
    """The class c h - sum_i m_i e_i, with h the line class of the ambient
    and e_i the classes of lines inside the exceptional divisors."""

    c: int
    m: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_ints("coefficients", (self.c, *self.m))[1:])

    @property
    def k(self) -> int:
        return len(self.m)

    @property
    def name(self) -> str:
        return _class_name(self.c, self.m, "h", "e")


def divisor_H(k: int, a: int = 1) -> DivisorClass:
    return DivisorClass(a, (0,) * k)


def divisor_E(i: int, k: int) -> DivisorClass:
    b = [0] * k
    b[i] = -1
    return DivisorClass(0, tuple(b))


def curve_h(k: int, c: int = 1) -> CurveClass:
    return CurveClass(c, (0,) * k)


def curve_e(i: int, k: int) -> CurveClass:
    m = [0] * k
    m[i] = -1
    return CurveClass(0, tuple(m))


def curve_l(i: int, k: int) -> CurveClass:
    # strict transform of a line through the i-th point
    m = [0] * k
    m[i] = 1
    return CurveClass(1, tuple(m))


def intersect(D: DivisorClass, C: CurveClass) -> int:
    """Numerical pairing: (aH - sum b_i E_i) . (ch - sum m_i e_i)
    = ac - sum b_i m_i."""
    if D.k != C.k:
        raise ValueError("divisor and curve live on blow-ups at different k")
    return D.a * C.c - sum(bi * mi for bi, mi in zip(D.b, C.m))


def anticanonical(ambient: Ambient, k: int) -> DivisorClass:
    """The anticanonical class of the blow-up at k general points:
    index(ambient) H - (dim - 1) sum_i E_i."""
    _check_ints("k", (k,), 0)
    _check_size(f"the anticanonical class of {ambient._label(_int_text)} at k = {_int_text(k)}", k)
    return DivisorClass(ambient.index, (ambient.dim - 1,) * k)


def top_self_intersection(ambient: Ambient, D: DivisorClass) -> int:
    """Top self-intersection D^dim on the blow-up: with H^dim = deg and
    E_i^dim = (-1)^{dim - 1} all cross terms vanish, giving
    a^dim deg - sum_i b_i^dim.  Its terms are bounded by deg m^dim, m the
    largest |coefficient|, so k + 1 of them by (k + 1) deg m^dim, and a
    bound too long to print is refused before any power is taken."""
    d, deg = ambient.dim, ambient.degree
    m = max(map(abs, (D.a, *D.b, 1)))
    label = f"D^{_int_text(d)} on {ambient._label(_int_text)} at k = {_int_text(D.k)}"
    _check_digits(label, log10((D.k + 1) * deg) + d * log10(m))
    return D.a**d * deg - sum(bi**d for bi in D.b)


@dataclass(frozen=True)
class ConeData:
    """A finite list of generators for a cone of curves or divisors,
    together with the epistemic status of the list and a short tag naming
    the hypothesis that powers it."""

    generators: tuple
    status: str
    provenance: str
    note: str = ""


def _mori_range_quadric(n: int) -> int:
    return (3 * n + 2) // 2 if n % 2 == 0 else (3 * n + 3) // 2


def mori_cone_generators(ambient: Ambient, k: int) -> ConeData:
    """Generators of the Mori cone of the blow-up at k general points, in
    the ranges where a finite generator list is known.

    For k = 0 the cone is spanned by the line class.  For Picard rank one
    ambients covered by lines the generators are e_i and l_i = h - e_i for
    k up to codim + 1; quadrics additionally admit the conic classes
    c_ijl = 2h - e_i - e_j - e_l for larger k, and projective spaces the
    classes l_ij = h - e_i - e_j for 2 <= k <= 2n.  Outside these ranges
    the status is unknown and the generator list empty.
    """
    _check_ints("k", (k,), 0)
    if ambient.kind == QUADRIC and ambient.n == 2:
        return ConeData(
            (),
            UNKNOWN,
            "none",
            "the two-dimensional quadric has Picard rank two and does not "
            "fit the rank one basis used here",
        )
    if k == 0:
        return ConeData((curve_h(0),), PROVEN, "picard-rank-one-homogeneous")

    def proven(provenance: str, *families: tuple[int, int], note: str = "") -> ConeData:
        # e_1..e_k, then for each (c, s) the classes c h - e_S over the
        # s-subsets S, lexicographically; counted against the cap first
        count = k + sum(comb(k, s) for _, s in families)
        label = f"the Mori cone of {ambient._label(_int_text)} at k = {_int_text(k)}"
        _check_size(f"{label} ({_int_text(count)} curve classes)", count * k)
        classes = [curve_e(i, k) for i in range(k)]
        for c, s in families:
            for S in itertools.combinations(range(k), s):
                m = [0] * k
                for i in S:
                    m[i] = 1
                classes.append(CurveClass(c, tuple(m)))
        return ConeData(tuple(classes), PROVEN, provenance, note)

    lines = (1, 1)  # l_i = h - e_i
    if ambient.kind == GRASS:
        if k <= ambient.codim + 1:
            return proven(
                "picard-rank-one-covered-by-lines",
                lines,
                note="valid for k up to codim + 1; the same list is known for "
                "k up to codim + 2",
            )
        return ConeData((), UNKNOWN, "none")
    if ambient.kind == QUADRIC:
        if k <= 2:
            return proven("picard-rank-one-covered-by-lines", lines)
        if k <= _mori_range_quadric(ambient.n):
            return proven("general-points-on-quadric-conics", lines, (2, 3))
        return ConeData((), UNKNOWN, "none")
    if k == 1:
        return proven("picard-rank-one-covered-by-lines", lines)
    if k <= 2 * ambient.n:
        return proven("general-points-on-projective-space-lines", (1, 2))
    return ConeData((), UNKNOWN, "none")


def _fano_table(ambient: Ambient, k: int) -> bool:
    if k == 0:
        return True
    if ambient.kind == GRASS:
        return (ambient.r, ambient.n) == (1, 3) and k <= 2
    if ambient.kind == QUADRIC:
        return k <= 2 or (ambient.n == 2 and k <= 7)
    return k <= 1 or (ambient.n == 2 and k <= 8)


def _weak_fano_table(ambient: Ambient, k: int) -> bool:
    if _fano_table(ambient, k):
        return True
    if ambient.kind == GRASS:
        return (ambient.r, ambient.n) == (1, 4) and k <= 4
    if ambient.kind == QUADRIC:
        n = ambient.n
        return (n == 2 and k <= 7) or (n == 3 and k <= 6) or (n >= 4 and k <= 2)
    n = ambient.n
    return (n == 2 and k <= 8) or (n == 3 and k <= 7) or (n >= 4 and k <= 1)


@dataclass(frozen=True)
class FanoReport:
    """Fano classification of a blow-up at k general points.

    When the Mori cone generators are known the verdict is computed from
    the pairings of the anticanonical class with them plus its top self
    intersection; the known classification table must then agree and
    source reads "computed+table".  Otherwise the table alone decides.
    """

    ambient: Ambient
    k: int
    verdict: str
    source: str
    cone: ConeData
    anticanonical_class: DivisorClass
    top_anticanonical: int
    min_pairing: int | None = None


def classify_fano(ambient: Ambient, k: int) -> FanoReport:
    """Fano / weak Fano / neither for the blow-up of the ambient at k
    general points.  A disagreement between the computed verdict and the
    classification table is a genuine inconsistency: an ArithmeticError."""
    _check_ints("k", (k,), 0)
    ak = anticanonical(ambient, k)
    top = top_self_intersection(ambient, ak)
    table = (
        FANO
        if _fano_table(ambient, k)
        else WEAK_FANO_ONLY
        if _weak_fano_table(ambient, k)
        else NEITHER
    )
    cone = mori_cone_generators(ambient, k)
    if cone.status != PROVEN:
        return FanoReport(ambient, k, table, "table", cone, ak, top)
    pairings = [intersect(ak, g) for g in cone.generators]
    low = min(pairings)
    computed = (
        FANO if low > 0 else WEAK_FANO_ONLY if low >= 0 and top > 0 else NEITHER
    )
    if computed != table:
        raise ArithmeticError(
            f"computed verdict {computed} disagrees with the classification "
            f"table {table} for {ambient.label} at k = {k}"
        )
    return FanoReport(ambient, k, computed, "computed+table", cone, ak, top, low)


# ---------------------------------------------------------------------------
# sphericality


@dataclass(frozen=True)
class SphericalReport:
    """Whether the blow-up of G(r, n) at k general points is a spherical
    variety, with the dimension count f(r, n) and the rule that decided."""

    r: int
    n: int
    k: int
    spherical: bool
    f_value: int
    rule: str
    evidence: str


def _f_value(r: int, n: int) -> int:
    return (n - (2 * r + 2)) * (n - (4 * r + 1)) // 2


def spherical_status(r: int, n: int, k: int) -> SphericalReport:
    """Sphericality of the blow-up of G(r, n) at k >= 1 general points, with
    (r, n) normalized by GrassShape to n >= 2r + 1 and reported so.  For
    r = 0 the blow-up of P^n is toric exactly up to n + 1 points.  For r >= 1
    the blow-up is spherical exactly when k = 1, or k = 2 with r = 1 or
    n = 2r + 1 or n = 2r + 2, or k = 3 with (r, n) = (1, 5).  The count
    f(r, n), about n^2 / 2, is refused before any report prints it when it
    is too long to print."""
    r = GrassShape(r, n).r
    _check_ints("k", (k,), 1)
    f = _f_value(r, n)
    if f:
        _check_digits("the count f(r, n) = (n - 2r - 2)(n - 4r - 1)/2", log10(abs(f)), f)
    if r == 0:
        if k <= n + 1:
            return SphericalReport(
                r, n, k, True, f, "toric",
                f"the blow-up of P^{n} at up to n + 1 general points is toric",
            )
        return SphericalReport(
            r, n, k, False, f, "beyond-toric-range",
            "past n + 1 points the connected automorphism group is too small "
            "to act with a dense Borel orbit",
        )
    if k == 1:
        return SphericalReport(
            r, n, k, True, f, "one-point",
            "a Borel subgroup of the stabilizer of a point has a dense orbit "
            "on the one-point blow-up",
        )
    if k == 2 and (r == 1 or n == 2 * r + 1 or n == 2 * r + 2):
        return SphericalReport(
            r, n, k, True, f, "two-point",
            f"f(r, n) = {f} >= 0 and the two-point stabilizer acts with a "
            "dense Borel orbit",
        )
    if k == 3 and (r, n) == (1, 5):
        return SphericalReport(
            r, n, k, True, f, "three-point-lines",
            "the three-point blow-up of G(1,5) is spherical",
        )
    if k >= 2 and 2 * r + 2 < n < 4 * r + 1:
        return SphericalReport(
            r, n, k, False, f, "dimension-gap",
            f"in the range 2r+2 < n < 4r+1 the count f(r, n) = {f} is "
            "negative, so no dense orbit on two osculating directions exists",
        )
    if k == 2:
        codim = r * (r - 1) // 2
        return SphericalReport(
            r, n, k, False, f, "orbit-codimension",
            f"for r >= 2 and n >= 4r + 1 the general two-point orbit has "
            f"codimension r(r-1)/2 = {codim} > 0",
        )
    return SphericalReport(
        r, n, k, False, f, "too-many-points",
        "no dense Borel orbit survives this many general points",
    )


# ---------------------------------------------------------------------------
# effective cones and chambers


def _torus_cone(r: int, n: int, k: int) -> tuple[DivisorClass, ...]:
    """The effective cone of G(r, n), normalized by GrassShape, blown up at
    k general points, refused unless 1 <= k and k(r + 1) <= n + 1: E_1, ...,
    E_k, then H - (r + 1) sum_j E_j + s0 E_i for i = k, ..., 1, listed once
    when they coincide, with s0 = max(0, (k + 1)(r + 1) - (n + 1)).

    - The coordinate blocks I_i of r + 1 consecutive indices are disjoint
      and their orbit is dense in G(r, n)^k, so blow up the I_i.
    - They are torus-fixed, so the sections of O(d) vanishing to order
      m_i at I_i are spanned by weight vectors; by projective normality
      these are degree-d monomials in the p_J, and p_J vanishes to order
      v_i(J) = |J - I_i| at I_i, its weight under the one-parameter
      subgroup scaling the chart at I_i.  So the cone is generated by the
      E_i and the H - sum_i v_i(J) E_i.
    - Only n + 1 - k(r + 1) entries of J lie outside the blocks, so
      c_i = r + 1 - v_i(J) has sum at least s0 <= r + 1; every such c lies
      above the simplex with vertices s0 e_i, and each vertex is some J's c.
    """
    r = GrassShape(r, n).r
    _check_ints("k", (k,), 1, (n + 1) // (r + 1))
    s0 = max(0, (k + 1) * (r + 1) - (n + 1))
    tops = (tuple(r + 1 - s0 * (j == i) for j in range(k)) for i in reversed(range(k)))
    return tuple(divisor_E(i, k) for i in range(k)) + tuple(
        DivisorClass(1, b) for b in dict.fromkeys(tops)
    )


def effective_cone(r: int, n: int, k: int) -> ConeData:
    """The cone of _torus_cone for G(r, n), normalized by GrassShape to
    r >= 1, reported for k = 1, k = 2 with n = 2r + 1, n = 2r + 2 or r = 1,
    and k = 3 on G(1, 5), each tagged by its case; otherwise unknown."""
    r = GrassShape(r, n).r
    _check_ints("k", (k,), 1)
    if r == 0:
        raise ValueError("the catalog covers Grassmannians with r >= 1, not P^n")
    # answering all k(r + 1) <= n + 1 waits for a re-freeze of the bench's effcone digests
    if k == 1:
        provenance = "one-point-effective-cone"
    elif k == 2 and n == 2 * r + 1:
        provenance = "two-point-effective-cone-minimal-n"
    elif k == 2 and n == 2 * r + 2:
        provenance = "two-point-effective-cone-near-minimal-n"
    elif k == 2 and r == 1:
        provenance = "two-point-effective-cone-lines"
    elif (r, n, k) == (1, 5, 3):
        provenance = "three-point-effective-cone-g15"
    else:
        return ConeData((), UNKNOWN, "none")
    return ConeData(_torus_cone(r, n, k), PROVEN, provenance)


@dataclass(frozen=True)
class Chamber:
    """One Mori chamber: its two extremal rays, the name of the model it
    belongs to, and a description of the attached contraction."""

    rays: tuple[DivisorClass, DivisorClass]
    model: str
    contraction: str


@dataclass(frozen=True)
class ChamberDecomposition:
    """The Mori chamber decomposition of the effective cone of the blow-up
    of G(1, n) at one point."""

    n: int
    walls: tuple[DivisorClass, ...]
    chambers: tuple[Chamber, ...]
    nef: tuple[DivisorClass, DivisorClass]
    movable: tuple[DivisorClass, DivisorClass]
    effective: tuple[DivisorClass, DivisorClass]
    fano_flip_model: bool
    flip_anticanonical: DivisorClass | None
    fibration_target: str | None
    note: str = ""


def mori_chambers_g1n1(n: int) -> ChamberDecomposition:
    """Mori chamber decomposition of the effective cone of G(1, n) blown up
    at one point, for n >= 3.

    The walls are E, H, H - E and H - 2E.  The chamber between E and H is
    the blow-down to G(1, n), the one between H and H - E is the nef cone.
    For n >= 4 the chamber between H - E and H - 2E is the nef cone of a
    small modification, a flip, which fibers over G(1, n - 2) with P^4
    fibers on the outer wall and is itself Fano exactly when n >= 5.  For
    n = 3 the last chamber is instead a divisorial contraction onto P^4 and
    the movable cone stops at H - E.
    """
    _check_ints("n", (n,), 3)
    E = divisor_E(0, 1)
    H = divisor_H(1)
    HmE = DivisorClass(1, (1,))
    Hm2E = DivisorClass(1, (2,))
    walls = (E, H, HmE, Hm2E)
    blow_down = Chamber(
        (E, H),
        f"G(1,{n})",
        "divisorial contraction of E, the blow-down to the ambient Grassmannian",
    )
    nef_chamber = Chamber((H, HmE), f"G(1,{n})_1", "the nef chamber of the blow-up itself")
    if n >= 4:
        last = Chamber(
            (HmE, Hm2E),
            f"G(1,{n})_1+",
            "nef chamber of the flip, an isomorphism in codimension two; the "
            f"outer wall H-2E gives a fibration onto G(1,{n - 2}) with P^4 fibers",
        )
        movable = (H, Hm2E)
        flip_anti = DivisorClass(n + 1, (2 * n - 3,))
        fibration = f"G(1,{n - 2})"
        note = "" if n >= 5 else (
            "for n = 4 the anticanonical class of the flip is proportional "
            "to the wall H-E, so the flip is weak Fano but not Fano"
        )
    else:
        last = Chamber(
            (HmE, Hm2E),
            "P4",
            "divisorial chamber: the small resolution picture degenerates and "
            "the second contraction maps onto P^4",
        )
        movable = (H, HmE)
        flip_anti = None
        fibration = None
        note = "for n = 3 the movable cone equals the nef cone"
    return ChamberDecomposition(
        n=n,
        walls=walls,
        chambers=(blow_down, nef_chamber, last),
        nef=(H, HmE),
        movable=movable,
        effective=(E, Hm2E),
        fano_flip_model=n >= 5,
        flip_anticanonical=flip_anti,
        fibration_target=fibration,
        note=note,
    )


# ---------------------------------------------------------------------------
# Mori dream spaces


@dataclass(frozen=True)
class MDSReport:
    """Mori dream space status of the blow-up of G(r, n) (r >= 1) or P^n
    (r = 0) at k general points.

    The verdict is KnownMDS with a reason, or Unknown; rules that exclude
    the Mori dream property are carried in the note, and the conjectural
    movable cone for one-point blow-ups is attached when applicable."""

    r: int
    n: int
    k: int
    verdict: str
    reason: str | None
    note: str = ""
    conjectural: ConeData | None = None

    @property
    def summary(self) -> str:
        if self.verdict == KNOWN_MDS:
            return f"{KNOWN_MDS}({self.reason})"
        return self.verdict


def _movable_conjecture(r: int, n: int) -> ConeData:
    cap = r if n == 2 * r + 1 else r + 1
    walls = ", ".join(["E", "H"] + [f"H-{i}E" if i > 1 else "H-E" for i in range(1, cap + 1)])
    return ConeData(
        (divisor_H(1), DivisorClass(1, (cap,))),
        PROVEN if r == 1 else CONJECTURAL,
        "movable-cone-of-one-point-blow-up",
        f"walls of the chamber decomposition: {walls}; established for lines",
    )


def _mds_projective(n: int, k: int) -> tuple[str, str | None, str]:
    if n == 2:
        bound = 8
    elif n == 3:
        bound = 7
    elif n == 4:
        bound = 8
    else:
        bound = n + 3
    if k <= bound:
        return (
            KNOWN_MDS,
            "rank2-catalog",
            "inside the complete classification of Mori dream blow-ups of "
            "projective space at general points",
        )
    return (
        MDS_UNKNOWN,
        None,
        f"the classification of blow-ups of P^{n} excludes a Mori dream "
        f"space beyond {bound} general points",
    )


def mds_status(r: int, n: int, k: int) -> MDSReport:
    """Mori dream space status of the blow-up at k general points of
    G(r, n) for r >= 1, or of P^n for r = 0; (r, n) is normalized by
    GrassShape to n >= 2r + 1 and reported so."""
    r = GrassShape(r, n).r
    _check_ints("k", (k,), 0)
    conjectural = _movable_conjecture(r, n) if (k == 1 and r >= 1) else None
    if k == 0:
        return MDSReport(
            r, n, k, KNOWN_MDS, "spherical",
            "the ambient itself is homogeneous, hence spherical",
        )
    if r == 0:
        if k <= n + 1:
            return MDSReport(
                r, n, k, KNOWN_MDS, "spherical",
                "toric varieties are spherical and spherical varieties are "
                "Mori dream spaces",
            )
        verdict, reason, note = _mds_projective(n, k)
        return MDSReport(r, n, k, verdict, reason, note)
    if spherical_status(r, n, k).spherical:
        return MDSReport(
            r, n, k, KNOWN_MDS, "spherical",
            "spherical varieties are Mori dream spaces",
            conjectural,
        )
    if (r, n) == (1, 4) and k in (3, 4):
        return MDSReport(
            r, n, k, KNOWN_MDS, "weakFano",
            "the blow-up is weak Fano, and weak Fano varieties are Mori "
            "dream spaces",
        )
    if (r, n) == (1, 4) and k >= 5:
        return MDSReport(
            r, n, k, MDS_UNKNOWN, None,
            "the largest k with G(1,4) blown up at k general points a Mori "
            "dream space is either 4 or 5: for k >= 6 the effective cone is "
            "conjectured not to be finitely generated",
        )
    return MDSReport(r, n, k, MDS_UNKNOWN, None, "", conjectural)
