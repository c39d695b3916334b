"""Exact-arithmetic Terracini oracle.

Secant dimensions and generic finiteness of tangential and osculating
projections.  Grassmannian jets of every order are signed minors of the
one Pluecker map on whole matrices, and the tangent spaces at general
points are its jets at [I | A]; Segre-Veronese varieties use their
monomial parametrization.  Arithmetic runs over a fixed large prime field
by default: a full-rank specialization proves a lower bound on the
generic rank, so agreement with the expected dimension is a certificate,
while a deficient rank is evidence of defectivity but not a proof.  A
rational trial can be requested for exact cross-checks.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, perm, prod
from operator import mul

from .indices import (
    CapExceeded,  # noqa: F401  (grassdef.oracle.CapExceeded is grassdef.CapExceeded)
    GrassShape,
    SegreVeroneseShape,
    Shape,
    _check_grass_index,
    _check_ints,
    _check_size,
    _check_sv_index,
    _distance_table,
    _int_text,
    coordinate_blocks,
    coordinate_packing,
    distance,  # noqa: F401  (bench/test_bench.py looks it up as grassdef.oracle.distance)
    enumerate_indices,
)

DEFAULT_PRIME = 4611686018427387847  # the largest prime below 2^62
DEFAULT_TRIALS = 3
DEFAULT_SEED = 1729

_COORD_RANGE = 1 << 20  # sample point coordinates uniformly in [1, 2^20]

CERTIFIED = "CertifiedNonDefective"
DEFECT_EVIDENCE = "DefectEvidence"
GENERICALLY_FINITE = "GenericallyFinite"
FIBER_EVIDENCE = "FiberEvidence"
CONSTANT_MAP = "ConstantMap"
HYPOTHESIS_VIOLATED = "HypothesisViolated"

_EVIDENCE_NOTE = (
    "rank over a random specialization only bounds the generic rank from "
    "below; matching the expected dimension is a certificate, a deficit is "
    "evidence of defectivity but not a proof"
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; deterministic below
    318665857834031151167461, a composite that passes all twelve, so in
    particular for 64-bit inputs."""
    if not isinstance(p, int) or p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    twos = (d & -d).bit_length() - 1
    d >>= twos
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """Arithmetic modulo p, for a prime p in [2^31, 2^64): from 2^31 on,
    divided powers of the orders used here never meet the characteristic
    and every sample coordinate in [1, _COORD_RANGE] is a unit, and below
    2^64 is_probable_prime is deterministic."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < (1 << 31):
            raise ValueError("the modulus must be an integer of at least 2^31")
        if self.p >= 1 << 64:
            raise ValueError("the modulus must lie below 2^64")
        if not is_probable_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


# ---------------------------------------------------------------------------
# rank kernels


class RankAccumulator:
    """Incremental rank of a growing list of sparse integer rows.

    Rows are {column: value} dicts with int values.  One elimination serves
    both fields.  Each pivot is a dense segment from its lead column to its
    last nonzero column, stored by lead column as (lead value, entries
    after the lead); a sorted list holds the leads.  An incoming row is
    scattered into one dense list and reduced against the pivots in
    increasing lead order, from the first lead at or after its first column
    until a lead passes its last possibly-nonzero column.  Modulo p every
    lead value is 1, so a step subtracts f times the tail, and entries are
    reduced modulo p only to take each multiplier and on the final segment.
    Over the rationals a step is fraction-free: with g = gcd(d, f) for lead
    value d and row entry f, the row becomes (d/g) row - (f/g) tail, the
    scaling covering the whole row, since its columns before the lead with
    no pivot stay nonzero; a new pivot is divided once by its content.  The
    rank never exceeds ncols, so callers can stop feeding rows once
    ``saturated`` is true.
    """

    def __init__(self, ncols: int, field: PrimeField | None = None) -> None:
        _check_ints("ncols", (ncols,), 0)
        self.ncols = ncols
        self.field = field
        # lead column -> (lead value, segment after the lead)
        self._pivots: dict[int, tuple[int, list[int]]] = {}
        self._leads: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def saturated(self) -> bool:
        return len(self._pivots) >= self.ncols

    def add_row(self, row: dict) -> int:
        """Reduce one row against the accumulated pivots; returns the rank
        after the update."""
        leads, pivots = self._leads, self._pivots
        if self.saturated or not row:
            return len(pivots)
        p = self.field.p if self.field is not None else 0
        first = min(row)
        dense = [0] * (max(row) + 1 - first)
        for c, v in row.items():
            dense[c - first] = v
        for k in range(bisect.bisect_left(leads, first), len(leads)):
            lead = leads[k]
            at = lead - first
            if at >= len(dense):
                break
            f = dense[at] % p if p else dense[at]
            if f:
                d, tail = pivots[lead]
                if d != 1:
                    g = gcd(d, f)
                    d, f = d // g, f // g
                    dense = [d * v for v in dense]
                dense[at] = 0
                if tail:
                    at += 1
                    end = at + len(tail)
                    if end > len(dense):
                        dense.extend([0] * (end - len(dense)))
                    dense[at:end] = [a - f * b for a, b in zip(dense[at:end], tail)]
        end = len(dense)
        while end and not (dense[end - 1] % p if p else dense[end - 1]):
            end -= 1
        if end:
            at = 0
            while not (dense[at] % p if p else dense[at]):
                at += 1
            if p:
                inv = pow(dense[at], -1, p)
                pivot = (1, [v * inv % p for v in dense[at + 1 : end]])
            else:
                g = gcd(*dense[at:end])
                pivot = (dense[at] // g, [v // g for v in dense[at + 1 : end]])
            bisect.insort(leads, first + at)
            pivots[first + at] = pivot
        return len(pivots)


def rank(rows, field: PrimeField | None = None) -> int:
    """Rank of an iterable of integer rows, modulo p or over the rationals
    with the one RankAccumulator elimination; rows may be dense sequences or
    sparse {column: value} dicts, such as the values of a jet_matrix."""
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in rows]
    ncols = max((max(d) + 1 for d in rows if d), default=0)
    acc = RankAccumulator(ncols, field)
    for d in rows:
        acc.add_row(d)
        if acc.saturated:
            break
    return acc.rank


# ---------------------------------------------------------------------------
# parametrizations


class RationalNormalCurve(SegreVeroneseShape):
    """The degree n rational normal curve in P^n: the Veronese embedding
    SV(1;n) of P^1, under the label RNC(n).  Its osculating centers are
    named by coordinate index, 0 or n, the diagonal points 0 and 1."""

    def __init__(self, n: int) -> None:
        _check_ints("n", (n,), 1)
        super().__init__((1,), (n,))

    def _label(self, text) -> str:
        return f"RNC({text(self.d[0])})"


@dataclass(frozen=True)
class Parametrization:
    """A monomial map from affine domain_dim-space, one exponent vector per
    coordinate, with coefficient 1.  blocks are ranges of domain variables
    in each of which every coordinate is homogeneous, the factors of a
    Segre-Veronese variety; _held reads them."""

    domain_dim: int
    coords: tuple[tuple[int, ...], ...]
    blocks: tuple[range, ...]

    @property
    def ncols(self) -> int:
        return len(self.coords)

    @cached_property
    def _tangent_table(self):
        """The top exponent of every variable; for every column the places
        of its powers in the list of the powers 0, ..., top of each variable
        in turn; and for every variable v, last first, but the first of each
        block, which _held names at the unit points _sample_point draws,
        (v, terms): one (column, exponent of v) per column in which v occurs."""
        tops = [max((expo[v] for expo in self.coords), default=0) for v in range(self.domain_dim)]
        offsets = [sum(tops[:v]) + v for v in range(self.domain_dim)]
        places = tuple(tuple(offsets[v] + e for v, e in enumerate(expo) if e) for expo in self.coords)
        held = {block[0] for block in self.blocks}
        rows = tuple(
            (v, tuple((col, expo[v]) for col, expo in enumerate(self.coords) if expo[v]))
            for v in reversed(range(self.domain_dim))
            if v not in held
        )
        return tuple(tops), places, rows


@dataclass(frozen=True)
class PlueckerMap:
    """The maximal minors of an (r+1) x (n+1) matrix, filled row by row by
    the domain_dim = (r+1)(n+1) variables, as a map to the cone over
    G(r, n); jets come from _pluecker_jets.  At [I | A], _held names exactly
    the r+1 identity columns, and _sample_point reads the order 1 rows of
    the entries of A there through _chart_table."""

    shape: GrassShape

    @property
    def domain_dim(self) -> int:
        return (self.shape.r + 1) * (self.shape.n + 1)

    @property
    def ncols(self) -> int:
        return self.shape.num_coords

    @cached_property
    def _chart_table(self):
        """For every entry A_ij of [I | A], last first, the pairs (column of
        K + {j}, source) over the r-subsets K of the other columns in
        increasing order, where the source is the column of K + {i}, plus N
        when K has an odd number of elements between i and j.  Adding one
        column to every K keeps their order, so the columns of the indices
        that hold j but not i pair off in order with those that hold i but
        not j.  _sample_point reads it."""
        size, width, N = self.shape.r + 1, self.shape.n + 1, self.ncols
        masks = [sum(1 << c for c in J) for J in enumerate_indices(self.shape)]
        holding = [[pos for pos, mask in enumerate(masks) if mask >> c & 1] for c in range(width)]
        table = []
        for i in reversed(range(size)):
            for j in reversed(range(size, width)):
                between = (1 << j) - (2 << i)
                targets = [pos for pos in holding[j] if not masks[pos] >> i & 1]
                sources = [
                    pos + N * ((masks[pos] & between).bit_count() & 1)
                    for pos in holding[i]
                    if not masks[pos] >> j & 1
                ]
                table.append(tuple(zip(targets, sources)))
        return tuple(table)


PolynomialMap = Parametrization | PlueckerMap


def _sv_parametrization(shape: SegreVeroneseShape) -> Parametrization:
    offsets = []
    total = 0
    for nj in shape.n:
        offsets.append(total)
        total += nj + 1
    coords = []
    for I in enumerate_indices(shape):
        expo = [0] * total
        for part, off in zip(I, offsets):
            for value in part:
                expo[off + value] += 1
        coords.append(tuple(expo))
    blocks = tuple(range(off, off + nj + 1) for off, nj in zip(offsets, shape.n))
    return Parametrization(total, tuple(coords), blocks)


@lru_cache(maxsize=None)
def build_parametrization(shape: Shape) -> PolynomialMap:
    """The polynomial map of an affine chart cone of the shape, with
    coordinates in enumerate_indices order: the PlueckerMap of maximal
    minors on a Grassmannian, whose jets at [I | A] are the tangent rows of
    the secant and projection tests, and one exponent vector per coordinate
    on a Segre-Veronese variety.  N coordinates times _coord_degree are
    checked against _MAX_ENTRIES before anything is built."""
    _check_size(f"the parametrization of {shape._label(_int_text)}", shape.num_coords * _coord_degree(shape))
    if isinstance(shape, GrassShape):
        return PlueckerMap(shape)
    if isinstance(shape, SegreVeroneseShape):
        return _sv_parametrization(shape)
    raise TypeError(f"unsupported shape {shape!r}")


def _coord_degree(shape: Shape) -> int:
    """The length of a coordinate's index tuple (its degree) and, on a
    Segre-Veronese variety, of its exponent vector; listing the N indices or
    exponent vectors, or one jet of the N coordinates, takes N times this."""
    if isinstance(shape, GrassShape):
        return shape.r + 1
    if isinstance(shape, SegreVeroneseShape):
        return max(shape.d_total, sum(nj + 1 for nj in shape.n))
    raise TypeError(f"unsupported shape {shape!r}")


# ---------------------------------------------------------------------------
# jets


def _emit_jets(rows, col, value, alpha, free, point, budget, modulus) -> None:
    if not free:
        if modulus is not None:
            value %= modulus
        if value:
            rows.setdefault(tuple(alpha), {})[col] = value
        return
    v, ev = free[0]
    rest = free[1:]
    top = min(ev, budget)
    power = pow(point[v], ev - top, modulus)
    for a in range(top, -1, -1):
        alpha[v] = a
        scaled = value * comb(ev, a) * power
        if modulus is not None:
            scaled %= modulus
        _emit_jets(rows, col, scaled, alpha, rest, point, budget - a, modulus)
        power = power * point[v]
        if modulus is not None:
            power %= modulus
    alpha[v] = 0


def jet_matrix(P: PolynomialMap, point, order: int, field: PrimeField | None = None, held=()) -> dict:
    """The divided-power derivative rows of P at the point up to the given
    order, as {alpha: sparse row} in increasing alpha over |alpha| <= order,
    identically zero rows left out.  The row for alpha holds the coefficient
    of z^alpha in the shifted expansion of each coordinate; this equals the
    classical partial derivative divided by alpha!, so entries stay integral
    and the characteristic never divides a spurious factorial.  The domain
    variables in held are not shifted: the rows whose alpha differentiates
    one of them are neither built nor returned.

    A Parametrization is counted against _MAX_ENTRIES before anything is
    built: a coordinate with f variables outside held at nonzero point
    coordinates, of exponents e_v, and a budget b of order minus the weight
    of its variables at zero coordinates gives one entry per a <= e with
    |a| <= b, at most min(prod(min(e_v, b) + 1), C(b + f, f)) of them.  It
    is the only entry of its column in the row of a, so the rows need no
    accumulation."""
    _check_ints("order", (order,), 0)
    point = tuple(point)
    if len(point) != P.domain_dim:
        raise ValueError(f"point must have {P.domain_dim} coordinates")
    modulus = field.p if field is not None else None
    held = frozenset(held)
    if isinstance(P, PlueckerMap):
        rows = _pluecker_jets(P, point, order, modulus, held)
        return {key: rows[key] for key in sorted(rows)}
    terms = []
    entries = 0
    for col, expo in enumerate(P.coords):
        coef = 1
        forced_weight = 0
        free: list[tuple[int, int]] = []
        base = [0] * P.domain_dim
        for v, ev in enumerate(expo):
            if not ev:
                continue
            if v in held:
                coef *= pow(point[v], ev, modulus)
            elif point[v]:
                free.append((v, ev))
            else:
                base[v] = ev
                forced_weight += ev
        budget = order - forced_weight
        if budget < 0:
            continue
        entries += min(prod(min(ev, budget) + 1 for _, ev in free), comb(budget + len(free), budget))
        terms.append((col, coef, base, free, budget))
    _check_size(f"the jet matrix of {P.ncols} coordinates at order {_int_text(order)}", entries)
    rows: dict[tuple[int, ...], dict[int, int]] = {}
    for col, coef, base, free, budget in terms:
        _emit_jets(rows, col, coef, base, free, point, budget, modulus)
    return {key: rows[key] for key in sorted(rows)}


def _pluecker_jets(P: PlueckerMap, point, order: int, modulus: int | None, held: frozenset):
    """The jet rows of a PlueckerMap at a point, from minors of the matrix M
    whose rows the point fills, less those that differentiate a variable in
    held.  Maximal minors are linear in each row, so the coefficient of
    z^alpha in det((M + z)[:, J]) vanishes unless alpha picks one entry
    (i, j_i) in each row i of a set S; then it is the minor on J of M with
    each row i in S replaced by e_{j_i}.  By Laplace expansion along S that
    is zero unless the j_i are distinct and lie in J, and otherwise (-1)^e
    times the minor K of the other rows on J - {j_i}, where e sums S and
    the positions at which the j_i, in the order of S, are inserted one by
    one into K.  A column that vanishes on the other rows, such as column
    i of [I | A] with i in S, gives only zero minors and is skipped.  Before
    anything is built, the matrix is counted against _MAX_ENTRIES: for each
    t = |S| <= order, N C(r+1, t) (r+1)!/(r+1-t)! triples (S, j, J), and
    C(r+1, t) (n+1)!/(n+1-t)! rows (S, j), each keyed by an alpha of length
    domain_dim."""
    shape = P.shape
    size, width = shape.r + 1, shape.n + 1
    top = min(order, size)
    entries = sum(
        comb(size, t) * (shape.num_coords * perm(size, t) + P.domain_dim * perm(width, t))
        for t in range(top + 1)
    )
    _check_size(f"the jet matrix of {shape.label} at order {_int_text(order)}", entries)
    matrix = [point[i * width : (i + 1) * width] for i in range(size)]
    column = {J: pos for pos, J in enumerate(enumerate_indices(shape))}
    # the columns where some variable is not held
    shifted = [j for j in range(width) if not held.issuperset(range(j, P.domain_dim, width))]
    # minors are reduced once, so m - v negates them in either field
    m = modulus or 0
    rows = {}
    for t in range(top + 1):
        for S in itertools.combinations(range(size), t):
            others = [row for i, row in enumerate(matrix) if i not in S]
            cols = [c for c, values in enumerate(zip(*others)) if any(values)]
            minors = [(K, v % m if m else v) for K, v in _maximal_minors(others, cols).items()]
            minors = [(K, v) for K, v in minors if v]
            parity = sum(S)
            for js in itertools.permutations(shifted, t):
                alpha = [i * width + j for i, j in zip(S, js)]
                if not held.isdisjoint(alpha):
                    continue
                row = {}
                for K, v in minors:
                    e = parity
                    for j in js:
                        pos = bisect.bisect(K, j)
                        if pos and K[pos - 1] == j:
                            break
                        K = K[:pos] + (j,) + K[pos:]
                        e += pos
                    else:
                        row[column[K]] = m - v if e & 1 else v
                if row:
                    key = [0] * P.domain_dim
                    for v in alpha:
                        key[v] = 1
                    rows[tuple(key)] = row
    return rows


def _held(P: PolynomialMap, point, field: PrimeField | None) -> frozenset[int]:
    """The held variables of osculating_rank_sweep at the point; none at a
    point of the wrong length, which jet_matrix refuses."""
    m = field.p if field is not None else 0
    unit = (lambda v: v % m) if m else bool
    if len(point) != P.domain_dim:
        return frozenset()
    if isinstance(P, Parametrization):
        return frozenset(next((v for v in block if unit(point[v])), None) for block in P.blocks) - {None}
    size, width = P.shape.r + 1, P.shape.n + 1
    # fraction-free elimination of the rows not yet pivoted; each pivot is a
    # unit, so every step is invertible over the field
    rows, cols = [point[i * width : (i + 1) * width] for i in range(size)], []
    for c in range(width):
        top = next((row for row in rows if unit(row[c])), None)
        if top is not None:
            rows.remove(top)
            rows = [[top[c] * a - row[c] * b for a, b in zip(row, top)] for row in rows]
            cols.append(c)
    return frozenset(i * width + c for i in range(size) for c in cols) if len(cols) == size else frozenset()


def osculating_rank_sweep(P: PolynomialMap, point, s_max: int, field: PrimeField | None = None) -> list[int]:
    """Rank of the order s jet matrix of P at the point for every
    s = 0, ..., s_max, computed with a single elimination pass by feeding
    rows level by level.

    The rows that differentiate a held variable are neither built nor fed,
    and every rank stays the same, over Q and modulo every allowed p.
    _held names, in each block of a Parametrization, the first variable
    whose coordinate is a unit in the field, and on a PlueckerMap the
    variables of the first r + 1 columns, in order, that are linearly
    independent at the point, if there are r + 1: at [I | A] exactly the
    identity columns.  Write D_beta for the classical derivative of the
    coordinates at the point a; the jet row of beta is D_beta / beta!, and
    where it is nonzero beta! is a unit: its prime factors are at most the
    degree of a coordinate, which the size cap keeps below 2^31 <= p.
    - Segre-Veronese: every coordinate is homogeneous of degree d_j in the
      variables x_{j,v} of factor j, so sum_v x_{j,v} d_{j,v} F = d_j F.
      Differentiating by beta and evaluating at a gives
      sum_v a_{j,v} D_{beta + e_{j,v}} = (d_j - |beta_j|) D_beta, where
      |beta_j| counts the derivatives in factor j.  With a_{j,h} a unit,
      D_{beta + e_{j,h}} lies in the span of D_beta and of the
      D_{beta + e_{j,v}} with v != h.
    - PlueckerMap: every maximal minor F of the matrix X satisfies
      sum_c x_{kc} d_{ic} F = delta_{ik} F, GL_{r+1} acting on the rows.
      Differentiating by beta adds only terms of order |beta|:
      sum_c a_{kc} D_{beta + e_{ic}} is a combination of rows of order
      |beta| for every k.  With the columns H invertible at a, these r + 1
      equations give each D_{beta + e_{ic}}, c in H, from rows of order
      |beta| and the D_{beta + e_{ic'}} with c' outside H.
    By induction on the order, and then on the number of held variables that
    beta differentiates, every row that differentiates a held variable lies
    in the span of the rows of no higher order that differentiate none."""
    by_level: dict[int, list] = {}
    for key, row in jet_matrix(P, point, s_max, field, _held(P, point, field)).items():
        by_level.setdefault(sum(key), []).append(row)
    acc = RankAccumulator(P.ncols, field)
    out = []
    for s in range(s_max + 1):
        for row in by_level.get(s, []):
            acc.add_row(row)
        out.append(acc.rank)
    return out


# ---------------------------------------------------------------------------
# secant dimensions


def _oracle_field(prime: int | str, trials: int, h: int = 1) -> PrimeField | None:
    """The field of an oracle request, None for "rational".  A bool or
    non-integer h or trials raises TypeError; h < 1, trials outside
    [1, 64] and a prime that is neither an integer nor "rational" raise
    ValueError."""
    _check_ints("h", (h,), 1)
    _check_ints("trials", (trials,), 1, 64)
    if prime == "rational":
        return None
    if isinstance(prime, int):
        return _prime_field(prime)
    raise ValueError('prime must be an integer prime or "rational"')


@lru_cache(maxsize=8)
def _prime_field(p: int) -> PrimeField:
    """PrimeField(p) once per modulus; its Miller-Rabin test costs as much as a small request."""
    return PrimeField(p)


def _sample_point(P: PolynomialMap, rng: random.Random, field: PrimeField | None):
    """The order 1 jet rows of P at a random point a, every drawn
    coordinate in [1, _COORD_RANGE], on G(r, n) the dim X entries of A in
    a = [I | A], row by row: the value row f(a) and one derivative row per
    domain variable, less the rows of the held variables, which lie in the
    span of the others (osculating_rank_sweep).

    All of them span a space of dimension exactly dim X + 1 over Q and
    modulo every allowed prime (p >= 2^31 > _COORD_RANGE), because every
    drawn coordinate is a unit there; so no smoothness check is needed.
    - G(r, n): _held names exactly the r+1 identity columns of [I | A],
      which leaves the rows of the A_ij.  The row of A_ij has a coefficient
      of +-1 at the index {0, ..., r} - {i} + {j}, where every other
      derivative row vanishes, and f(a) is the only row nonzero at
      {0, ..., r}, where it is 1: rank dim X + 1 at every A.  The chart
      A -> [I | A] is an open immersion onto a dense open subset of
      G(r, n), so these rows span the affine tangent space of the cone at a
      point of G, and their entries are integer polynomials in A.  Stacked
      at h points their rank over Q(A_1, ..., A_h) is the generic rank, an
      integer specialization reduced modulo p can only lower it, and the
      rank is lower semicontinuous on the dense chart, so a general choice
      of points reaches it.
    - Segre-Veronese: f(a) has the entries a^I, and the row of x_{j,v} has
      entries m_{j,v}(I) a^I / a_{j,v}, where m_{j,v}(I) is the multiplicity
      of v in the j-th part of I.  On the columns of I_0 = (0, ..., 0) and
      of the I_{j,v} (v >= 1) that change one entry of the j-th part of I_0
      to v, f(a) and the rows of the x_{j,v} with v >= 1 form a triangular
      matrix whose diagonal entries are nonzero monomials in a: rank at
      least sum n_j + 1 = dim X + 1.  Every a_{j,0} is a unit, so _held
      names the t variables x_{j,0}, whose rows lie in that span, also on
      any subset of the columns: dim X + 1 rows per point.

    The rows are those of jet_matrix(P, a, 1, field, _held(P, a, field)),
    entry for entry and in its order, but every derivative row is read
    from the point's own coordinates through a table of the map that does
    not depend on a, built once per map object:
    - PlueckerMap, M = [I | A]: for a column j of A in J, the row i not in
      J and K = J - {j}, dp_J/dA_ij = (-1)^(pos+q) p_{K+{i}}, with pos and q
      the elements of K below j and below i; as i < j, pos + q has the
      parity of the elements of K between i and j.  Laplace expansion
      along row i gives (-1)^(i+pos) times the minor of the other rows on
      K, and expanding p_{K+{i}} along its column i, which is e_i, gives
      (-1)^(i+q) times the same minor; for i in J that minor has the zero
      column i.  So f(a) = _maximal_minors(M) once, and the row of A_ij
      gathers +-p_{K+{i}} from it (PlueckerMap._chart_table).
    - Parametrization: the derivative of a^e along v is e_v a^e / a_v.
      Every a_v lies in [1, _COORD_RANGE], so it divides exactly over Q and
      is a unit modulo every allowed p; each coordinate is evaluated once
      and scaled into the rows of its variables
      (Parametrization._tangent_table), which has no rows for the first
      variable of each block, the ones _held names at a.  No entry
      vanishes: a^e is a unit and e_v is at most the degree, below
      2^31 <= p.
    """
    m = field.p if field is not None else 0
    if isinstance(P, Parametrization):
        point = tuple(rng.randint(1, _COORD_RANGE) for _ in range(P.domain_dim))
        tops, places, table = P._tangent_table
        step = (lambda x, a: x * a % m) if m else mul
        powers = [x for a, top in zip(point, tops) for x in itertools.accumulate([a] * top, step, initial=1)]
        value = [prod(map(powers.__getitem__, at)) for at in places]
        if m:
            value = [x % m for x in value]
        rows = [dict(enumerate(value))]
        for v, terms in table:
            if m:
                inv = pow(point[v], -1, m)
                rows.append({c: e * value[c] * inv % m for c, e in terms})
            else:
                rows.append({c: e * value[c] // point[v] for c, e in terms})
        return rows
    size, f = P.shape.r + 1, P.shape.n - P.shape.r
    A = [rng.randint(1, _COORD_RANGE) for _ in range(P.shape.dim)]
    matrix = [[int(c == i) for c in range(size)] + A[i * f : (i + 1) * f] for i in range(size)]
    value = [v % m if m else v for v in _maximal_minors(matrix, range(size + f)).values()]
    signed = value + [m - v if v else 0 for v in value]
    return [{c: v for c, v in enumerate(value) if v}] + [
        {c: w for c, source in pairs if (w := signed[source])} for pairs in P._chart_table
    ]


def _maximal_minors(rows, cols) -> dict[tuple[int, ...], int]:
    """All maximal minors of the integer rows restricted to the columns
    cols, keyed by increasing column tuples.  Built from the bottom row up
    by Laplace expansion along the top row, so the arithmetic stays
    fraction-free."""
    minors = {(): 1}
    for k, row in enumerate(reversed(rows), 1):
        level = {}
        for K in itertools.combinations(cols, k):
            total = 0
            for pos, c in enumerate(K):
                if row[c]:
                    term = row[c] * minors[K[:pos] + K[pos + 1 :]]
                    total += -term if pos & 1 else term
            level[K] = total
        minors = level
    return minors


def _check_terracini_size(shape: Shape, k: int) -> None:
    """Refuse stacking the tangent spaces at k points of the shape when it
    builds more than _MAX_ENTRIES entries: for N coordinates the
    RankAccumulator holds at most N min(k (dim X + 1), N) of them, and the
    indices and jets behind the rows take N times _coord_degree.  This also
    counts the table _sample_point reads, one entry per entry of A and
    column on a Grassmannian, or per variable of a coordinate: at most
    N max(dim X, _coord_degree), as N >= dim X + 1."""
    N = shape.num_coords
    entries = N * max(min(k * (shape.dim + 1), N), _coord_degree(shape))
    _check_size(f"the Terracini matrix of {shape._label(_int_text)} at {_int_text(k)} point(s)", entries)


def _coordinate_points(shape, h: int) -> list[list[tuple[object, int]]]:
    """The coordinate points a stack of h tangent spaces may start with, as
    lists of (index, 1) to try in turn: the first min(h, m) centers of the
    coordinate_packing if m > alpha, then the first k = min(h, alpha)
    coordinate_blocks.  The affine tangent space of the cone at such a
    point is spanned by the unit vectors of the radius 1 ball around its
    index, so the rank of a stack is the number of columns in the balls
    plus the rank of the other points' rows on the remaining columns.

    Soundness for Terracini's lemma: at any points, the rank after each
    group of a stack is at most the generic one (lower semicontinuity), so
    a packed stack that reaches its ceilings certifies; a deficit there
    proves nothing.  At the blocks more holds: the rank after each group
    is invariant under the linear group of the embedding (GL_{n+1}, a
    product of GL_{n_j+1}) and lower semicontinuous in the points, so the
    tuples on which every group's rank is generic form a dense open
    invariant set U.  The group is transitive on k-tuples of (r+1)-subspaces
    spanning their direct sum when k(r+1) <= n+1, and on k-tuples of points
    whose components are linearly independent in every factor when
    k <= n_j + 1 for all j.  Both sets are dense open, so the orbit of the
    coordinate k-tuple is dense, meets the open image of U among k-tuples,
    and by invariance lies in it.  A general choice of the other points
    then reaches every generic rank, which an integer specialization reduced
    modulo p only lowers.  For h <= alpha a secant stack has no other points
    and the union of the balls is the generic span exactly.

    The packing is walked only where it can beat the blocks: not for
    h <= alpha, as min(h, m) <= h = min(h, alpha); not on G(r, n) with
    normalized r <= 2, where distance r + 1 - |I cap J| >= 3 leaves
    |I cap J| <= r - 2 < 1, so the centers are disjoint (r+1)-sets and
    m <= alpha; not on one Segre-Veronese factor, whose n + 1 pure points
    (v, ..., v) number alpha.
    """
    blocks = coordinate_blocks(shape, h)
    within = shape.r <= 2 if isinstance(shape, GrassShape) else shape.factors == 1
    packing = [] if len(blocks) == h or within else coordinate_packing(shape, h)
    stacks = [packing, blocks] if len(packing) > len(blocks) else [blocks]
    return [[(index, 1) for index in stack] for stack in stacks]


def _trial(P: PolynomialMap, column_of: dict, groups: list[int], field, seed: int, label, ceilings) -> tuple[int, ...]:
    """The ranks of trial `label` after each group of fresh points, their
    order 1 jet rows from _sample_point restricted to the columns in
    column_of, renumbered by it, in one RankAccumulator over the field
    (None for Q); ceilings[i] bounds the rank after group i in any field.
    The points come in order from random.Random("seed:label"), and none is
    drawn once the accumulator saturates.  A rational request first runs
    modulo DEFAULT_PRIME at the same integer points: a nonzero minor modulo
    p reduces from a nonzero integer minor, so reaching every ceiling there
    gives the same ranks over Q, and only a label that falls short reruns
    fraction-free."""
    for F in [field] if field is not None else [_prime_field(DEFAULT_PRIME), None]:
        rng = random.Random(f"{seed}:{label}")
        acc = RankAccumulator(len(column_of), F)
        ranks = []
        for points in groups:
            for _ in range(points):
                if acc.saturated:
                    break
                for row in _sample_point(P, rng, F):
                    if acc.saturated:
                        break
                    restricted = {column_of[c]: v for c, v in row.items() if c in column_of}
                    if restricted:
                        acc.add_row(restricted)
            ranks.append(acc.rank)
        if tuple(ranks) == ceilings:
            break
    return tuple(ranks)


def _coordinate_ranks(shape, points: tuple[int, ...], field, seed, labels):
    """Yield one tuple per trial label: the ranks after the first k points,
    for each k in points, of a stack that starts at _coordinate_points(shape,
    points[0]), run by _trial on exactly the columns outside the balls with
    the ceilings min(k (dim X + 1), N) - dropped.  Each label runs on the
    first stack no earlier label fell short on, and moves to the next while
    it falls short on one before the last, which is then dropped for good.
    A stack's survivor columns are built when it is first reached."""
    P = build_parametrization(shape)
    stacks = _coordinate_points(shape, points[0])
    column_of = None
    for label in labels:
        while True:
            if column_of is None:
                coordinate = stacks.pop(0)
                column_of = _survivor_columns(shape, coordinate)
                dropped = shape.num_coords - len(column_of)
                groups = [b - a for a, b in zip((len(coordinate),) + points, points)]
                ceilings = tuple(min(k * (shape.dim + 1), shape.num_coords) - dropped for k in points)
            ranks = _trial(P, column_of, groups, field, seed, label, ceilings)
            if ranks == ceilings or not stacks:
                break
            column_of = None
        yield tuple(dropped + rank for rank in ranks)


def _best_trial(ranks, ceilings: tuple[int, ...]) -> tuple[int, ...]:
    """The best of the rank tuples in the iterable ranks, consumed in order
    up to the first equal to the ceilings, which no trial exceeds, so the
    tuples left out cannot change the best one."""
    ran = []
    for trial in ranks:
        ran.append(trial)
        if trial == ceilings:
            break
    return max(ran)


@dataclass
class DefectivityCertificate:
    """Outcome of a secant dimension computation.

    computed_dim is the best rank seen over all trials minus one; the
    verdict is CertifiedNonDefective exactly when some trial reaches the
    expected dimension, and DefectEvidence otherwise.  The note records the
    asymmetry between the two outcomes.
    """

    shape: str
    h: int
    expected_dim: int
    computed_dim: int
    defect: int
    verdict: str
    trials: tuple[int, ...]
    prime: int | str
    seed: int
    note: str = ""

    def to_dict(self) -> dict:
        """The certificate under the CLI's keys; elapsed_ms is always None,
        kept so that the JSON keys stay as they were."""
        return {
            "shape": self.shape,
            "h": self.h,
            "expected": self.expected_dim,
            "computed": self.computed_dim,
            "defect": self.defect,
            "verdict": self.verdict,
            "prime": self.prime,
            "seed": self.seed,
            "trials": list(self.trials),
            "elapsed_ms": None,
        }


def secant_dimension(
    shape: Shape,
    h: int,
    trials: int = DEFAULT_TRIALS,
    prime: int | str = DEFAULT_PRIME,
    seed: int = DEFAULT_SEED,
) -> DefectivityCertificate:
    """Dimension of the h-secant variety of the shape, by stacking the
    affine tangent spaces of the cone at h points (Terracini's lemma): the
    first are coordinate points whose tangent spaces drop columns, on a
    stack of _coordinate_points chosen per trial by _coordinate_ranks, the
    others random, each contributing the order 1 jet rows of _sample_point,
    at a point [I | A] on a Grassmannian.  For h <= alpha no point is
    random, every trial stacks nothing on the survivor columns, and the
    computed dimension is the exact generic one; a deficit there still
    reads DefectEvidence.

    The expected dimension is min(h (dim X + 1), N + 1) - 1.  Each trial is
    deterministic in (seed, trial index); if the trials disagree one extra
    exact rational trial is run and the best rank over all trials is kept.
    _coordinate_ranks decides the trials; h tangent spaces span at most
    expected + 1 dimensions, so expected + 1 - dropped is the ceiling.
    """
    field = _oracle_field(prime, trials, h)
    _check_terracini_size(shape, h)
    expected = min(h * (shape.dim + 1), shape.ambient_dim + 1) - 1
    ranks = list(_coordinate_ranks(shape, (h,), field, seed, range(trials)))
    note = ""
    if len(set(ranks)) > 1:
        ranks += _coordinate_ranks(shape, (h,), None, seed, ["rational"])
        note = "trials disagreed; escalated to one exact rational trial. "
    results = [rank - 1 for (rank,) in ranks]
    computed = max(results)
    defect = expected - computed
    verdict = CERTIFIED if defect == 0 else DEFECT_EVIDENCE
    if verdict == DEFECT_EVIDENCE:
        note += _EVIDENCE_NOTE
    return DefectivityCertificate(
        shape=shape.label,
        h=h,
        expected_dim=expected,
        computed_dim=computed,
        defect=defect,
        verdict=verdict,
        trials=tuple(results),
        prime=prime,
        seed=seed,
        note=note.strip(),
    )


# ---------------------------------------------------------------------------
# tangential and osculating projections


@dataclass
class ProjectionReport:
    """Outcome of a generic finiteness test for a linear projection of the
    shape away from a span of tangent or osculating spaces."""

    shape: str
    kind: str
    status: str
    variety_dim: int
    ambient_dim: int
    center_rank: int | None = None
    joint_rank: int | None = None
    survivors: int | None = None
    restricted_rank: int | None = None
    note: str = ""


def tangential_projection_finite(
    shape: Shape,
    h: int,
    trials: int = DEFAULT_TRIALS,
    prime: int | str = DEFAULT_PRIME,
    seed: int = DEFAULT_SEED,
) -> ProjectionReport:
    """Whether the projection of the shape away from the span of the
    tangent spaces at h general points is generically finite onto its
    image.

    The test requires the target of the projection to have dimension at
    least dim X, with the span dimension measured on the actual sample;
    otherwise the report status is HypothesisViolated.  Finiteness holds
    exactly when a fresh general tangent space meets the span only in the
    expected way, so the joint rank exceeds the center rank by dim X + 1.
    The first centers are coordinate points; _best_trial reads the trials
    of one _coordinate_ranks stream for k = h and h + 1 points up to the
    first at both ceilings.  A trial at both ceilings on any stack has the
    generic ranks, and a deficit is read only on the last stack.
    """
    field = _oracle_field(prime, trials, h)
    _check_terracini_size(shape, h + 1)
    dim_x, ambient = shape.dim, shape.ambient_dim
    ceilings = tuple(min(k * (dim_x + 1), shape.num_coords) for k in (h, h + 1))
    center, joint = _best_trial(_coordinate_ranks(shape, (h, h + 1), field, seed, range(trials)), ceilings)
    if ambient - center < dim_x:
        status = HYPOTHESIS_VIOLATED
        note = (
            f"the projection away from a span of dimension {center - 1} "
            f"lands in a projective space of dimension {ambient - center}, "
            f"smaller than dim X = {dim_x}; the finiteness question is void"
        )
    elif joint - center == dim_x + 1:
        status = GENERICALLY_FINITE
        note = ""
    else:
        status = FIBER_EVIDENCE
        note = _EVIDENCE_NOTE
    return ProjectionReport(
        shape=shape.label,
        kind="tangential",
        status=status,
        variety_dim=dim_x,
        ambient_dim=ambient,
        center_rank=center,
        joint_rank=joint,
        note=note,
    )


def _center_index(shape, index):
    """The coordinate index of one osculating center, validated: an index
    tuple on G(r, n), a diagonal value or index on a Segre-Veronese
    variety, and on RNC(n) the coordinate index 0 or n of a diagonal point."""
    if isinstance(shape, GrassShape):
        return _check_grass_index(shape, tuple(index))
    if isinstance(shape, RationalNormalCurve):
        _check_ints("rational normal curve centers", (index,))
        if index not in (0, shape.d[0]):
            raise ValueError(
                "rational normal curve centers must be the coordinate "
                "points with index 0 or n"
            )
        index = 1 if index else 0
    if isinstance(shape, SegreVeroneseShape):
        if isinstance(index, int):
            index = tuple((index,) * dj for dj in shape.d)
        index = tuple(tuple(part) for part in index)
        if len({a for part in index for a in part}) != 1:
            raise ValueError(
                "Segre-Veronese osculating centers must be diagonal "
                "coordinate points, constant across all factors"
            )
        return _check_sv_index(shape, index)
    raise TypeError(f"unsupported shape {shape!r}")


def _osculating_centers(shape, centers) -> list[tuple[object, int]]:
    checked = []
    for index, order in centers:
        index = _center_index(shape, index)
        _check_ints("orders", (order,), 0)
        for other, _ in checked:
            if isinstance(shape, GrassShape):
                if set(other) & set(index):
                    raise ValueError(
                        "osculating centers on a Grassmannian must have "
                        "pairwise disjoint index supports"
                    )
            elif other == index:
                raise ValueError("osculating centers must be distinct")
        checked.append((index, order))
    return checked


def _survivor_columns(shape, checked) -> dict[int, int]:
    """The positions of the coordinates farther than s_i from the i-th
    center for every i, read from the centers' distance tables, each mapped
    to its place among them; with no centers, every position."""
    survivors = range(shape.num_coords)
    for I, s in checked:
        distances = _distance_table(shape, I)[1]
        survivors = [pos for pos in survivors if distances[pos] > s]
    return {col: place for place, col in enumerate(survivors)}


def osculating_projection_finite(
    shape: Shape,
    centers,
    trials: int = DEFAULT_TRIALS,
    prime: int | str = DEFAULT_PRIME,
    seed: int = DEFAULT_SEED,
) -> ProjectionReport:
    """Whether the projection of the shape away from the span of the
    osculating spaces at the given centers is generically finite.

    centers is a list of (coordinate index, order) pairs; the span of the
    order s_i osculating space at the i-th center kills exactly the
    coordinates within distance s_i of its index, so the projection keeps
    the surviving coordinates.  The status is GenericallyFinite when the
    restricted order 1 jet at a general point has full rank dim X + 1,
    ConstantMap when no coordinate survives or the restricted rank is at
    most 1, and FiberEvidence otherwise.  Each trial runs once on the
    survivors by _trial, up to the first that reaches the ceiling
    min(dim X + 1, survivors) (_best_trial).
    """
    field = _oracle_field(prime, trials)
    if not centers:
        raise ValueError("at least one center is required")
    _check_terracini_size(shape, 1)
    checked = _osculating_centers(shape, centers)
    survivors = _survivor_columns(shape, checked)
    dim_x, ambient = shape.dim, shape.ambient_dim
    base = ProjectionReport(
        shape=shape.label,
        kind="osculating",
        status=CONSTANT_MAP,
        variety_dim=dim_x,
        ambient_dim=ambient,
        survivors=len(survivors),
    )
    if not survivors:
        base.note = "every coordinate lies in the span of the osculating centers"
        return base
    ceilings = (min(dim_x + 1, len(survivors)),)
    P = build_parametrization(shape)
    ranks = (_trial(P, survivors, [1], field, seed, label, ceilings) for label in range(trials))
    best = base.restricted_rank = _best_trial(ranks, ceilings)[0]
    if best == dim_x + 1:
        base.status = GENERICALLY_FINITE
    elif best <= 1:
        base.status = CONSTANT_MAP
        base.note = "the surviving coordinates are proportional"
    else:
        base.status = FIBER_EVIDENCE
        base.note = _EVIDENCE_NOTE
    return base

