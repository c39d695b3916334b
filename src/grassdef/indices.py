"""Index combinatorics for Pluecker coordinates and Segre-Veronese monomials.

Coordinates of G(r, n) are indexed by strictly increasing (r+1)-tuples in
{0, ..., n}.  Coordinates of a Segre-Veronese variety are indexed by one
weakly increasing d_j-tuple with entries in {0, ..., n_j} per factor.  Both
families carry a distance function; balls in that distance control which
coordinates a given osculating space touches, and the delta sets below are
the combinatorial core of the degeneration argument behind the bounds
module.  Being the leaf every layer imports, it also holds the one size
cap and the digit check on printed integers.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb, log10, prod

# the one size cap on the entries a request may build (pivot store, index
# list, monomial list, jet matrix, curve classes), that is 4000 coordinates
# at full rank
_MAX_ENTRIES = 4000 * 4000


class CapExceeded(RuntimeError):
    """Raised when a request would build more than _MAX_ENTRIES entries, or
    answer with an integer too long to print, instead of silently taking
    unbounded time or memory."""


def _int_text(n: int) -> str:
    """n >= 0 in full below 10^20, so every 64-bit value, else as 10^k for k
    the integer part of log10 n, whatever the interpreter's limit on str()."""
    return str(n) if n < 10**20 else f"10^{int(log10(n))}"


def _check_size(label: str, entries: int) -> None:
    if entries > _MAX_ENTRIES:
        # callers write the integers in label with _int_text too
        count = _int_text(entries)
        raise CapExceeded(f"{label} needs about {count} entries, above the cap of {_MAX_ENTRIES}")


def _check_digits(label: str, log10: float, value: int | None = None) -> None:
    """Refuse a result of about 10**log10 with more decimal digits than str()
    converts (sys.get_int_max_str_digits(), 0 for no limit).  The 1e-6
    margin absorbs the float error of log10, so whatever passes prints.  A
    caller that holds the integer passes it as value, and within the margin
    it is refused exactly when |value| >= 10**limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and log10 > limit - 1e-6 and (value is None or abs(value) >= 10**limit):
        digits = int(log10) + 1 if value is None else max(int(log10), limit) + 1
        raise CapExceeded(
            f"{label} has about {digits} digits, above the limit of {limit} on printed integers"
        )


def _check_ints(name: str, values, low: int | None = None, high: int | None = None) -> tuple[int, ...]:
    """The values as a tuple; a bool or a non-integer raises TypeError
    instead of being truncated, and a value below low or above high raises
    ValueError."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"expected integer {name}, got {values!r}")
        if low is not None and v < low or high is not None and v > high:
            bounds = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{name} must be {bounds}, got {v}")
    return values


@dataclass(frozen=True)
class GrassShape:
    """The Grassmannian of projective r-planes in P^n.

    Shapes are normalized on construction: G(r, n) and G(n-r-1, n) have the
    same coordinate combinatorics, so when r > n-r-1 the dual parameters are
    stored instead.
    """

    r: int
    n: int

    def __post_init__(self) -> None:
        _check_ints("r and n", (self.r, self.n))
        if not 0 <= self.r < self.n:
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        if self.r > self.n - self.r - 1:
            object.__setattr__(self, "r", self.n - self.r - 1)

    @property
    def dim(self) -> int:
        return (self.r + 1) * (self.n - self.r)

    @property
    def num_coords(self) -> int:
        return comb(self.n + 1, self.r + 1)

    @property
    def ambient_dim(self) -> int:
        return self.num_coords - 1

    def _label(self, text) -> str:
        # refusal lines pass _int_text, which writes any integer
        return f"G({text(self.r)},{text(self.n)})"

    label = property(lambda self: self._label(str))


@dataclass(frozen=True)
class SegreVeroneseShape:
    """The Segre-Veronese variety: P^{n_1} x ... x P^{n_t} embedded by the
    complete linear system of multidegree (d_1, ..., d_t).

    The embedding does not depend on the order of the factors, so factors
    are stored sorted by (n_j, d_j).
    """

    n: tuple[int, ...]
    d: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _check_ints("factor dimensions", self.n, 1)
        d = _check_ints("degrees", self.d, 1)
        if not n or len(n) != len(d):
            raise ValueError("n and d must be nonempty tuples of equal length")
        order = sorted(range(len(n)), key=lambda j: (n[j], d[j]))
        object.__setattr__(self, "n", tuple(n[j] for j in order))
        object.__setattr__(self, "d", tuple(d[j] for j in order))

    @property
    def factors(self) -> int:
        return len(self.n)

    @property
    def dim(self) -> int:
        return sum(self.n)

    @property
    def d_total(self) -> int:
        return sum(self.d)

    @property
    def num_coords(self) -> int:
        return prod(comb(nj + dj, nj) for nj, dj in zip(self.n, self.d))

    @property
    def ambient_dim(self) -> int:
        return self.num_coords - 1

    def _label(self, text) -> str:
        return f"SV({','.join(map(text, self.n))};{','.join(map(text, self.d))})"

    label = property(lambda self: self._label(str))


Shape = GrassShape | SegreVeroneseShape


def _check_grass_index(shape: GrassShape, I) -> tuple[int, ...]:
    I = _check_ints("index entries", I, 0, shape.n)
    if len(I) != shape.r + 1:
        raise ValueError(f"index must have {shape.r + 1} entries, got {I}")
    if any(b <= a for a, b in zip(I, I[1:])):
        raise ValueError(f"index must be strictly increasing, got {I}")
    return I


def _check_sv_index(shape: SegreVeroneseShape, I) -> tuple[tuple[int, ...], ...]:
    I = tuple(map(tuple, I))
    if len(I) != shape.factors:
        raise ValueError(f"index must have {shape.factors} factor parts, got {I}")
    for part, nj, dj in zip(I, shape.n, shape.d):
        _check_ints("index entries", part, 0, nj)
        if len(part) != dj:
            raise ValueError(f"factor part {part} must have {dj} entries")
        if any(b < a for a, b in zip(part, part[1:])):
            raise ValueError(f"factor part {part} must be weakly increasing")
    return I


def _factor_parts(shape: SegreVeroneseShape) -> list[list[tuple[int, ...]]]:
    """The weakly increasing parts of each factor, in lexicographic order."""
    cwr = itertools.combinations_with_replacement
    return [list(cwr(range(nj + 1), dj)) for nj, dj in zip(shape.n, shape.d)]


def enumerate_indices(shape: Shape) -> list:
    """All coordinate indices of the shape, in lexicographic order."""
    if isinstance(shape, GrassShape):
        return list(itertools.combinations(range(shape.n + 1), shape.r + 1))
    if isinstance(shape, SegreVeroneseShape):
        return list(itertools.product(*_factor_parts(shape)))
    raise TypeError(f"unsupported shape {shape!r}")


def grass_distance(I, J) -> int:
    """Number of entries of I not appearing in J.

    Symmetric, and a metric on index tuples of one length; tuples of
    different lengths raise ValueError.
    """
    if len(I) != len(J):
        raise ValueError(f"indices of different lengths: {I} and {J}")
    return len(I) - len(set(I) & set(J))


def _part_distance_from(a):
    """The multiset distance d_j - |A cap B| from the part A, as a function of
    the sorted part B; A's (value, count) pairs are taken once."""
    pairs = [(value, a.count(value)) for value in set(a)]
    return lambda b: sum(max(c - bisect_right(b, v) + bisect_left(b, v), 0) for v, c in pairs)


def sv_distance(I, J) -> int:
    """Sum over factors of the multiset distance d_j - |I^j cap J^j|; parts
    may be unsorted.  Being additive over factors lets ``_distance_table``
    tabulate each factor's parts on their own.  Indices whose factor counts
    or part lengths differ raise ValueError."""
    if list(map(len, I)) != list(map(len, J)):
        raise ValueError(f"indices of different shapes: {I} and {J}")
    return sum(_part_distance_from(tuple(a))(sorted(b)) for a, b in zip(I, J))


def _metric(shape: Shape):
    """The index check and the distance function of the shape's family."""
    if isinstance(shape, GrassShape):
        return _check_grass_index, grass_distance
    if isinstance(shape, SegreVeroneseShape):
        return _check_sv_index, sv_distance
    raise TypeError(f"unsupported shape {shape!r}")


def distance(shape: Shape, I, J) -> int:
    """Coordinate distance on the index family of the shape."""
    check, dist = _metric(shape)
    return dist(check(shape, I), check(shape, J))


@lru_cache(maxsize=8)
def _distance_table(shape: Shape, I) -> tuple[tuple, tuple[int, ...]]:
    """The shape's indices in ``enumerate_indices`` order and the distance of
    each from the index I, which is checked here, so once per cached center.
    No public function is called, so public call counts do not depend on
    what the cache holds."""
    I = _metric(shape)[0](shape, I)
    if isinstance(shape, GrassShape):
        indices = tuple(itertools.combinations(range(shape.n + 1), shape.r + 1))
        center = set(I)
        return indices, tuple(len(I) - len(center.intersection(J)) for J in indices)
    parts = _factor_parts(shape)
    distances = [map(_part_distance_from(a), table) for a, table in zip(I, parts)]
    return tuple(itertools.product(*parts)), tuple(map(sum, itertools.product(*distances)))


def ball(shape: Shape, I, s: int) -> list:
    """Indices at distance at most s from I, in ``enumerate_indices`` order,
    as a fresh list filtered from the center's ``_distance_table``."""
    _check_ints("radius", (s,), 0)
    check, _ = _metric(shape)
    key = tuple(I) if isinstance(shape, GrassShape) else tuple(map(tuple, I))
    entries = key if isinstance(shape, GrassShape) else itertools.chain.from_iterable(key)
    # a center of exact ints, whose equal keys are equal centers, is checked
    # in the cached table; any other, such as one whose bools or floats
    # equal valid entries, is checked on every call
    indices, distances = _distance_table(shape, key if set(map(type, entries)) == {int} else check(shape, I))
    return list(itertools.compress(indices, [d <= s for d in distances]))


def coordinate_blocks(shape: Shape, k: int) -> list:
    """The first min(k, alpha) of the shape's alpha disjoint coordinate
    indices: the blocks I_j = (j(r+1), ..., j(r+1)+r) on G(r, n), with
    alpha = floor((n+1)/(r+1)), and the diagonal indices v = 0, 1, ... on a
    Segre-Veronese variety, with alpha = min n_j + 1.  Any two of them share
    no entry (in any factor part)."""
    _check_ints("block count", (k,), 0)
    if isinstance(shape, GrassShape):
        size = shape.r + 1
        count = min(k, (shape.n + 1) // size)
        return [tuple(range(j * size, (j + 1) * size)) for j in range(count)]
    if isinstance(shape, SegreVeroneseShape):
        count = min(k, shape.n[0] + 1)
        return [tuple((v,) * dj for dj in shape.d) for v in range(count)]
    raise TypeError(f"unsupported shape {shape!r}")


def coordinate_packing(shape: Shape, k: int) -> list:
    """The first k centers of the lexicographic code (Conway-Sloane, IEEE
    Trans. IT 32, 1986) on the shape's coordinate points, taken in
    increasing order of their words: an index at distance at least 3 from
    those kept before it is kept, so the radius 1 balls around the centers
    are disjoint.  On G(r, n) the points are all indices, the word of I is
    its indicator vector with entry 0 first, so the walk is
    enumerate_indices backwards, and the condition is |I cap J| <= r - 2.
    On a Segre-Veronese variety they are the pure indices, each part
    constant, and the word is their values.  The walk stops once k
    centers are kept."""
    _check_ints("center count", (k,), 0)
    dist = _metric(shape)[1]
    if isinstance(shape, GrassShape):
        points = reversed(enumerate_indices(shape))
    else:
        values = itertools.product(*(range(nj + 1) for nj in shape.n))
        points = (tuple((v,) * dj for v, dj in zip(vs, shape.d)) for vs in values)
    kept = []
    for I in points:
        if len(kept) == k:
            break
        if all(dist(I, J) >= 3 for J in kept):
            kept.append(I)
    return kept


def delta_set(shape: GrassShape, I, l: int) -> list:
    """Indices obtained from I by moving |l| entries between the first two
    coordinate blocks.

    With I1 = (0, ..., r) and I2 = (r+1, ..., 2r+1), a positive step l
    replaces l entries i of I lying in I1 by i + r + 1; a negative step
    undoes such moves.  Every J returned satisfies d(J, I) = |l| and
    d(J, I1) = d(I, I1) + l.  Steps that cannot be realized give the empty
    list, and l = 0 gives [I].
    """
    if not isinstance(shape, GrassShape):
        raise TypeError("delta sets are defined for Grassmannian shapes")
    I = _check_grass_index(shape, I)
    _check_ints("step l", (l,))
    i1, i2 = coordinate_blocks(shape, 2)
    if l == 0:
        return [I]
    block, shift = (i1, shape.r + 1) if l > 0 else (i2, -(shape.r + 1))
    out = set()
    for moved in itertools.combinations(set(I) & set(block), abs(l)):
        kept = set(I) - set(moved)
        shifted = {a + shift for a in moved}
        if not kept & shifted:
            out.add(tuple(sorted(kept | shifted)))
    return sorted(out)

