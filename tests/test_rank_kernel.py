"""RankAccumulator against an independent rational rank, row by row.

Every matrix has at most 12 columns and entries of absolute value at most
9 before multiples of p are added, so by Hadamard's bound each nonzero
minor is smaller than (sqrt(12) * 9)^12 < 2^60 < p in absolute value: the
rank modulo p equals the rank over Q exactly, not just with high
probability.

The integer determinant behind Schubert multiplicities and the closed
form of the limit hyperplanes are checked against Fraction eliminations
kept here.  The osculating sweep, which leaves out the rows of its held
variables, is checked level by level against the rank of the full jet
matrix, and the sampled tangent rows, read from a table of the map,
against the order 1 jet rows they replace.
"""

import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, strategies as st

from grassdef import (
    DEFAULT_PRIME,
    GrassShape,
    Partition,
    PrimeField,
    RankAccumulator,
    RationalNormalCurve,
    SegreVeroneseShape,
    contains,
    limit_hyperplane_coeffs,
    multiplicity,
    oracle,
    rank,
)
from grassdef.schubert import _det
from strategies import full_point, sv_shapes

P = DEFAULT_PRIME
FIELD = PrimeField(P)
MAX_COLS = 12


def rational_rank(rows: list[dict], ncols: int) -> int:
    """Rank over Q by plain Gauss-Jordan elimination on Fractions."""
    matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    found = 0
    for c in range(ncols):
        pivot = next((i for i in range(found, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[found], matrix[pivot] = matrix[pivot], matrix[found]
        for i in range(len(matrix)):
            if i != found and matrix[i][c]:
                f = matrix[i][c] / matrix[found][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[found])]
        found += 1
    return found


@st.composite
def rows_of(draw, ncols: int) -> dict:
    """One row in one of the patterns the oracle feeds: sparse, dense with
    explicit zeros, a unit vector (the osculating jets), or zero."""
    kind = draw(st.sampled_from(["sparse", "dense", "unit", "zero"]))
    entry = st.integers(-9, 9)
    if kind == "sparse":
        cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
        return {c: draw(entry.filter(bool)) for c in cols}
    if kind == "dense":
        return {c: draw(entry) for c in range(ncols)}
    if kind == "unit":
        return {draw(st.integers(0, ncols - 1)): draw(entry.filter(bool))}
    return draw(st.sampled_from([{}, {c: 0 for c in range(ncols)}]))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, MAX_COLS))
    # up to 12 rows, so the narrow matrices saturate
    rows = draw(st.lists(rows_of(ncols), max_size=MAX_COLS))
    # shift entries by multiples of p: zero, near p, near -p and 2p
    shifts = [{c: draw(st.sampled_from([0, 0, 1, -1, 2])) for c in row} for row in rows]
    return ncols, rows, shifts


@given(matrices())
def test_modular_and_exact_ranks_match_rational_rank_after_every_row(case):
    ncols, rows, shifts = case
    modular, exact = RankAccumulator(ncols, FIELD), RankAccumulator(ncols)
    for k, (row, shift) in enumerate(zip(rows, shifts), 1):
        expected = rational_rank(rows[:k], ncols)
        shifted = {c: v + shift[c] * P for c, v in row.items()}
        assert modular.add_row(shifted) == expected
        assert exact.add_row(row) == expected
        assert modular.saturated == exact.saturated == (expected == ncols)
        # each pivot is (lead value, segment after the lead); the segments
        # stop at their last nonzero column, modular pivots are monic and
        # reduced, exact ones primitive
        for acc in (modular, exact):
            assert acc._leads == sorted(acc._pivots)
            for lead, (value, tail) in acc._pivots.items():
                assert value != 0
                assert not tail or tail[-1] != 0
                assert lead + 1 + len(tail) <= ncols
        for value, tail in modular._pivots.values():
            assert value == 1
            assert all(0 <= v < P for v in tail)
        for value, tail in exact._pivots.values():
            assert gcd(value, *tail) == 1
    assert rank(rows, FIELD) == rank(rows) == rational_rank(rows, ncols)


@st.composite
def wide_matrices(draw):
    """Rows with 70- to 200-bit entries, as in the SV(1;60) jets, mixed
    with integer combinations of earlier rows, so the exact elimination has
    to cancel big entries to the last bit.  The Hadamard argument above
    does not cover these entries, so only the exact rank is compared."""
    ncols = draw(st.integers(1, MAX_COLS))
    magnitude = st.integers(2**69, 2**200)
    wide = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]), magnitude)
    multiplier = st.one_of(st.integers(-3, 3), wide)
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, MAX_COLS + 2))):
        if rows and draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            row: dict = {}
            for earlier in picked:
                m = draw(multiplier)
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + m * v
            row = {c: v for c, v in row.items() if v}
        else:
            cols = draw(st.sets(st.integers(0, ncols - 1), min_size=1, max_size=ncols))
            row = {c: draw(wide) for c in cols}
        rows.append(row)
    return ncols, rows


@given(wide_matrices())
def test_exact_rank_matches_rational_rank_on_wide_entries(case):
    ncols, rows = case
    exact = RankAccumulator(ncols)
    for k, row in enumerate(rows, 1):
        expected = rational_rank(rows[:k], ncols)
        assert exact.add_row(row) == expected
        assert exact.saturated == (expected == ncols)
    assert rank(rows) == rational_rank(rows, ncols)


def test_unit_rows_reduce_against_a_dense_pivot():
    # the osculating pattern: a dense row, then unit vectors that it spans
    # only together
    acc = RankAccumulator(4, FIELD)
    assert acc.add_row({0: 1, 1: 2, 2: 3, 3: 4}) == 1
    assert acc.add_row({0: P + 1}) == 2
    assert acc.add_row({1: 2 * P - 1}) == 3
    assert acc.add_row({2: 5}) == 4
    assert acc.saturated
    assert acc.add_row({3: 1}) == 4


@st.composite
def jet_cases(draw):
    """A polynomial map, a point and an order.  The map is a small
    Grassmannian's PlueckerMap, or the parametrization of a Segre-Veronese
    variety or a rational normal curve.  The point is a coordinate point, a
    point [I | A] of the standard chart of the Grassmannian, or has entries
    in [-3, 3], zeros and negatives included, some shifted by multiples of
    p, which are units over Q but zero modulo p; so do the entries of A."""
    kind = draw(st.sampled_from(["grass", "chart", "sv", "rnc"]))
    if kind in ("grass", "chart"):
        r = draw(st.integers(0, 2))
        shape = GrassShape(r, draw(st.integers(2 * r + 1, min(2 * r + 3, 6))))
        top = shape.r + 2
    else:
        shape = draw({
            "sv": sv_shapes(max_factors=2, max_n=2),
            "rnc": st.builds(RationalNormalCurve, st.integers(1, 6)),
        }[kind])
        top = shape.d_total + 1
    poly = oracle.build_parametrization(shape)
    entry = st.builds(lambda v, k: v + k * P, st.integers(-3, 3), st.sampled_from([0, 0, 0, 1, -1]))
    if kind == "chart":
        point = full_point(shape, draw(st.lists(entry, min_size=shape.dim, max_size=shape.dim)))
    elif kind == "grass" and draw(st.booleans()):
        index = sorted(draw(st.sets(st.integers(0, shape.n), min_size=shape.r + 1, max_size=shape.r + 1)))
        point = [int(c == j) for j in index for c in range(shape.n + 1)]
    elif kind in ("sv", "rnc") and draw(st.booleans()):
        ones = [draw(st.integers(0, nj)) for nj in shape.n]
        point = [int(v == one) for nj, one in zip(shape.n, ones) for v in range(nj + 1)]
    else:
        point = draw(st.lists(entry, min_size=poly.domain_dim, max_size=poly.domain_dim))
    return poly, tuple(point), draw(st.integers(0, top))


@pytest.mark.parametrize("field", [FIELD, None], ids=["modp", "rational"])
@given(case=jet_cases())
# the first 2 x 2 block of G(1,4) is singular here, so columns 0 and 2 are held
@example(case=(oracle.build_parametrization(GrassShape(1, 4)), (1, 2, 0, 0, 1, 2, 4, 1, 0, 0), 3))
# the coordinate point of (1, 3, 5), and a point of rank 1, which holds nothing
@example(case=(oracle.build_parametrization(GrassShape(2, 5)), (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1), 3))
@example(case=(oracle.build_parametrization(GrassShape(2, 5)), (0, 0, 0, 1, 0, 0) * 3, 3))
# the first coordinate of each factor is 0 here, so x_{j,1} is held
@example(case=(oracle.build_parametrization(SegreVeroneseShape((1, 2), (2, 3))), (0, 5, 0, -2, 3), 6))
@example(case=(oracle.build_parametrization(SegreVeroneseShape((2,), (3,))), (0, 1, 0), 4))
def test_osculating_sweep_matches_the_full_jet_ranks(case, field):
    poly, point, s_max = case
    full = oracle.jet_matrix(poly, point, s_max, field)
    expected = [rank([row for alpha, row in full.items() if sum(alpha) <= s], field) for s in range(s_max + 1)]
    assert oracle.osculating_rank_sweep(poly, point, s_max, field) == expected


@st.composite
def sampled_maps(draw):
    """A map that the secant trials sample: the PlueckerMap of G(r, n) with
    r <= 3 and n <= 8, or of G(4,9), or the parametrization of a
    Segre-Veronese variety or a rational normal curve."""
    kind = draw(st.sampled_from(["grass", "g49", "sv", "rnc"]))
    if kind == "grass":
        r = draw(st.integers(0, 3))
        return oracle.build_parametrization(GrassShape(r, draw(st.integers(2 * r + 1, 8))))
    if kind == "g49":
        return oracle.build_parametrization(GrassShape(4, 9))
    return oracle.build_parametrization(draw({
        "sv": sv_shapes(),
        "rnc": st.builds(RationalNormalCurve, st.integers(1, 8)),
    }[kind]))


class RecordingRandom(random.Random):
    """A random stream that keeps the integers it hands out."""

    def __init__(self, seed) -> None:
        super().__init__(seed)
        self.drawn = []

    def randint(self, a, b):
        self.drawn.append(super().randint(a, b))
        return self.drawn[-1]


@pytest.mark.parametrize("coord_range", [oracle._COORD_RANGE, 3], ids=["2^20", "3"])
@pytest.mark.parametrize("field", [FIELD, PrimeField(2**32 - 5), None], ids=["modp", "mod-2^32-5", "rational"])
@given(poly=sampled_maps(), seed=st.integers(0, 2**32))
def test_sampled_rows_are_the_order_1_jet_rows_at_the_drawn_point(poly, seed, field, coord_range):
    # with coordinates in [1, 3] they repeat, and minors and monomials
    # coincide or vanish; on a Grassmannian the drawn coordinates are the
    # dim X entries of A, row by row, and the point is [I | A]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_COORD_RANGE", coord_range)
        rng = RecordingRandom(seed)
        rows = oracle._sample_point(poly, rng, field)
    point = tuple(rng.drawn)
    assert all(1 <= a <= coord_range for a in point)
    if isinstance(poly, oracle.PlueckerMap):
        assert len(point) == poly.shape.dim
        point = full_point(poly.shape, point)
    assert len(point) == poly.domain_dim
    expected = oracle.jet_matrix(poly, point, 1, field, oracle._held(poly, point, field))
    # the same rows in the same order, each with its entries in the same order
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected.values()]


def rational_det(matrix: list[list[int]]) -> Fraction:
    """Determinant over Q by plain Gaussian elimination on Fractions."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def rational_solve(matrix: list[list[int]], rhs: list[int]) -> list[Fraction] | None:
    """The unique solution of a square system over Q by Gauss-Jordan
    elimination on Fractions, or None when the system is singular."""
    m = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [v / m[c][c] for v in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[-1] for row in m]


@st.composite
def square_matrices(draw):
    """Integer matrices up to 7 x 7 with entries up to 10^6, some with a
    zero leading entry (the first column needs a row swap), a repeated row
    or a zero column."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(10**6), 10**6))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        m[0][0] = 0
    if n > 1 and draw(st.booleans()):
        m[draw(st.integers(1, n - 1))] = list(m[draw(st.integers(0, n - 1))])
    if draw(st.booleans()):
        zero = draw(st.integers(0, n - 1))
        for row in m:
            row[zero] = 0
    return m


@given(square_matrices())
def test_int_det_matches_rational_det(m):
    assert _det([row[:] for row in m]) == rational_det(m)


def test_int_det_swaps_rows_past_a_zero_leading_entry():
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert _det([[0, 4], [0, 7]]) == 0


def reference_limit_coeffs(D: int, s: int, sbar: int, k2: int) -> tuple[int, ...] | None:
    """c_0 = 1 and c_{q+1} = ... = c_s = 0, with c_1..c_q solving the
    collision relations over Q; scaled to coprime integers with c_0 > 0.
    None when the collision system is singular."""
    q = s - D + k2 + 1
    rows = range(D - k2, s + 1)
    matrix = [[comb(sbar + j, j - k) if j >= k else 0 for k in range(1, q + 1)] for j in rows]
    solution = rational_solve(matrix, [-comb(sbar + j, j) for j in rows])
    if solution is None:
        return None
    coeffs = [Fraction(1)] + solution + [Fraction(0)] * (s - q)
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def test_limit_hyperplane_coeffs_match_a_rational_solve():
    checked = 0
    for D in range(2, 11):
        for k1 in range(D - 1):
            for k2 in range(D - 1 - k1):
                for s in range(D + 1):
                    for sbar in range(3):
                        section = limit_hyperplane_coeffs(D, s, sbar, k1, k2)
                        if s < D - k2:
                            assert section.trivial and section.coeffs == (1,) + (0,) * s
                            continue
                        expected = reference_limit_coeffs(D, s, sbar, k2)
                        assert expected is not None
                        assert not section.trivial and section.coeffs == expected
                        checked += 1
    assert checked > 500


@st.composite
def limit_parameters(draw):
    """(D, s, sbar, k1, k2) with D <= 40 and sbar <= 20: any valid k1, k2
    and s, the largest collision systems q x q with q up to 39."""
    D = draw(st.integers(2, 40))
    k1 = draw(st.integers(0, D - 2))
    k2 = draw(st.integers(0, D - 2 - k1))
    return D, draw(st.integers(0, D)), draw(st.integers(0, 20)), k1, k2


@given(limit_parameters())
@example((40, 40, 20, 0, 38))
def test_limit_hyperplane_closed_form_is_the_rational_solve(params):
    D, s, sbar, k1, k2 = params
    section = limit_hyperplane_coeffs(*params)
    if s < D - k2:
        assert section.trivial and section.coeffs == (1,) + (0,) * s
    else:
        assert not section.trivial and section.coeffs == reference_limit_coeffs(D, s, sbar, k2)


def docstring_matrices(r: int, n: int):
    """For every containing pair of G(r, n): lam, mu, the full (r+1) x (r+1)
    matrix of the multiplicity docstring built as written, and whether its
    columns in reverse order never split, that is sigma_q != q for every
    q = 1..r."""
    parts = itertools.combinations_with_replacement(range(n - r, -1, -1), r + 1)
    partitions = [Partition(r, n, p) for p in parts]
    for lam in partitions:
        for mu in partitions:
            if not contains(lam, mu):
                continue
            lshift = [lam.parts[l] - (l + 1) for l in range(r + 1)]
            mshift = [mu.parts[j] - (j + 1) for j in range(r + 1)]
            t = [n - r + (l + 1) - lam.parts[l] for l in range(r + 1)]
            s = [sum(1 for v in mshift if v < lshift[l]) for l in range(r + 1)]
            matrix = [[comb(t[l], k - s[l]) if k >= s[l] else 0 for l in range(r + 1)] for k in range(r + 1)]
            unsplit = all(s[r - q] != q for q in range(1, r + 1))
            yield lam, mu, matrix, unsplit


def test_multiplicity_is_the_docstring_determinant_on_g38():
    pairs = 0
    for lam, mu, matrix, _ in docstring_matrices(3, 8):
        assert multiplicity(lam, mu) == abs(rational_det(matrix))
        pairs += 1
    assert pairs > 1000


def test_multiplicity_is_the_unsplit_docstring_determinant_on_g49():
    # the full matrix through the integer determinant, which is checked
    # against rational_det above; 3124 pairs have a single 5 x 5 block
    pairs = unsplit_pairs = 0
    for lam, mu, matrix, unsplit in docstring_matrices(4, 9):
        assert multiplicity(lam, mu) == abs(_det(matrix))
        pairs += 1
        unsplit_pairs += unsplit
    assert (pairs, unsplit_pairs) == (19404, 3124)


def test_bareiss_refuses_a_division_with_remainder():
    # a non-integral entry breaks Sylvester's identity, so the first step
    # leaves a remainder instead of a silently truncated determinant
    with pytest.raises(ArithmeticError):
        _det([[Fraction(1, 2), 1], [1, 1]])

