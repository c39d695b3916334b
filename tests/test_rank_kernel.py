"""RankAccumulator against an independent rational rank, row by row.

Every matrix has at most 12 columns and entries of absolute value at most
9 before multiples of p are added, so by Hadamard's bound each nonzero
minor is smaller than (sqrt(12) * 9)^12 < 2^60 < p in absolute value: the
rank modulo p equals the rank over Q exactly, not just with high
probability.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from grassdef import DEFAULT_PRIME, PrimeField, RankAccumulator, rank

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
        # the pivot segments after their leads stop at their last nonzero
        # column
        assert modular._leads == sorted(modular._pivots)
        for lead, tail in modular._pivots.items():
            assert not tail or tail[-1] != 0
            assert lead + 1 + len(tail) <= ncols
            assert all(0 <= v < P for v in tail)
    assert rank(rows, FIELD) == rank(rows) == rational_rank(rows, ncols)


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
