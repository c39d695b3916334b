"""Schubert varieties of Grassmannians: containment, singular loci,
multiplicities and degrees, pinned against hand computed examples and a
standard tableaux counting oracle.  Multiplicities read back from a
partition's memo are checked against the whole determinant of the
docstring formula, eliminated with no block split and no memo."""

import dataclasses
from math import comb

import pytest
from hypothesis import given, strategies as st

from grassdef import (
    CapExceeded,
    FerrersDiagram,
    Partition,
    complementary,
    contains,
    grass_degree,
    multiplicity,
    rectangle_count,
    schubert_codim,
    schubert,
    schubert_dim,
    singular_locus,
)
from grassdef.schubert import _det


@st.composite
def partitions(draw, max_r: int = 3, max_n: int = 8):
    r = draw(st.integers(1, min(max_r, (max_n - 1) // 2)))
    n = draw(st.integers(2 * r + 1, max_n))
    parts = []
    top = n - r
    for _ in range(r + 1):
        value = draw(st.integers(0, top))
        parts.append(value)
        top = value
    return Partition(r, n, tuple(parts))


@st.composite
def containing_lists(draw, max_r: int = 5, max_n: int = 13):
    """A partition lam of G(r, n), r <= 5, and up to 8 partitions mu with
    contains(lam, mu), drawn part by part between lam_i and mu_{i-1}."""
    lam = draw(partitions(max_r, max_n))
    mus = []
    for _ in range(draw(st.integers(1, 8))):
        parts, top = [], lam.n - lam.r
        for a in lam.parts:
            top = draw(st.integers(a, top))
            parts.append(top)
        mus.append(Partition(lam.r, lam.n, tuple(parts)))
    return lam, mus


def unsplit_multiplicity(lam, mu):
    """|det M| for the whole (r+1) x (r+1) matrix of the multiplicity
    docstring, built as written and eliminated by _det in one piece."""
    size = lam.r + 1
    t = [lam.n - lam.r + l - lam.parts[l - 1] for l in range(1, size + 1)]
    s = [sum(mu.parts[j - 1] - j < lam.parts[l - 1] - l for j in range(1, size + 1)) for l in range(1, size + 1)]
    matrix = [[comb(t[l], k - s[l]) if k >= s[l] else 0 for l in range(size)] for k in range(size)]
    return abs(_det(matrix))


def all_partitions(r, n):
    def rec(prefix, top, slots):
        if slots == 0:
            yield tuple(prefix)
            return
        for value in range(top, -1, -1):
            yield from rec(prefix + [value], value, slots - 1)

    for parts in rec([], n - r, r + 1):
        yield Partition(r, n, parts)


def count_standard_tableaux(parts):
    # brute force oracle: fill cells 1..N so rows and columns increase
    rows = [p for p in parts if p > 0]
    if not rows:
        return 1
    total = sum(rows)
    filling = [[0] * p for p in rows]

    def rec(value):
        if value > total:
            return 1
        count = 0
        for i, row in enumerate(filling):
            for j in range(len(row)):
                if row[j]:
                    continue
                if j > 0 and row[j - 1] == 0:
                    break
                if i > 0 and filling[i - 1][j] == 0:
                    continue
                row[j] = value
                count += rec(value + 1)
                row[j] = 0
                break
        return count

    return rec(1)


def test_partition_construction_and_padding():
    p = Partition(2, 5, (2, 1))
    assert p.parts == (2, 1, 0)
    assert Partition(2, 5, (2, 1, 0, 0, 0)).parts == (2, 1, 0)
    assert p.size == 3
    assert p.label == "(2,1,0)"
    assert p.blocks() == [(2, 1), (1, 1), (0, 1)]


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, 5, (1, 2, 0))
    with pytest.raises(ValueError):
        Partition(2, 5, (4, 0, 0))
    with pytest.raises(ValueError):
        Partition(2, 5, (2, 1, 1, 1))
    with pytest.raises(ValueError):
        Partition(2, 5, (-1,))


def test_complementary_worked_value():
    assert complementary(Partition(4, 9, (2, 2, 2, 1, 0))) == (3, 3, 3, 4, 5)


@given(partitions())
def test_complementary_is_an_involution(p):
    comp = complementary(p)
    assert all(0 <= a <= p.n - p.r for a in comp)
    back = tuple(p.n - p.r - a for a in comp)
    assert back == p.parts


def test_dim_and_codim():
    p = Partition(4, 9, (2, 2, 2, 1, 0))
    assert schubert_codim(p) == 7
    assert schubert_dim(p) == 25 - 7
    assert schubert_dim(p) + schubert_codim(p) == 25


def test_contains_is_reverse_componentwise():
    lam = Partition(2, 5, (1, 0, 0))
    assert contains(lam, Partition(2, 5, (2, 2, 0)))
    assert contains(lam, lam)
    assert not contains(Partition(2, 5, (2, 2, 0)), lam)
    with pytest.raises(ValueError):
        contains(lam, Partition(2, 6, (1, 0, 0)))


def test_singular_locus_worked_values():
    sing = singular_locus(Partition(4, 9, (2, 2, 2, 1, 0)))
    assert [c.parts for c in sing] == [(3, 3, 3, 3, 0), (2, 2, 2, 2, 2)]
    assert [c.parts for c in singular_locus(Partition(2, 5, (1, 0, 0)))] == [(2, 2, 0)]
    assert [c.parts for c in singular_locus(Partition(1, 3, (1, 0)))] == [(2, 2)]


def test_rectangles_are_smooth():
    assert singular_locus(Partition(1, 3, (2, 1))) == []
    assert singular_locus(Partition(1, 5, (4, 1))) == []
    assert singular_locus(Partition(2, 5, (3, 3, 3))) == []
    assert singular_locus(Partition(2, 5, (2, 2, 2))) == []
    assert singular_locus(Partition(2, 5, ())) == []


def test_singular_locus_members_are_contained():
    for r in range(1, 4):
        for n in range(2 * r + 1, 9):
            for lam in all_partitions(r, n):
                for mu in singular_locus(lam):
                    assert contains(lam, mu)
                    assert mu.size > lam.size


def test_special_linear_complexes_chain():
    # the varieties R'_i with blocks ((n-r-i)^(r+1-i), 0^i) degenerate one
    # step at a time and have dimension i (n + 1 - i)
    for r in range(1, 4):
        for n in range(2 * r + 1, 9):
            for i in range(1, r + 1):
                parts = tuple([n - r - i] * (r + 1 - i) + [0] * i)
                previous = tuple([n - r - i + 1] * (r + 2 - i) + [0] * (i - 1))
                R = Partition(r, n, parts)
                assert [c.parts for c in singular_locus(R)] == [previous]
                assert schubert_dim(R) == i * (n + 1 - i)


def test_multiplicity_worked_values():
    lam = Partition(4, 9, (2, 2, 2, 1, 0))
    assert multiplicity(lam, Partition(4, 9, (3, 3, 3, 3, 2))) == 14
    assert multiplicity(lam, Partition(4, 9, (3, 3, 3, 3, 0))) == 4


def test_multiplicity_along_linear_complex_chain():
    for n in range(5, 10):
        lam = Partition(2, n, (1, 0, 0))
        values = []
        for i in range(3):
            parts = tuple([n - 2 - i] * (3 - i) + [0] * i)
            values.append(multiplicity(lam, Partition(2, n, parts)))
        assert values == [3, 2, 1]


def test_multiplicity_one_on_smooth_points():
    for r in range(1, 4):
        for n in range(2 * r + 1, 8):
            for lam in all_partitions(r, n):
                assert multiplicity(lam, lam) == 1


def test_multiplicity_at_least_two_on_singular_components():
    for r in range(1, 4):
        for n in range(2 * r + 1, 9):
            for lam in all_partitions(r, n):
                for mu in singular_locus(lam):
                    assert multiplicity(lam, mu) >= 2


def test_warm_multiplicities_match_fresh_partitions_and_the_unsplit_determinant():
    # one lam object serves every mu it contains, so later calls read the
    # memo; a fresh Partition per call never does
    for r in range(4):
        for n in range(r + 1, 9):
            every = list(all_partitions(r, n))
            for lam in every:
                calls = 0
                for mu in every:
                    if contains(lam, mu):
                        fresh = multiplicity(Partition(r, n, lam.parts), mu)
                        assert multiplicity(lam, mu) == fresh == unsplit_multiplicity(lam, mu)
                        calls += 1
                catalan = comb(2 * r + 2, r + 1) // (r + 2)
                assert len(lam._multiplicities) <= min(calls, catalan)


def test_a_table_eliminates_once_per_lam_and_sigma(monkeypatch):
    # the 5292 containing pairs of G(3,8) give 771 distinct (lam, sigma),
    # whose blocks of size at least 2 take 680 eliminations; a fresh lam
    # per pair ran 4170
    eliminations = []

    def spy(matrix):
        eliminations.append(len(matrix))
        return _det(matrix)

    monkeypatch.setattr(schubert, "_det", spy)
    every = list(all_partitions(3, 8))
    values = [multiplicity(lam, mu) for lam in every for mu in every if contains(lam, mu)]
    assert (len(values), len(eliminations)) == (5292, 680)
    assert sum(len(lam._multiplicities) for lam in every) == 771


@given(containing_lists())
def test_warm_multiplicity_is_the_unsplit_determinant(case):
    lam, mus = case
    first = [multiplicity(lam, mu) for mu in mus]
    assert [multiplicity(lam, mu) for mu in mus] == first == [unsplit_multiplicity(lam, mu) for mu in mus]


def test_a_full_memo_still_refuses_what_lam_does_not_contain():
    every = list(all_partitions(2, 6))
    for lam in every:
        for mu in every:
            if contains(lam, mu):
                multiplicity(lam, mu)
        for mu in every:
            if not contains(lam, mu):
                with pytest.raises(ValueError, match="componentwise above"):
                    multiplicity(lam, mu)
        # the same parts on another Grassmannian would give a sigma in the memo
        for other in (Partition(2, 7, lam.parts), Partition(3, 7, lam.parts)):
            with pytest.raises(ValueError, match="the same Grassmannian"):
                multiplicity(lam, other)


def test_multiplicity_requires_containment():
    with pytest.raises(ValueError):
        multiplicity(Partition(2, 5, (2, 2, 0)), Partition(2, 5, (1, 0, 0)))


@pytest.mark.parametrize("check", [contains, multiplicity])
def test_partitions_of_different_grassmannians_are_refused(check):
    for other in (Partition(2, 6, (2, 2, 0)), Partition(1, 5, (2, 2, 0))):
        with pytest.raises(ValueError, match="the same Grassmannian"):
            check(Partition(2, 5, (1, 0, 0)), other)


def test_label_is_cached_outside_equality_hash_and_repr():
    p = Partition(4, 9, (2, 2, 2, 1))
    fresh = Partition(4, 9, (2, 2, 2, 1, 0))
    before = (repr(p), hash(p), dataclasses.asdict(p))
    assert p.label == "(2,2,2,1,0)"
    assert p.label is p.label
    # so is the multiplicity memo
    assert multiplicity(p, Partition(4, 9, (3, 3, 3, 3, 2))) == 14
    assert p._multiplicities is p._multiplicities and list(p._multiplicities.values()) == [14]
    assert (repr(p), hash(p), dataclasses.asdict(p)) == before
    assert p == fresh and hash(p) == hash(fresh)
    assert dataclasses.asdict(p) == {"r": 4, "n": 9, "parts": (2, 2, 2, 1, 0)}


def test_grass_degree_values():
    assert grass_degree(1, 3) == 2
    assert grass_degree(1, 4) == 5
    assert grass_degree(2, 5) == 42


def test_grass_degree_refuses_a_degree_too_long_to_print(monkeypatch):
    # deg G(1,7153) has 4300 digits, the most Python prints by default, and
    # deg G(1,7154) has 4301; G(200,1000) is refused before its factorial
    assert len(str(grass_degree(1, 7153))) == 4300
    for r, n in ((1, 7154), (200, 1000)):
        with pytest.raises(CapExceeded, match=f"the degree of G\\({r},{n}\\) has about"):
            grass_degree(r, n)
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)  # no limit
    assert grass_degree(1, 7154) > 10**4300


def test_partitions_and_diagrams_are_counted_before_they_are_built():
    # r + 1 parts are counted before the padding, the cells of a picture
    # before it is drawn; at the cap of 16,000,000 cells it is drawn
    with pytest.raises(CapExceeded) as exc:
        Partition(20000000, 40000001)
    assert str(exc.value) == "a partition of r + 1 parts needs about 20000001 entries, above the cap of 16000000"
    picture = FerrersDiagram.of_partition(Partition(5000, 10001))
    with pytest.raises(CapExceeded) as exc:
        picture.render()
    assert str(exc.value) == "a Ferrers diagram of 5001 rows needs about 25010001 entries, above the cap of 16000000"
    assert len(FerrersDiagram((8000000, 8000000)).render()) == 16000001
    with pytest.raises(CapExceeded):
        FerrersDiagram((8000000, 8000001)).render()


def test_grass_degree_matches_tableaux_count():
    for r, n in ((1, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 7), (1, 6)):
        rectangle = [n - r] * (r + 1)
        assert grass_degree(r, n) == count_standard_tableaux(rectangle)


def test_grass_degree_duality():
    for n in range(3, 13):
        for r in range(0, n):
            if min(r, n - r - 1) <= 4:
                assert grass_degree(r, n) == grass_degree(n - r - 1, n)


def test_rectangle_count():
    assert rectangle_count(Partition(4, 9, (2, 2, 2, 1, 0))) == 3
    # a point class has an empty complementary diagram
    assert rectangle_count(Partition(2, 5, (3, 3, 3))) == 0
    assert rectangle_count(Partition(2, 5, ())) == 1
    assert rectangle_count(Partition(2, 5, (2, 1, 0))) == 3


def test_ferrers_render():
    fd = FerrersDiagram.of_partition(Partition(2, 5, (2, 2, 1)))
    assert fd.render() == "#\n#\n##"
    skew = FerrersDiagram.of_partition(
        Partition(2, 5, (1, 0, 0)), inner=Partition(2, 5, (2, 2, 0))
    )
    assert skew.render() == ".#\n.##\n..."
    with pytest.raises(ValueError):
        FerrersDiagram.of_partition(
            Partition(2, 5, (2, 2, 0)), inner=Partition(2, 5, (1, 0, 0))
        )
    # a negative inner row would let render() mark more boxes than its row has
    with pytest.raises(ValueError, match="^inner row lengths must be at least 0, got -1$"):
        FerrersDiagram((1, 2), inner=(-1, 0))


@pytest.mark.parametrize("bad", [True, False, 1.7, 1.0, "1", None])
def test_partitions_and_degrees_refuse_non_integers(bad):
    with pytest.raises(TypeError):
        Partition(bad, 5, (1,))
    with pytest.raises(TypeError):
        Partition(2, bad, (1,))
    with pytest.raises(TypeError):
        Partition(2, 5, (bad,))
    with pytest.raises(TypeError):
        grass_degree(bad, 3)
    with pytest.raises(TypeError):
        grass_degree(1, bad)
    with pytest.raises(TypeError):
        FerrersDiagram((1, bad))
    with pytest.raises(TypeError):
        FerrersDiagram((1, 2), (bad,))
