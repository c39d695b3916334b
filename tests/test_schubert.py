"""Schubert varieties of Grassmannians: containment, singular loci,
multiplicities and degrees, pinned against hand computed examples and a
standard tableaux counting oracle."""

import dataclasses

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
    schubert_dim,
    singular_locus,
)


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
