"""Non-defectivity bounds, osculating dimension formulas and limit
hyperplanes, pinned against hand computed tables and cross checked between
the general branch formulas and their closed polynomial forms."""

import re
import time
from math import comb, gcd, log10

import pytest
from hypothesis import given, strategies as st

from grassdef import (
    Ambient,
    GrassShape,
    SegreVeroneseShape,
    aop_bound,
    classify_fano,
    effective_cone,
    grass_bound,
    h_m,
    limit_hyperplane_coeffs,
    linear_bound,
    mds_status,
    osculating_dim_grass,
    osculating_dim_sv,
    spherical_status,
    sv_bound,
)
from grassdef.bounds import _h_log10, _sv_level_counts
from grassdef.indices import CapExceeded
from strategies import sv_shapes

# max_h values of the main bound on small parameter pairs
GRASS_TABLE = {
    (2, 5): 2, (2, 6): 2, (2, 7): 3, (2, 8): 3, (2, 9): 4,
    (2, 10): 4, (2, 11): 5, (2, 12): 5, (2, 13): 5, (2, 14): 6,
    (3, 7): 2, (3, 8): 3, (3, 9): 3, (3, 10): 3,
    (4, 9): 3, (4, 10): 3, (4, 11): 4,
    (5, 11): 3, (5, 12): 4,
    (4, 28): 27, (4, 29): 37, (6, 55): 73, (8, 89): 1001,
}


def test_hm_base_values():
    assert h_m(2, 0) == 0
    for m in range(2, 7):
        assert h_m(m, 1) == 1
        assert h_m(m, 3) == m
        assert h_m(m, 5) == m + 1
        assert h_m(m, 7) == m * m
        assert h_m(m, 9) == m * m + 1
        assert h_m(m, 22) == m**3 + m + 1


def test_hm_binary_expansion_definition():
    # h_m(k) reads the binary expansion of k + 1 above the lowest bit
    def reference(m, k):
        if k == 0:
            return 0
        total, power, bits = 0, 1, (k + 1) >> 1
        while bits:
            if bits & 1:
                total += power
            power *= m
            bits >>= 1
        return total

    for m in range(2, 6):
        for k in range(0, 200):
            assert h_m(m, k) == reference(m, k)


def test_hm_halving_identities():
    for m in range(2, 6):
        for k in range(1, 100):
            assert h_m(m, 2 * k) == h_m(m, 2 * k - 1)
    for k in range(0, 100):
        assert h_m(2, k) == (k + 1) // 2


def test_hm_validation():
    with pytest.raises(ValueError):
        h_m(1, 3)
    with pytest.raises(ValueError):
        h_m(2, -1)
    with pytest.raises(TypeError):
        h_m(2.0, 3)


@pytest.mark.parametrize("pair,expected", sorted(GRASS_TABLE.items()))
def test_grass_bound_table(pair, expected):
    r, n = pair
    report = grass_bound(r, n)
    assert report.max_h == expected
    assert report.raw_value == expected - 1
    assert report.branch in ("large_n", "even_r", "odd_r")


def test_grass_bound_statement():
    assert grass_bound(4, 29).statement == "not h-defective for h ≤ 37"


def test_grass_bound_polynomial_rows():
    # for n = r^2 + 3r + 1 the bound equals a polynomial in
    # alpha = (n + 1) // (r + 1)
    rows = {
        4: (29, lambda a: a**2 + 1),
        6: (55, lambda a: a**2 + a + 1),
        8: (89, lambda a: a**3 + 1),
        10: (131, lambda a: a**3 + a + 1),
        12: (181, lambda a: a**3 + a**2 + 1),
        14: (239, lambda a: a**3 + a**2 + a + 1),
        16: (305, lambda a: a**4 + 1),
    }
    for r, (n, poly) in rows.items():
        assert n == r * r + 3 * r + 1
        alpha = (n + 1) // (r + 1)
        assert grass_bound(r, n).max_h == poly(alpha)


def test_grass_bound_validation():
    with pytest.raises(ValueError):
        grass_bound(1, 5)
    with pytest.raises(ValueError):
        grass_bound(2, 4)
    assert linear_bound(3, 6) == linear_bound(2, 6)
    with pytest.raises(ValueError):
        aop_bound(1, 9)
    # G(8, 10) is G(1, 10)
    with pytest.raises(ValueError):
        grass_bound(8, 10)


def _outcome(call, *args):
    """The report of the call, or ValueError when it refuses the input."""
    try:
        return call(*args)
    except ValueError:
        return ValueError


def _classify(r, n, k):
    return classify_fano(Ambient.grassmannian(r, n), k)


@pytest.mark.parametrize(
    "call, ks",
    [
        (grass_bound, None),
        (linear_bound, None),
        (aop_bound, None),
        (spherical_status, range(1, 5)),
        (effective_cone, range(1, 5)),
        (mds_status, range(0, 5)),
        (_classify, range(0, 5)),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_dual_parameters_agree(call, ks):
    # G(r, n) and G(n-r-1, n) are one variety: the same report, or both refused
    answered = 0
    for n in range(1, 13):
        for r in range(n):
            for extra in [()] if ks is None else [(k,) for k in ks]:
                here = _outcome(call, r, n, *extra)
                assert here == _outcome(call, n - r - 1, n, *extra), (r, n, extra)
                answered += here is not ValueError
    assert answered


def test_linear_bound_values():
    assert linear_bound(4, 29).max_h == 13
    assert linear_bound(2, 7).max_h == 3
    assert linear_bound(3, 9).max_h == 3


def test_linear_bound_closed_forms():
    # below the large-n threshold the even branch collapses to a formula
    # independent of alpha; the odd branch min form holds everywhere
    for r in range(2, 13, 2):
        for n in range(2 * r + 1, r * r + 3 * r + 1):
            assert linear_bound(r, n).max_h == (n + 1) // 2 - r // 2
    for r in range(3, 13, 2):
        for n in range(2 * r + 1, 61):
            alpha = (n + 1) // (r + 1)
            want = min(((r - 1) // 2) * alpha + 1, n // 2 - (r - 1) // 2)
            assert linear_bound(r, n).max_h == want


def test_grass_equals_linear_on_boundary_rows():
    for (r, n), value in {
        (6, 13): 4, (8, 17): 5, (10, 21): 6, (12, 25): 7,
        (9, 19): 5, (11, 23): 6,
    }.items():
        assert grass_bound(r, n).max_h == value
        assert linear_bound(r, n).max_h == value


def test_aop_bound_values():
    assert aop_bound(4, 29).max_h == 9
    assert aop_bound(2, 7).max_h == 2
    for r in range(2, 9):
        for n in range(2 * r + 1, 40):
            assert aop_bound(r, n).max_h == (n - r) // 3 + 1


SV_TABLE = [
    (((1, 1), (2, 2)), 2),
    (((1, 1, 1), (1, 1, 2)), 2),
    (((1, 1, 1, 1), (1, 1, 1, 1)), 2),
    (((2, 2, 2), (1, 1, 1)), 3),
]


@pytest.mark.parametrize("factors,expected", SV_TABLE)
def test_sv_bound_table(factors, expected):
    ns, ds = factors
    report = sv_bound(SegreVeroneseShape(ns, ds))
    assert report.max_h == expected
    assert report.raw_value == expected - 1
    assert report.branch == "sv"


def test_sv_bound_veronese_degree_table():
    # closed forms of the bound for a single Veronese factor of odd degree
    forms = {
        3: lambda n1: n1 + 1,
        5: lambda n1: n1 * (n1 + 1) + 1,
        7: lambda n1: n1 * ((n1 + 1) + 1) + 1,
        9: lambda n1: n1 * (n1 + 1) ** 2 + 1,
        11: lambda n1: n1 * ((n1 + 1) ** 2 + 1) + 1,
        13: lambda n1: n1 * ((n1 + 1) ** 2 + n1 + 1) + 1,
        15: lambda n1: n1 * ((n1 + 1) ** 2 + (n1 + 1) + 1) + 1,
        17: lambda n1: n1 * (n1 + 1) ** 3 + 1,
    }
    for d, poly in forms.items():
        for n1 in range(1, 5):
            assert sv_bound(SegreVeroneseShape((n1,), (d,))).max_h == poly(n1)


def test_sv_bound_requires_degree_three():
    with pytest.raises(ValueError):
        sv_bound(SegreVeroneseShape((1, 1), (1, 1)))
    with pytest.raises(TypeError):
        sv_bound(GrassShape(2, 5))


def test_osculating_dim_grass_values():
    assert osculating_dim_grass(2, 5, 2) == 18
    assert osculating_dim_grass(1, 4, 1) == 6
    assert osculating_dim_grass(2, 5, 0) == 0


def test_osculating_dim_grass_saturates_at_ambient():
    for r in range(1, 5):
        for n in range(2 * r + 1, 11):
            N = comb(n + 1, r + 1) - 1
            assert osculating_dim_grass(r, n, r + 1) == N
            assert osculating_dim_grass(r, n, r + 5) == N


def test_osculating_dim_grass_respects_duality():
    for n in range(3, 10):
        for r in range(1, n):
            for s in range(0, 5):
                assert osculating_dim_grass(r, n, s) == osculating_dim_grass(
                    n - r - 1, n, s
                )


def test_osculating_dim_sv_values():
    assert osculating_dim_sv(SegreVeroneseShape((2,), (3,)), 2) == 5
    big = SegreVeroneseShape((1, 3), (2, 3))
    assert osculating_dim_sv(big, 5) == 59
    assert osculating_dim_sv(big, 6) == 59
    assert osculating_dim_sv(SegreVeroneseShape((1, 1, 1), (1, 1, 1)), 1) == 3


def test_osculating_dim_sv_counts_levels_once_per_shape():
    _sv_level_counts.cache_clear()
    shape = SegreVeroneseShape((1,), (299,))
    assert [osculating_dim_sv(shape, s) for s in range(301)] == list(range(300)) + [299]
    assert _sv_level_counts.cache_info().misses == 1


@given(sv_shapes(), st.integers(0, 8))
def test_osculating_dim_sv_monotone_and_saturating(shape, s):
    here = osculating_dim_sv(shape, s)
    assert 0 <= here <= shape.ambient_dim
    assert here <= osculating_dim_sv(shape, s + 1)
    assert osculating_dim_sv(shape, shape.d_total) == shape.ambient_dim


@given(sv_shapes(max_factors=2, max_n=2, max_d=2), st.integers(1, 4))
def test_osculating_dim_sv_first_level_is_variety_dim(shape, s):
    assert osculating_dim_sv(shape, 1) == shape.dim


@pytest.mark.parametrize(
    "call, args",
    [
        (h_m, (2, True)),
        (h_m, (True, 3)),
        (grass_bound, (True, 7)),
        (osculating_dim_grass, (2, 5, True)),
        (Ambient.grassmannian, (True, 4)),
        (spherical_status, (True, 5, 1)),
        (effective_cone, (1, 5, True)),
        (mds_status, (1, 5, False)),
    ],
    ids=lambda v: getattr(v, "__qualname__", None),
)
def test_closed_forms_refuse_bools(call, args):
    # bools are ints to isinstance; these checks refuse them, as the index
    # and Schubert checks do
    with pytest.raises(TypeError):
        call(*args)


@given(st.integers(2, 10**6), st.integers(1, 10**6))
def test_h_is_below_its_digit_bound(m, k):
    # h_m(k) sums distinct powers among m^0, ..., m^(t-1), t = floor(log2(k + 1))
    t = (k + 1).bit_length() - 1
    h = h_m(m, k)
    assert h * (m - 1) < m**t
    assert log10(h) < _h_log10(m, k) + 1e-9


@pytest.mark.parametrize(
    "call, label",
    [
        (lambda: grass_bound(1000, 10**4000), "the large_n bound at r = 1000"),
        (lambda: grass_bound(4, 5 * 10**2150 - 1), "the large_n bound at r = 4"),
        (lambda: grass_bound(10**40, 10**80), f"the even_r bound at r = {10**40}"),
        (lambda: grass_bound(10**40 + 1, 10**80), f"the odd_r bound at r = {10**40 + 1}"),
        (lambda: sv_bound(SegreVeroneseShape((10**399,), (10**399,))), "the sv bound"),
        # 15,436,200 entries pass the cap; C(s, q) C(sbar + q, q) has 21686
        # digits for q = 3799
        (lambda: limit_hyperplane_coeffs(10**6, 999999, 10**6, 0, 3799), "the limit hyperplane at s = 999999"),
    ],
    ids=["large_n", "4301_digits", "even_r", "odd_r", "sv", "limit_hyperplane"],
)
def test_bounds_refuse_a_value_too_long_to_print_before_computing_it(call, label):
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=f"^{re.escape(label)} has about \\d+ digits, above the limit of 4300"):
        call()
    assert time.perf_counter() - start < 1.0


def test_a_bound_of_4300_digits_still_prints():
    # alpha = 8 * 10^2149 on G(4, 5 alpha - 1): B = alpha h_alpha(3) = alpha^2,
    # 6.4 * 10^4299, which a bound of 2 alpha^2 would refuse
    alpha = 8 * 10**2149
    report = grass_bound(4, 5 * alpha - 1)
    assert report.raw_value == alpha**2 and len(str(report.max_h)) == 4300


def test_limit_hyperplane_answers_q_150_quickly_with_every_relation_at_zero():
    # the q x q collision system of q = s - D + k2 + 1 = 150 is never solved
    D, s, sbar, k1, k2 = 200, 199, 50, 0, 150
    start = time.perf_counter()
    section = limit_hyperplane_coeffs(D, s, sbar, k1, k2)
    assert time.perf_counter() - start < 1.0
    c = section.coeffs
    assert not section.trivial and len(c) == s + 1 and c[0] > 0 and gcd(*c) == 1
    assert c[150] and not any(c[151:])
    for j in range(D - k2, s + 1):
        assert sum(comb(sbar + j, j - k) * c[k] for k in range(j + 1)) == 0


def test_limit_hyperplane_checks_every_relation(monkeypatch):
    # at (D, s, sbar, k1, k2) = (5, 5, 0, 0, 1) a wrong common factor
    # truncates (10, -4, 1) to (1, -1, 0), which breaks the relation for j = 4
    monkeypatch.setattr("grassdef.bounds.gcd", lambda *values: 7)
    with pytest.raises(ArithmeticError, match="the collision relation for j = 4 leaves residual -3"):
        limit_hyperplane_coeffs(5, 5, 0, 0, 1)


def test_limit_hyperplane_checks_relations_without_the_binomial_of_sbar_plus_d():
    # q = 10 at sbar = D = 10^6: each relation is checked over C(sbar + j, j),
    # so C(2 10^6, 10^6) is never built
    D, s, sbar, k1, k2 = 10**6, 10**6, 10**6, 0, 9
    start = time.perf_counter()
    section = limit_hyperplane_coeffs(D, s, sbar, k1, k2)
    assert time.perf_counter() - start < 1.0
    closed = [(-1) ** k * comb(s - k, 10 - k) * comb(sbar + k, k) for k in range(11)]
    g = gcd(*closed)
    assert section.coeffs == tuple(c // g for c in closed) + (0,) * (s - 10)


@pytest.mark.parametrize(
    "args, match",
    [
        # (10, -12, 6) truncates to (1, -2, 0): the relation for j = 4,
        # -25 = 15 - 40, over C(6, 4) = 15 and times lcm(1, 3, 6) = 6
        ((5, 5, 2, 0, 1), "the collision relation for j = 4 leaves residual -10$"),
        ((10**6, 10**6, 10**6, 0, 9), "the collision relation for j = 999991 leaves residual "),
    ],
)
def test_limit_hyperplane_relations_catch_a_patched_coefficient(args, match, monkeypatch):
    monkeypatch.setattr("grassdef.bounds.gcd", lambda *values: 7)
    with pytest.raises(ArithmeticError, match=match):
        limit_hyperplane_coeffs(*args)
