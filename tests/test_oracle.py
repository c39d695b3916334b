"""Exact arithmetic rank oracle: prime fields, jet matrices, secant
dimensions, projection finiteness and limit hyperplane sections.

Defectivity values asserted here were computed independently with exact
rational arithmetic; a modular rank equal to the expected dimension is a
proof of non-defectivity, so the certified entries are unconditional.
"""

import itertools
import json
import random
import time
from dataclasses import asdict, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import grassdef.oracle
from grassdef import (
    CERTIFIED,
    CONSTANT_MAP,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    DEFECT_EVIDENCE,
    FIBER_EVIDENCE,
    GENERICALLY_FINITE,
    HYPOTHESIS_VIOLATED,
    Ambient,
    CapExceeded,
    CurveClass,
    DivisorClass,
    FerrersDiagram,
    GrassShape,
    Partition,
    PrimeField,
    RankAccumulator,
    RationalNormalCurve,
    SegreVeroneseShape,
    anticanonical,
    ball,
    distance,
    build_parametrization,
    classify_fano,
    effective_cone,
    enumerate_indices,
    h_m,
    is_probable_prime,
    jet_matrix,
    limit_hyperplane_coeffs,
    mds_status,
    mori_chambers_g1n1,
    mori_cone_generators,
    osculating_dim_grass,
    osculating_dim_sv,
    osculating_projection_finite,
    osculating_rank_sweep,
    rank,
    secant_dimension,
    spherical_status,
    tangential_projection_finite,
)
from grassdef.bounds import grass_bound
from grassdef.cli import main
from grassdef.indices import _int_text, coordinate_blocks, coordinate_packing
from grassdef.oracle import PlueckerMap, _held, _sample_point
from strategies import full_point, grass_shapes, sv_shapes


def grass_coord_point(shape, I):
    P = build_parametrization(shape)
    pt = [0] * P.domain_dim
    for row, col in enumerate(I):
        pt[row * (shape.n + 1) + col] = 1
    return tuple(pt)


def sv_coord_point(shape, value):
    pt = []
    for nj in shape.n:
        unit = [0] * (nj + 1)
        unit[value] = 1
        pt.extend(unit)
    return tuple(pt)


# ---------------------------------------------------------------------------
# prime field and rank


def test_default_prime_is_a_62_bit_prime():
    assert DEFAULT_PRIME == (1 << 62) - 57
    assert DEFAULT_PRIME.bit_length() == 62
    assert is_probable_prime(DEFAULT_PRIME)
    assert sympy.isprime(DEFAULT_PRIME)


def test_prime_field_validation():
    PrimeField(DEFAULT_PRIME)
    with pytest.raises(ValueError):
        PrimeField(101)
    with pytest.raises(ValueError):
        PrimeField((1 << 62) - 58)
    # 2^31 - 1 is a 31-bit prime below the 2^31 that the soundness argument
    # of _sample_point takes
    assert is_probable_prime((1 << 31) - 1)
    with pytest.raises(ValueError, match=r"^the modulus must be an integer of at least 2\^31$"):
        PrimeField((1 << 31) - 1)
    # psi_12 and psi_13 are composite strong pseudoprimes to the twelve
    # Miller-Rabin bases, so moduli from 2^64 on are refused
    for composite in (318665857834031151167461, 3317044064679887385961981):
        assert is_probable_prime(composite) and not sympy.isprime(composite)
        with pytest.raises(ValueError, match=r"2\^64"):
            PrimeField(composite)
    PrimeField((1 << 64) - 59)


def test_rank_known_matrices():
    field = PrimeField(DEFAULT_PRIME)
    identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(identity) == 4
    assert rank(identity, field) == 4
    singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert rank(singular) == 2
    assert rank(singular, field) == 2
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([{0: 5, 2: -1}, {2: 7}]) == 2


@given(st.integers(0, 2**32))
def test_rank_of_rational_vs_modular_on_random_small(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    assert rank(matrix) == rank(matrix, PrimeField(DEFAULT_PRIME))


# ---------------------------------------------------------------------------
# parametrizations and jets


def test_grass_parametrization_is_pluecker():
    shape = GrassShape(1, 3)
    P = build_parametrization(shape)
    assert P.ncols == 6
    # the order 0 jet row is the vector of 2 x 2 minors, which satisfies the
    # Pluecker quadric p01 p23 - p02 p13 + p03 p12
    rng = random.Random(5)
    for _ in range(20):
        matrix = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(2)]

        def minor(i, j):
            return matrix[0][i] * matrix[1][j] - matrix[0][j] * matrix[1][i]

        flat = [v for row in matrix for v in row]
        values = jet_matrix(P, flat, 0).get((0,) * 8, {})
        p01, p02, p03, p12, p13, p23 = (values.get(c, 0) for c in range(6))
        assert (p01, p02, p03, p12, p13, p23) == (
            minor(0, 1), minor(0, 2), minor(0, 3),
            minor(1, 2), minor(1, 3), minor(2, 3),
        )
        assert p01 * p23 - p02 * p13 + p03 * p12 == 0


def _refuse_minors(*args):
    raise AssertionError("minors built before the size check")


@pytest.mark.parametrize(
    "shape, order, entries",
    # the sum over t <= order of C(r+1, t) times N (r+1)!/(r+1-t)! minor
    # entries plus (r+1)(n+1) (n+1)!/(n+1-t)! alpha entries; G(1,499) has
    # 873,250 minor entries at order 2 but 250,501,000 alpha entries
    [(GrassShape(6, 13), 3, 36299202), (GrassShape(5, 18), 6, 3715933854), (GrassShape(1, 499), 2, 251374250)],
    ids=["G(6,13)-order3", "G(5,18)-order6", "G(1,499)-order2"],
)
def test_grassmannian_jet_cap_refuses_before_building(shape, order, entries, monkeypatch):
    monkeypatch.setattr("grassdef.oracle.enumerate_indices", _refuse_minors)
    monkeypatch.setattr("grassdef.oracle._maximal_minors", _refuse_minors)
    P = build_parametrization(shape)
    point = grass_coord_point(shape, tuple(range(shape.r + 1)))
    with pytest.raises(CapExceeded) as exc:
        jet_matrix(P, point, order)
    assert str(exc.value) == (
        f"the jet matrix of {shape.label} at order {order} needs about {entries} entries,"
        " above the cap of 16000000"
    )
    with pytest.raises(CapExceeded):
        osculating_rank_sweep(P, point, order)


def test_grassmannian_jet_cap_accepts_order_one_on_g_5_18():
    # 27132 (1 + 6 * 6) minor entries plus 114 (1 + 6 * 19) alpha entries:
    # 1,016,994 entries
    shape = GrassShape(5, 18)
    rows = jet_matrix(build_parametrization(shape), grass_coord_point(shape, tuple(range(6))), 1)
    assert rank(rows.values()) == shape.dim + 1


def _refuse_emission(*args):
    raise AssertionError("jets emitted before the size check")


def test_parametrization_jet_cap_refuses_before_building(monkeypatch):
    # at the all-ones point each monomial x^e of SV(2;70) has prod(e_v + 1)
    # divided powers of order <= 70, which sum to C(75, 5) = 17,259,390;
    # build_parametrization admits it at N d = 178,920
    monkeypatch.setattr("grassdef.oracle._emit_jets", _refuse_emission)
    P = build_parametrization(SegreVeroneseShape((2,), (70,)))
    point = (1, 1, 1)
    with pytest.raises(CapExceeded) as exc:
        jet_matrix(P, point, 70)
    assert str(exc.value) == (
        "the jet matrix of 2556 coordinates at order 70 needs about 17259390 entries,"
        " above the cap of 16000000"
    )
    # the sweep holds x_0, so the monomial x^e has prod_{v >= 1}(e_v + 1)
    # entries: C(74, 4) on SV(2;70), and C(28, 12) = 30,421,755 on SV(8;12)
    P = build_parametrization(SegreVeroneseShape((8,), (12,)))
    with pytest.raises(CapExceeded) as exc:
        osculating_rank_sweep(P, (1,) * 9, 12)
    assert str(exc.value) == (
        "the jet matrix of 125970 coordinates at order 12 needs about 30421755 entries,"
        " above the cap of 16000000"
    )


def test_sweep_answers_sv_2_30_at_the_all_ones_point():
    # C(35, 5) = 324,632 jet entries in full, C(34, 4) = 46,376 with x_0 held
    P = build_parametrization(SegreVeroneseShape((2,), (30,)))
    ranks = osculating_rank_sweep(P, (1, 1, 1), 30, PrimeField(DEFAULT_PRIME))
    assert ranks == [comb(s + 2, 2) for s in range(31)]


@pytest.mark.parametrize(
    "shape, entries",
    [
        (SegreVeroneseShape((1,), (4000,)), 16004000),
        (RationalNormalCurve(5000), 25005000),
        (SegreVeroneseShape((1000,), (2,)), 502002501),
    ],
)
def test_parametrization_cap_counts_coordinate_degrees(shape, entries):
    # N coordinates of degree 4000 and 5000: N times the index length; the
    # 501,501 quadrics of SV(1000;2) each store an exponent vector of length
    # 1001, far more than their degree 2
    with pytest.raises(CapExceeded) as exc:
        build_parametrization(shape)
    assert str(exc.value) == (
        f"the parametrization of {shape.label} needs about {entries} entries,"
        " above the cap of 16000000"
    )


def _refuse_enumeration(*args):
    raise AssertionError("indices enumerated before the size check")


@pytest.mark.parametrize(
    "call",
    [
        lambda: secant_dimension(GrassShape(7, 15), 20),
        lambda: secant_dimension(SegreVeroneseShape((1,), (4999,)), 2000),
        lambda: secant_dimension(SegreVeroneseShape((1,), (4000,)), 1),
        lambda: secant_dimension(RationalNormalCurve(5000), 1),
        lambda: tangential_projection_finite(GrassShape(7, 15), 19),
        lambda: tangential_projection_finite(SegreVeroneseShape((1,), (4999,)), 1999),
        lambda: osculating_projection_finite(SegreVeroneseShape((1,), (4000,)), [(0, 1)]),
    ],
)
def test_terracini_cap_refuses_before_sampling(call, monkeypatch):
    monkeypatch.setattr("grassdef.oracle.enumerate_indices", _refuse_enumeration)
    monkeypatch.setattr("grassdef.oracle._distance_table", _refuse_enumeration)
    build_parametrization.cache_clear()
    with pytest.raises(CapExceeded, match="above the cap of 16000000"):
        call()
    assert build_parametrization.cache_info().misses == 0


def test_held_variables_are_pivot_columns_and_first_units_per_factor():
    field = PrimeField(DEFAULT_PRIME)
    G = build_parametrization(GrassShape(1, 4))
    # columns 0 and 1 are proportional, so columns 0 and 2 are held in both
    # rows; a matrix of rank 1 holds nothing
    assert _held(G, (1, 2, 0, 0, 1, 2, 4, 1, 0, 0), field) == {0, 2, 5, 7}
    assert _held(G, (1, 2, 0, 0, 1, 2, 4, 0, 0, 2), None) == frozenset()
    # the factors x_0, x_1 and y_0, y_1, y_2; p is a unit over Q only
    sv = build_parametrization(SegreVeroneseShape((1, 2), (2, 2)))
    point = (0, 3, DEFAULT_PRIME, 0, 5)
    assert _held(sv, point, None) == {1, 2}
    assert _held(sv, point, field) == {1, 4}
    # a point of the wrong length holds nothing, so jet_matrix refuses it
    for P, point in ((G, (1, 0, 0, 0, 0, 1)), (sv, (1, 0, 0, 1))):
        with pytest.raises(ValueError, match=f"^point must have {P.domain_dim} coordinates$"):
            osculating_rank_sweep(P, point, 2, field)


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), None], ids=["modp", "rational"])
@pytest.mark.parametrize("r, n", [(0, 3), (1, 3), (1, 5), (2, 5), (2, 7), (3, 8), (4, 9)])
def test_held_variables_at_i_a_are_the_identity_columns(r, n, field):
    # the secant trials sample the jets at [I | A] less the held rows, which
    # are exactly the rows of the identity columns; A may have zero entries
    # and entries that vanish modulo p
    shape = GrassShape(r, n)
    P = build_parametrization(shape)
    identity = {i * (n + 1) + c for i in range(r + 1) for c in range(r + 1)}
    rng = random.Random(f"held:{r}:{n}")
    for _ in range(5):
        A = [rng.choice([0, 1, -1, DEFAULT_PRIME, rng.randint(-(1 << 20), 1 << 20)]) for _ in range(shape.dim)]
        assert _held(P, full_point(shape, A), field) == identity


def test_jets_at_coordinate_points_are_singleton_rows():
    for shape in (GrassShape(1, 4), GrassShape(2, 5)):
        P = build_parametrization(shape)
        rows = jet_matrix(P, grass_coord_point(shape, tuple(range(shape.r + 1))), 1)
        for row in rows.values():
            assert len(row) == 1


def test_rank_sweep_matches_individual_jet_matrices():
    shape = GrassShape(1, 4)
    P = build_parametrization(shape)
    pt = grass_coord_point(shape, (0, 1))
    sweep = osculating_rank_sweep(P, pt, 3)
    for s in range(4):
        assert sweep[s] == rank(jet_matrix(P, pt, s).values())


@pytest.mark.parametrize("r, n, s_max", [(5, 11, 3), (6, 13, 2)])
def test_osculating_sweep_on_large_grassmannians(r, n, s_max):
    shape = GrassShape(r, n)
    index = tuple(range(r + 1))
    field = PrimeField(DEFAULT_PRIME)
    ranks = osculating_rank_sweep(build_parametrization(shape), grass_coord_point(shape, index), s_max, field)
    for s in range(s_max + 1):
        assert ranks[s] - 1 == osculating_dim_grass(r, n, s) == len(ball(shape, index, s)) - 1


@lru_cache(maxsize=None)
def sympy_pluecker_expansion(shape, point):
    """Reference jets: {alpha: {column: coefficient of z^alpha}} in the
    expansion of det(X[:, J]) at X = point + z, by sympy."""
    size, width = shape.r + 1, shape.n + 1
    zs = sympy.symbols(f"z0:{size * width}")
    X = sympy.Matrix(size, width, [a + z for a, z in zip(point, zs)])
    rows = {}
    for col, J in enumerate(enumerate_indices(shape)):
        poly = sympy.Poly(X.extract(list(range(size)), list(J)).det(method="berkowitz"), *zs)
        for alpha, coef in poly.as_dict().items():
            rows.setdefault(alpha, {})[col] = int(coef)
    return rows


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), None], ids=["modp", "rational"])
@pytest.mark.parametrize("r, n", [(1, 3), (1, 4), (2, 5), (2, 6)])
def test_grassmannian_jets_match_sympy_minor_expansion(r, n, field):
    # the full map at a coordinate point, at a random integer point with
    # zero entries and at a point [I | A] with a zero entry in A
    shape = GrassShape(r, n)
    P = build_parametrization(shape)
    rng = random.Random(f"jets:{r}:{n}")
    general = [rng.randint(-5, 5) for _ in range((r + 1) * (n + 1))]
    general[0] = general[-1] = 0
    A = [rng.randint(-5, 5) for _ in range(shape.dim)]
    A[0] = 0
    origin = grass_coord_point(shape, tuple(range(r + 1)))
    for point in (origin, tuple(general), full_point(shape, A)):
        expansion = sympy_pluecker_expansion(shape, point)
        for s in range(r + 2):
            expected = {}
            for alpha, row in expansion.items():
                reduced = {c: v % field.p if field else v for c, v in row.items()}
                reduced = {c: v for c, v in reduced.items() if v}
                if sum(alpha) <= s and reduced:
                    expected[alpha] = reduced
            assert jet_matrix(P, point, s, field) == expected


def chart_point(shape, seed):
    rng = random.Random(seed)
    return tuple(rng.randint(-99, 99) for _ in range(shape.dim))


def in_directions_of_a(shape, alpha):
    """Whether a derivative index of the Pluecker map differentiates no
    entry of the identity columns of [I | A]."""
    size, width = shape.r + 1, shape.n + 1
    return not any(alpha[i * width + c] for i in range(size) for c in range(size))


def chart_rows(shape, A):
    """The tangent rows of the Pluecker map at [I | A], less the held rows
    of the identity columns: the value row, then one row per entry of A."""
    P, point = build_parametrization(shape), full_point(shape, A)
    return list(jet_matrix(P, point, 1, held=_held(P, point, None)).values())


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), None], ids=["modp", "rational"])
def test_chart_rows_span_the_order_one_jets(field):
    for r, n in ((1, 3), (1, 4), (1, 5), (2, 5), (2, 6), (3, 7)):
        shape = GrassShape(r, n)
        A = chart_point(shape, 10 * r + n)
        rows = chart_rows(shape, A)
        assert len(rows) == shape.dim + 1
        assert rank(rows, field) == shape.dim + 1
        jets = jet_matrix(build_parametrization(shape), full_point(shape, A), 1, field)
        stacked = rows + list(jets.values())
        assert rank(stacked, field) == shape.dim + 1


def test_chart_point_row_is_pluecker():
    shape = GrassShape(1, 3)
    for seed in range(20):
        row = chart_rows(shape, chart_point(shape, seed))[0]
        p01, p02, p03, p12, p13, p23 = (row.get(c, 0) for c in range(6))
        assert p01 == 1
        assert p01 * p23 - p02 * p13 + p03 * p12 == 0


@pytest.mark.parametrize("r, n", [(1, 3), (1, 5), (2, 5), (2, 7), (3, 8)])
def test_chart_rows_at_the_origin_span_the_coordinate_ball(r, n):
    # A = 0 is the coordinate point e_{0..r}: its tangent rows are supported
    # exactly on the radius 1 ball around (0, ..., r)
    shape = GrassShape(r, n)
    rows = chart_rows(shape, (0,) * shape.dim)
    support = {c for row in rows for c in row}
    column = {J: pos for pos, J in enumerate(enumerate_indices(shape))}
    assert support == {column[J] for J in ball(shape, tuple(range(r + 1)), 1)}
    assert all(len(row) == 1 for row in rows)
    assert rank(rows) == shape.dim + 1


@pytest.mark.parametrize("field", [PrimeField(DEFAULT_PRIME), None], ids=["modp", "rational"])
@pytest.mark.parametrize("r, n", [(1, 3), (1, 5), (2, 5), (2, 6), (3, 7)])
def test_chart_jets_are_full_jets_in_the_directions_of_a(r, n, field):
    # holding the identity columns at [I | A] keeps exactly the full jets
    # that differentiate only entries of A, up to order r + 1
    shape = GrassShape(r, n)
    P = build_parametrization(shape)
    for seed in range(3):
        rng = random.Random(f"chart:{r}:{n}:{seed}")
        A = [rng.randint(-9, 9) for _ in range(shape.dim)]
        A[seed] = 0
        point = full_point(shape, A)
        full = jet_matrix(P, point, r + 1, field)
        expected = {alpha: row for alpha, row in full.items() if in_directions_of_a(shape, alpha)}
        assert jet_matrix(P, point, r + 1, field, _held(P, point, field)) == expected


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 4294967291, "rational"])
@pytest.mark.parametrize(
    "shape",
    [
        SegreVeroneseShape((1,), (7,)),
        SegreVeroneseShape((3,), (4,)),
        SegreVeroneseShape((1, 2), (2, 3)),
        SegreVeroneseShape((2, 2, 2), (1, 1, 1)),
        RationalNormalCurve(8),
        GrassShape(1, 4),
        GrassShape(2, 6),
    ],
    ids=lambda shape: shape.label,
)
def test_sampled_tangent_rows_have_full_rank(shape, prime):
    # points are used without a smoothness check, so every draw must span
    # the tangent space of the cone, modulo the default prime, modulo
    # 2^32 - 5 and over the rationals
    field = None if prime == "rational" else PrimeField(prime)
    P = build_parametrization(shape)
    rng = random.Random(f"tangent:{shape.label}")
    for _ in range(20):
        assert rank(_sample_point(P, rng, field), field) == shape.dim + 1


def stacked_ranks(shape, h, seed, field):
    """Ranks of the tangent spaces at the first 1, ..., h of a sequence of
    random points, none of them a coordinate point: chart_rows at [I | A] on
    a Grassmannian, all order 1 jets otherwise.  Integer rows that are
    independent modulo p are independent over Q, so over Q the modular
    ranks are taken when each equals the number of rows stacked, and the
    rows are eliminated fraction-free otherwise."""
    rng = random.Random(f"stack:{seed}")
    points = []
    for _ in range(h):
        if isinstance(shape, GrassShape):
            points.append(chart_rows(shape, chart_point(shape, rng.random())))
        else:
            P = build_parametrization(shape)
            point = [rng.randint(1, 1 << 20) for _ in range(P.domain_dim)]
            points.append(list(jet_matrix(P, point, 1, field).values()))

    def ranks_over(f):
        acc = RankAccumulator(shape.num_coords, f)
        out = []
        for rows in points:
            for row in rows:
                acc.add_row(row)
            out.append(acc.rank)
        return out

    if field is None:
        modular = ranks_over(PrimeField(DEFAULT_PRIME))
        if modular == list(itertools.accumulate(len(rows) for rows in points)):
            return modular
    return ranks_over(field)


# alpha = floor((n+1)/(r+1)) on G(r, n) and min n_j + 1 on SV: rows with
# h <= alpha stack no random point, rows with h = alpha + 1 exactly one
COORDINATE_POINT_CASES = [
    (GrassShape(1, 5), 2),
    (GrassShape(1, 5), 3),
    (GrassShape(2, 8), 3),
    (GrassShape(2, 11), 4),
    (SegreVeroneseShape((3,), (4,)), 4),
    (SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 3),
    (SegreVeroneseShape((2,), (3,)), 4),
    (GrassShape(2, 6), 3),
    (GrassShape(3, 7), 3),
    (GrassShape(3, 7), 4),
    (GrassShape(2, 8), 4),
    (GrassShape(3, 8), 4),
    (GrassShape(3, 9), 5),
    (SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 4),
    (SegreVeroneseShape((1, 1), (2, 2)), 3),
    (RationalNormalCurve(8), 4),
    (RationalNormalCurve(7), 5),
    # past alpha = 2 on a packing of 5 or 6 points, certified by lower
    # semicontinuity alone
    (GrassShape(3, 9), 3),
    (GrassShape(3, 9), 4),
    *[(GrassShape(4, 9), h) for h in range(3, 9)],
]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, "rational"])
@pytest.mark.parametrize("shape, h", COORDINATE_POINT_CASES, ids=lambda v: getattr(v, "label", v))
def test_coordinate_points_keep_the_stacked_rank(shape, h, prime, monkeypatch):
    # the first of the h points are coordinate points, on the packing or the
    # min(h, alpha) blocks, both in secant_dimension and as the centers of
    # tangential_projection_finite; the ranks must be those of h and h + 1
    # general points stacked in full
    field = None if prime == "rational" else PrimeField(prime)
    survivor_columns = grassdef.oracle._survivor_columns
    used = []

    def spy(shape, coordinate):
        used.append(len(coordinate))
        return survivor_columns(shape, coordinate)

    monkeypatch.setattr(grassdef.oracle, "_survivor_columns", spy)
    for seed in (3, 11):
        low, high = stacked_ranks(shape, h + 1, seed, field)[-2:]
        cert = secant_dimension(shape, h, trials=1, prime=prime, seed=seed)
        assert cert.computed_dim == low - 1
        report = tangential_projection_finite(shape, h, trials=1, prime=prime, seed=seed)
        assert (report.center_rank, report.joint_rank) == (low, high)
    # every row here is decided on the first stack it tries
    assert set(used) == {len(grassdef.oracle._coordinate_points(shape, h)[0])}


@pytest.mark.parametrize("oracle", [secant_dimension, tangential_projection_finite], ids=lambda f: f.__name__)
def test_a_packed_deficit_reruns_on_the_blocks(oracle, monkeypatch):
    # every trial on the packing of G(4,9) h8 (six balls, two random points)
    # loses one rank; a deficit there proves nothing, so the answer must be
    # the one the two blocks and six random points give.  The packing stops
    # at its first shortfall; the blocks run both secant trials, and the
    # first projection trial reaches its ceilings there, so it is the only one
    shape, h = GrassShape(4, 9), 8
    on_the_blocks = 2 if oracle is secant_dimension else 1
    reference = oracle(shape, h, trials=2)
    trial = grassdef.oracle._trial
    on_the_packing = h - len(coordinate_packing(shape, h))
    groups_seen = []

    def short_on_the_packing(P, column_of, groups, *args):
        groups_seen.append(groups[0])
        ranks = trial(P, column_of, groups, *args)
        if groups[0] == on_the_packing:
            ranks = (ranks[0] - 1,) + ranks[1:]
        return ranks

    monkeypatch.setattr(grassdef.oracle, "_trial", short_on_the_packing)
    spy = PassSpy(monkeypatch)
    assert asdict(spy.run(oracle, shape, h, trials=2)) == asdict(reference)
    assert groups_seen == [on_the_packing] + [h - 2] * on_the_blocks
    assert len(spy.stacks) == 2 and spy.one_modular_pass_per_trial(range(on_the_blocks))


def test_the_last_stack_runs_every_label(monkeypatch):
    # every trial of G(4,9) h8 loses one rank on both stacks: the packing
    # stops at its first trial, and the blocks, the last stack, run all three
    trial = grassdef.oracle._trial
    monkeypatch.setattr(grassdef.oracle, "_trial", lambda *args: (trial(*args)[0] - 1,))
    spy = PassSpy(monkeypatch)
    cert = spy.run(secant_dimension, GrassShape(4, 9), 8, trials=3)
    assert cert.verdict == DEFECT_EVIDENCE and len(cert.trials) == 3
    assert len(spy.stacks) == 2 and spy.one_modular_pass_per_trial(range(3))
    assert [label for _, _, label in spy.calls] == [0, 0, 1, 2]


@pytest.mark.parametrize("seed", [1729, 7])
@pytest.mark.parametrize("h, ranks", [(6, (24, 26)), (7, (26, 27))])
def test_a_dropped_stack_is_not_tried_by_later_labels(h, ranks, seed, monkeypatch):
    # the 4-center packing of SV(1,1,1;2,2,2) falls short for label 0; the
    # labels after it start on the 2 blocks, so each stack's survivor
    # columns are built once and four trials run, not six
    shape = SegreVeroneseShape((1, 1, 1), (2, 2, 2))
    stacks = grassdef.oracle._coordinate_points(shape, h)
    assert [len(coordinate) for coordinate in stacks] == [4, 2]
    packing, blocks = [grassdef.oracle._survivor_columns(shape, coordinate) for coordinate in stacks]
    spy = PassSpy(monkeypatch)
    report = spy.run(tangential_projection_finite, shape, h, seed=seed)
    assert report.status == HYPOTHESIS_VIOLATED and (report.center_rank, report.joint_rank) == ranks
    assert spy.stacks == [packing, blocks]
    assert [(column_of, label) for column_of, _, label in spy.calls] == [
        (packing, 0),
        (blocks, 0),
        (blocks, 1),
        (blocks, 2),
    ]
    assert spy.one_modular_pass_per_trial(range(DEFAULT_TRIALS))


def test_a_label_short_on_the_packing_drops_it_for_the_labels_after_it(monkeypatch):
    # only label 1 loses a rank on the packing of G(4,9) h8: label 0 is
    # kept there, label 1 moves on to the blocks, and label 2 starts there
    shape, h = GrassShape(4, 9), 8
    reference = secant_dimension(shape, h, trials=3)
    assert reference.trials == (207, 207, 207)
    trial = grassdef.oracle._trial
    on_the_packing = h - len(coordinate_packing(shape, h))

    def label_1_short_on_the_packing(P, column_of, groups, field, seed, label, ceilings):
        ranks = trial(P, column_of, groups, field, seed, label, ceilings)
        return (ranks[0] - 1,) if groups[0] == on_the_packing and label == 1 else ranks

    monkeypatch.setattr(grassdef.oracle, "_trial", label_1_short_on_the_packing)
    spy = PassSpy(monkeypatch)
    assert asdict(spy.run(secant_dimension, shape, h, trials=3)) == asdict(reference)
    packing, blocks = spy.stacks
    assert [(column_of, label) for column_of, _, label in spy.calls] == [
        (packing, 0),
        (packing, 1),
        (blocks, 1),
        (blocks, 2),
    ]
    assert spy.one_modular_pass_per_trial(range(3))


# every Grassmannian G(r, n) with r <= 4 and n <= 11, normalized, and the
# (r, n, h) from which on a packing stack comes first, for every h <= 12:
# on each of these shapes the packing has more than alpha centers
WALK_GRID = sorted({GrassShape(r, n) for r in range(5) for n in range(r + 1, 12)}, key=lambda s: (s.r, s.n))
PACKED_FROM = [(3, 8, 3), (3, 9, 3), (3, 10, 3), (3, 11, 4), (4, 9, 3), (4, 10, 3), (4, 11, 3)]


def test_coordinate_points_skip_the_walk_without_changing_a_stack(monkeypatch):
    # the stacks are those of the walk over every point, and the packing
    # is walked only where it can have more than min(h, alpha) centers
    calls = []

    def spy(shape, k):
        calls.append((shape, k))
        return coordinate_packing(shape, k)

    monkeypatch.setattr(grassdef.oracle, "coordinate_packing", spy)
    assert len(WALK_GRID) == 35
    packed = set()
    for shape in WALK_GRID:
        alpha, walk = len(coordinate_blocks(shape, 10**6)), coordinate_packing(shape, 10**6)
        for h in range(1, 13):
            del calls[:]
            blocks, packing = coordinate_blocks(shape, h), walk[:h]
            expected = [packing, blocks] if len(packing) > len(blocks) else [blocks]
            got = grassdef.oracle._coordinate_points(shape, h)
            assert got == [[(index, 1) for index in stack] for stack in expected]
            if len(got) == 2:
                packed.add((shape.r, shape.n, h))
            if h <= alpha or shape.r <= 2:
                assert calls == []
            else:
                assert calls == [(shape, h)]
    assert packed == {(r, n, h) for r, n, first in PACKED_FROM for h in range(first, 13)}
    # a single factor Segre-Veronese shape has alpha pure points, so it
    # never walks; G(2,8) h4 is past alpha = 3 but needs disjoint centers
    del calls[:]
    for shape, h in ((SegreVeroneseShape((3,), (4,)), 9), (RationalNormalCurve(60), 31), (GrassShape(2, 8), 4)):
        assert grassdef.oracle._coordinate_points(shape, h) == [[(index, 1) for index in coordinate_blocks(shape, h)]]
    assert calls == []
    grassdef.oracle._coordinate_points(SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 4)
    assert len(calls) == 1


# the certificates of the classical defective Grassmannians at the default
# seed; their packings never exceed alpha, so they stay on the blocks
CLASSICAL_DEFECTS = [
    (GrassShape(1, 5), 2, 13, 14),
    (GrassShape(2, 6), 3, 33, 34),
    (GrassShape(3, 7), 3, 49, 50),
    (GrassShape(3, 7), 4, 63, 67),
    (GrassShape(2, 8), 4, 73, 75),
]


@pytest.mark.parametrize("shape, h, computed, expected", CLASSICAL_DEFECTS, ids=lambda v: getattr(v, "label", v))
def test_classical_defects_keep_their_certificates(shape, h, computed, expected):
    assert len(coordinate_packing(shape, h)) <= len(coordinate_blocks(shape, h))
    assert secant_dimension(shape, h).to_dict() == {
        "shape": shape.label,
        "h": h,
        "expected": expected,
        "computed": computed,
        "defect": expected - computed,
        "verdict": DEFECT_EVIDENCE,
        "prime": DEFAULT_PRIME,
        "seed": 1729,
        "trials": [computed] * DEFAULT_TRIALS,
        "elapsed_ms": None,
    }


DRAW_CASES = [
    # h <= alpha: every point is a coordinate point
    (secant_dimension, GrassShape(2, 8), 3, 3, 0),
    (secant_dimension, SegreVeroneseShape((3,), (4,)), 4, 3, 0),
    (secant_dimension, GrassShape(1, 5), 3, 3, 0),
    # h = alpha + 1: one random point per trial, drawn once
    (secant_dimension, GrassShape(2, 14), 6, 3, 3),
    (secant_dimension, SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 4, 1, 1),
    # all four centers are coordinate points (alpha = 4), and each trial
    # draws only the fresh point; with min(h, 2) coordinate centers it drew
    # three points per trial.  The first trial reaches both ceilings, so the
    # other two never run
    (tangential_projection_finite, GrassShape(2, 11), 4, 3, 1),
    # SV(1;60) h40 fills P^60: its two blocks drop 4 columns, and the other
    # 57 saturate within the 29th point of each trial, the last one drawn;
    # tangproj at h39 reaches both ceilings at the same 29 points of its
    # first trial, and draws no point for the h + 1st
    (secant_dimension, SegreVeroneseShape((1,), (60,)), 40, 3, 87),
    (tangential_projection_finite, SegreVeroneseShape((1,), (60,)), 39, 3, 29),
]


def spy_draws(monkeypatch) -> list:
    """Replace _sample_point by a spy that records the arguments of every
    draw."""
    sample = grassdef.oracle._sample_point
    calls = []

    def spy(*args):
        calls.append(args)
        return sample(*args)

    monkeypatch.setattr(grassdef.oracle, "_sample_point", spy)
    return calls


@pytest.mark.parametrize(
    "oracle, shape, h, trials, draws",
    DRAW_CASES,
    ids=[
        ("tangproj-" if oracle is tangential_projection_finite else "") + "-".join(
            (shape.label, str(h), str(trials), str(draws))
        )
        for oracle, shape, h, trials, draws in DRAW_CASES
    ],
)
def test_secant_draws_a_random_point_only_past_alpha(oracle, shape, h, trials, draws, monkeypatch):
    calls = spy_draws(monkeypatch)
    report = oracle(shape, h, trials=trials)
    assert len(calls) == draws
    if oracle is secant_dimension:
        assert len(set(report.trials)) == 1


@pytest.mark.parametrize("oracle", [secant_dimension, tangential_projection_finite], ids=lambda f: f.__name__)
def test_a_huge_h_stops_drawing_at_saturation(oracle, monkeypatch):
    # 10^5000 points: every stack saturates after a few, and the points
    # after that are left, not skipped one by one, so a loop that goes on
    # checking the accumulator fails here instead of hanging; on G(1,4) the
    # blocks leave no column at all
    calls = spy_draws(monkeypatch)
    saturated, reads = RankAccumulator.saturated.fget, itertools.count(1)

    def counted(acc):
        if next(reads) > 10_000:
            raise RuntimeError("the accumulator is still read after saturation")
        return saturated(acc)

    monkeypatch.setattr(RankAccumulator, "saturated", property(counted))
    for shape, draws in ((GrassShape(1, 4), 0), (SegreVeroneseShape((1,), (60,)), 29)):
        calls.clear()
        oracle(shape, 10**5000, trials=1)
        assert len(calls) == draws


FIBER_CALLS = {
    "oscproj-G(2,7)": ["oscproj", "--grass", "2", "7", "--centers", "0,1,2", "--orders", "2"],
    "tangproj-G(3,7)-h2": ["tangproj", "--grass", "3", "7", "--h", "2"],
}


@pytest.mark.parametrize("trials", [None, 1, 4])
@pytest.mark.parametrize("prime", [None, "rational"])
@pytest.mark.parametrize("argv", FIBER_CALLS.values(), ids=FIBER_CALLS)
def test_fiber_evidence_runs_every_trial(argv, prime, trials, monkeypatch, capsys):
    # every center is a coordinate point, so a trial draws one fresh point;
    # no trial reaches its ceilings, so none is left out, and over Q each
    # one draws it again for its fraction-free rerun
    calls = spy_draws(monkeypatch)
    monkeypatch.delenv("GRASSDEF_SEED", raising=False)
    flags = ([] if prime is None else ["--prime", prime]) + ([] if trials is None else ["--trials", str(trials)])
    assert main(argv + flags) == 0
    assert "-> FiberEvidence" in capsys.readouterr().out
    assert len(calls) == (DEFAULT_TRIALS if trials is None else trials) * (1 if prime is None else 2)


def test_a_rational_projection_certified_on_its_first_trial_feeds_no_exact_row(monkeypatch, capsys):
    # the first trial reaches dim X + 1 = 25 modulo p, so it is settled over
    # Q and the two other trials never run
    add_row = RankAccumulator.add_row
    fed = {"exact": 0, "modular": 0}

    def spy(self, row):
        fed["exact" if self.field is None else "modular"] += 1
        return add_row(self, row)

    monkeypatch.setattr(RankAccumulator, "add_row", spy)
    monkeypatch.delenv("GRASSDEF_SEED", raising=False)
    argv = ["--json", "oscproj", "--grass", "3", "9", "--centers", "0,1,2,3", "--orders", "1", "--prime", "rational"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["restricted_rank"], report["status"]) == (25, GENERICALLY_FINITE)
    assert fed == {"exact": 0, "modular": 25}


@pytest.mark.parametrize(
    "shape",
    [
        SegreVeroneseShape((2, 2, 2), (1, 1, 1)),
        SegreVeroneseShape((1, 2), (2, 3)),
        SegreVeroneseShape((3,), (4,)),
        RationalNormalCurve(8),
        GrassShape(2, 6),
    ],
    ids=lambda shape: shape.label,
)
@pytest.mark.parametrize("prime", [DEFAULT_PRIME, "rational"])
def test_trials_feed_dim_x_plus_one_rows_per_point(shape, prime, monkeypatch):
    # the x_{j,0} row of each Segre-Veronese factor is held by Euler's
    # relation; the rows that are fed still have full rank dim X + 1
    field = None if prime == "rational" else PrimeField(prime)
    sample = grassdef.oracle._sample_point
    drawn = []

    def spy(P, rng, field):
        drawn.append((sample(P, rng, field), field))
        return drawn[-1][0]

    monkeypatch.setattr(grassdef.oracle, "_sample_point", spy)
    P = build_parametrization(shape)
    columns = {c: c for c in range(shape.num_coords)}
    ceilings = (shape.dim + 1,)
    # each label is settled at its one point, modulo p for a rational request
    trial = grassdef.oracle._trial
    assert [trial(P, columns, [1], field, 5, label, ceilings) for label in range(3)] == [ceilings] * 3
    assert len(drawn) == 3
    # the reference draws the same labels in the requested field
    assert [full_column_ranks(P, columns, [1], field, 5, label) for label in range(3)] == [ceilings] * 3
    assert len(drawn) == 6 and [F for _, F in drawn[3:]] == [field] * 3
    for rows, F in drawn:
        assert len(rows) == rank(rows, F) == shape.dim + 1


TABLE_MAPS = [
    (lambda: replace(build_parametrization(GrassShape(2, 6))), "_chart_table"),
    (lambda: replace(build_parametrization(SegreVeroneseShape((1, 2), (2, 3)))), "_tangent_table"),
]


@pytest.mark.parametrize("make, name", TABLE_MAPS, ids=["chart", "sv"])
def test_tangent_tables_stay_outside_equality_hash_repr_and_asdict(make, name):
    fresh, used = make(), make()
    _sample_point(used, random.Random(0), None)
    assert name in vars(used) and name not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) and name not in repr(used)
    assert asdict(used) == asdict(fresh) and name not in asdict(used)


def count_builds(monkeypatch, cls, name) -> list:
    """Replace the cached table `name` of cls by one that records the map
    object of every build."""
    build = vars(cls)[name].func
    builds = []

    def counted(P):
        builds.append(P)
        return build(P)

    table = cached_property(counted)
    table.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, table)
    return builds


def test_tangent_tables_are_built_once_per_map_object(monkeypatch):
    # a CLI call builds its parametrization, and so its table, once; the
    # bench clears the cache before every case, so it pays the same
    builds = count_builds(monkeypatch, grassdef.oracle.Parametrization, "_tangent_table")
    shape = SegreVeroneseShape((1,), (7,))
    build_parametrization.cache_clear()
    secant_dimension(shape, 4)
    secant_dimension(shape, 4)
    assert len(builds) == 1
    build_parametrization.cache_clear()
    secant_dimension(shape, 4)
    assert len(builds) == 2 and builds[0] is not builds[1]
    # a rational defective row runs modulo p and then fraction-free, so two
    # passes draw points, both from the one cached map
    charts = count_builds(monkeypatch, PlueckerMap, "_chart_table")
    calls = spy_draws(monkeypatch)
    build_parametrization.cache_clear()
    secant_dimension(GrassShape(2, 8), 4, trials=1, prime="rational")
    assert [field for _, _, field in calls] == [PrimeField(DEFAULT_PRIME), None] and len(charts) == 1
    secant_dimension(GrassShape(2, 8), 4, trials=1, prime="rational")
    assert len(calls) == 4 and len({id(P) for P, _, _ in calls}) == 1 and len(charts) == 1
    build_parametrization.cache_clear()
    secant_dimension(GrassShape(2, 8), 4, trials=1, prime="rational")
    assert len(charts) == 2 and charts[0] is not charts[1]


@given(shape=st.one_of(sv_shapes(), st.builds(RationalNormalCurve, st.integers(1, 8))))
def test_parametrization_coords_are_the_exponent_vectors_of_the_indices(shape):
    # coordinate i is the monomial of enumerate_indices(shape)[i]: in the
    # block of factor j, the multiplicity of each value in the j-th part
    P = build_parametrization(shape)
    indices = enumerate_indices(shape)
    assert len(P.coords) == len(indices) == shape.num_coords
    widths = [nj + 1 for nj in shape.n]
    starts = list(itertools.accumulate(widths, initial=0))
    for expo, I in zip(P.coords, indices):
        assert len(expo) == P.domain_dim == starts[-1]
        parts = [expo[start : start + width] for start, width in zip(starts, widths)]
        assert [sum(part) for part in parts] == list(shape.d)
        assert parts == [tuple(part.count(v) for v in range(width)) for part, width in zip(I, widths)]


def test_rnc_jets_at_origin():
    # the origin of the chart x0 = 1 of the map (x0, x1) -> (x0^6, ..., x1^6)
    P = build_parametrization(RationalNormalCurve(6))
    assert osculating_rank_sweep(P, (1, 0), 4) == [1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# secant dimensions

CERTIFIED_CASES = [
    (GrassShape(1, 4), 2, 9),
    (GrassShape(2, 6), 2, 25),
    (GrassShape(3, 7), 2, 33),
    (GrassShape(2, 8), 3, 56),
]


@pytest.mark.parametrize("shape,h,expected", CERTIFIED_CASES)
def test_certified_secant_dimensions(shape, h, expected):
    cert = secant_dimension(shape, h)
    assert cert.expected_dim == expected
    assert cert.computed_dim == expected
    assert cert.defect == 0
    assert cert.verdict == CERTIFIED


DEFECTIVE_CASES = [
    (GrassShape(1, 5), 2, 14, 13),
    (GrassShape(2, 6), 3, 34, 33),
    (GrassShape(3, 7), 3, 50, 49),
    (GrassShape(3, 7), 4, 67, 63),
    (GrassShape(2, 8), 4, 75, 73),
    (SegreVeroneseShape((2,), (2,)), 2, 5, 4),
    (SegreVeroneseShape((1, 1), (2, 2)), 3, 8, 7),
    (SegreVeroneseShape((1, 1, 1), (1, 1, 2)), 3, 11, 10),
    (SegreVeroneseShape((1, 1, 1, 1), (1, 1, 1, 1)), 3, 14, 13),
    (SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 4, 26, 25),
]


@pytest.mark.parametrize("shape,h,expected,computed", DEFECTIVE_CASES)
def test_defective_secant_dimensions(shape, h, expected, computed):
    cert = secant_dimension(shape, h)
    assert cert.expected_dim == expected
    assert cert.computed_dim == computed
    assert cert.defect == expected - computed
    assert cert.verdict == DEFECT_EVIDENCE
    assert "evidence" in cert.note.lower() or cert.note


def test_secant_certificate_serialization():
    cert = secant_dimension(GrassShape(1, 4), 2)
    payload = cert.to_dict()
    assert sorted(payload) == [
        "computed", "defect", "elapsed_ms", "expected", "h",
        "prime", "seed", "shape", "trials", "verdict",
    ]
    # the key stays, always null, so equal runs give equal JSON
    assert payload["elapsed_ms"] is None
    assert json.loads(json.dumps(payload)) == payload


def test_secant_escalates_to_a_rational_trial_when_trials_disagree(monkeypatch):
    # SV(2;3) at h=4: the three coordinate balls (alpha = 3) leave one column,
    # which only the random fourth point reaches; starve its first draw so
    # trial 0 falls short
    sample = grassdef.oracle._sample_point
    calls = []

    def first_draw_empty(P, rng, field):
        calls.append(field)
        return [] if len(calls) == 1 else sample(P, rng, field)

    monkeypatch.setattr(grassdef.oracle, "_sample_point", first_draw_empty)
    trials = 3
    shape = SegreVeroneseShape((2,), (3,))
    cert = secant_dimension(shape, 4, trials=trials)
    assert cert.trials == (8, 9, 9, 9)
    assert len(cert.trials) == trials + 1
    assert cert.trials[0] < cert.expected_dim
    assert cert.note.startswith("trials disagreed")
    assert cert.trials[-1] == max(cert.trials) == cert.computed_dim
    assert cert.verdict == CERTIFIED
    # the appended trial is the fraction-free trial "rational" on all
    # survivor columns, computed here independently
    monkeypatch.undo()
    (coordinate,) = grassdef.oracle._coordinate_points(shape, 4)
    column_of = grassdef.oracle._survivor_columns(shape, coordinate)
    groups = [4 - len(coordinate)]
    exact = full_column_ranks(build_parametrization(shape), column_of, groups, None, cert.seed, "rational")
    dropped = shape.num_coords - len(column_of)
    assert (cert.trials[-1] + 1 - dropped,) == exact


def test_secant_is_deterministic_in_seed():
    a = secant_dimension(GrassShape(1, 4), 2, seed=99)
    b = secant_dimension(GrassShape(1, 4), 2, seed=99)
    assert a.to_dict() == b.to_dict()


def test_secant_rational_prime_agrees():
    a = secant_dimension(SegreVeroneseShape((2,), (2,)), 2, trials=1, prime="rational")
    assert a.computed_dim == 4
    assert a.prime == "rational"
    for shape, computed in ((GrassShape(2, 6), 33), (GrassShape(3, 7), 49)):
        exact = secant_dimension(shape, 3, trials=1, prime="rational")
        assert exact.computed_dim == computed
        assert secant_dimension(shape, 3, trials=1).computed_dim == computed


def test_secant_saturates_at_ambient():
    cert = secant_dimension(RationalNormalCurve(4), 5)
    assert cert.expected_dim == 4
    assert cert.computed_dim == 4


def killed_by_distance(shape, checked) -> dict[int, int]:
    """The survivor columns by their definition: every index within
    distance s_i of the i-th center is killed, and the others are numbered
    in enumeration order."""
    survivors = [
        pos
        for pos, J in enumerate(enumerate_indices(shape))
        if all(distance(shape, I, J) > s for I, s in checked)
    ]
    return {col: place for place, col in enumerate(survivors)}


def test_survivor_columns_match_their_definition():
    oracle = grassdef.oracle
    cases = []
    # the osculating bench's oscproj shapes, from one coordinate center
    for r, n in ((1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8)):
        for s in range(r + 3):
            cases.append((GrassShape(r, n), [(tuple(range(r + 1)), s)]))
    sv = (((1, 1), (2, 2)), ((2,), (3,)), ((3,), (3,)), ((1, 1, 1), (1, 1, 1)), ((1, 2), (2, 1)), ((1, 2), (2, 2)))
    for ns, ds in sv:
        for s in range(sum(ds) + 2):
            cases.append((SegreVeroneseShape(ns, ds), [(0, s)]))
    for n in range(3, 11):
        for a in range(n):
            for b in range(n - a):
                cases.append((RationalNormalCurve(n), [(0, a), (n, b)]))
    cases.append((GrassShape(2, 7), [((0, 1, 2), 1), ((3, 4, 5), 1)]))
    for shape, centers in cases:
        checked = oracle._osculating_centers(shape, centers)
        assert oracle._survivor_columns(shape, checked) == killed_by_distance(shape, checked)
    # secant coordinate points
    for shape, h in ((GrassShape(4, 9), 8), (SegreVeroneseShape((1,), (60,)), 31), (GrassShape(2, 14), 6)):
        for coordinate in oracle._coordinate_points(shape, h):
            assert len(coordinate) >= 2
            assert oracle._survivor_columns(shape, coordinate) == killed_by_distance(shape, coordinate)


def full_column_ranks(P, column_of, groups, field, seed, label, ceilings=None):
    """One trial from its definition, with _trial's signature: every row of
    _sample_point at every point the groups of label draw from
    random.Random("seed:label"), restricted to the columns in column_of and
    renumbered by it, in one RankAccumulator over the requested field, with
    no modular pass and no stop at saturation."""
    rng = random.Random(f"{seed}:{label}")
    acc = RankAccumulator(len(column_of), field)
    ranks = []
    for points in groups:
        for _ in range(points):
            for row in grassdef.oracle._sample_point(P, rng, field):
                acc.add_row({column_of[c]: v for c, v in row.items() if c in column_of})
        ranks.append(acc.rank)
    return tuple(ranks)


def full_column_trials(shape, h, trials, prime, seed):
    """The trials tuple of secant_dimension with every trial on all
    survivor columns of the blocks, and one rational trial more when they
    disagree."""
    field = None if prime == "rational" else PrimeField(prime)
    P = build_parametrization(shape)
    coordinate = grassdef.oracle._coordinate_points(shape, h)[-1]
    column_of = grassdef.oracle._survivor_columns(shape, coordinate)
    groups = [h - len(coordinate)]
    ranks = [full_column_ranks(P, column_of, groups, field, seed, label) for label in range(trials)]
    if len(set(ranks)) > 1:
        ranks.append(full_column_ranks(P, column_of, groups, None, seed, "rational"))
    dropped = shape.num_coords - len(column_of)
    return tuple(dropped + rank - 1 for (rank,) in ranks)


FULL_COLUMN_CASES = [
    (GrassShape(3, 8), 4),
    (GrassShape(3, 9), 5),
    # every point a coordinate point: the target on the survivors is 0
    (GrassShape(2, 8), 3),
    (GrassShape(2, 6), 3),
    (GrassShape(3, 7), 3),
    (GrassShape(3, 7), 4),
    (GrassShape(2, 8), 4),
    # the target rank equals the survivor column count
    (SegreVeroneseShape((1, 1), (2, 2)), 3),
    (RationalNormalCurve(7), 5),
]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, "rational"])
@pytest.mark.parametrize("shape, h", FULL_COLUMN_CASES, ids=lambda v: getattr(v, "label", v))
def test_secant_trials_equal_the_full_column_trials(shape, h, prime):
    trials = 1 if prime == "rational" else DEFAULT_TRIALS
    for seed in (3, 11):
        cert = secant_dimension(shape, h, trials=trials, prime=prime, seed=seed)
        assert cert.trials == full_column_trials(shape, h, trials, prime, seed)


PROJECTION_CASES = [
    (tangential_projection_finite, GrassShape(2, 6), 1, GENERICALLY_FINITE),
    (tangential_projection_finite, GrassShape(2, 11), 4, GENERICALLY_FINITE),
    (tangential_projection_finite, GrassShape(2, 8), 3, FIBER_EVIDENCE),
    (tangential_projection_finite, GrassShape(2, 6), 3, HYPOTHESIS_VIOLATED),
    (tangential_projection_finite, SegreVeroneseShape((3,), (4,)), 3, GENERICALLY_FINITE),
    (osculating_projection_finite, GrassShape(2, 7), [((0, 1, 2), 1), ((3, 4, 5), 1)], GENERICALLY_FINITE),
    (osculating_projection_finite, GrassShape(1, 4), [((0, 1), 1)], FIBER_EVIDENCE),
    (osculating_projection_finite, GrassShape(2, 5), [((0, 1, 2), 2)], CONSTANT_MAP),
    (osculating_projection_finite, SegreVeroneseShape((1, 1), (2, 2)), [(0, 2)], GENERICALLY_FINITE),
]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, "rational"])
@pytest.mark.parametrize(
    "oracle, shape, argument, status",
    PROJECTION_CASES,
    ids=[f"{oracle.__name__[:3]}-{shape.label}-{status}" for oracle, shape, _, status in PROJECTION_CASES],
)
def test_projection_reports_equal_the_full_column_runs(oracle, shape, argument, status, prime, monkeypatch):
    trials = 1 if prime == "rational" else DEFAULT_TRIALS
    for seed in (3, 11):
        report = oracle(shape, argument, trials=trials, prime=prime, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(grassdef.oracle, "_trial", full_column_ranks)
            reference = oracle(shape, argument, trials=trials, prime=prime, seed=seed)
        assert report.status == status
        assert asdict(report) == asdict(reference)


def record_accumulators(patch) -> list:
    """Replace the oracle's RankAccumulator by a subclass that records the
    (column count, field) of every accumulator built."""
    built = []

    class Accumulator(RankAccumulator):
        def __init__(self, ncols, field=None):
            built.append((ncols, field))
            super().__init__(ncols, field)

    patch.setattr(grassdef.oracle, "RankAccumulator", Accumulator)
    return built


class PassSpy:
    """Records, for every oracle call made inside it, the survivor columns
    of each stack tried, the (column map, field, label) of each _trial
    call and whether it fell short of its ceilings, and the (column count,
    field) of each RankAccumulator built, one per pass over a trial's
    points."""

    def __init__(self, patch):
        self.stacks, self.calls, self.short = [], [], []
        trial = grassdef.oracle._trial
        survivor_columns = grassdef.oracle._survivor_columns

        def trial_spy(P, column_of, groups, field, seed, label, ceilings):
            self.calls.append((column_of, field, label))
            ranks = trial(P, column_of, groups, field, seed, label, ceilings)
            self.short.append(ranks != ceilings)
            return ranks

        def survivors_spy(shape, coordinate):
            self.stacks.append(survivor_columns(shape, coordinate))
            return self.stacks[-1]

        patch.setattr(grassdef.oracle, "_trial", trial_spy)
        patch.setattr(grassdef.oracle, "_survivor_columns", survivors_spy)
        self.passes = record_accumulators(patch)

    def run(self, oracle, *args, **kwargs):
        self.stacks.clear()
        self.calls.clear()
        self.short.clear()
        self.passes.clear()
        return oracle(*args, **kwargs)

    def one_modular_pass_per_trial(self, labels) -> bool:
        """Whether the given labels ran in order, each once in one pass
        modulo DEFAULT_PRIME on the survivor columns of every stack it
        tried: a label starts on the first stack no earlier label fell
        short on, and moves to the next stack while it falls short on one
        before the last, which is then dropped for the labels after it."""
        prime = PrimeField(DEFAULT_PRIME)
        calls, short, stack, last = [], iter(self.short), 0, len(self.stacks) - 1
        for label in labels:
            calls.append((self.stacks[stack], prime, label))
            while next(short, False) and stack < last:
                stack += 1
                calls.append((self.stacks[stack], prime, label))
        return self.calls == calls and self.passes == [(len(survivors), prime) for survivors, _, _ in calls]


def test_each_stack_runs_its_trials_once_on_its_survivor_columns(monkeypatch):
    spy = PassSpy(monkeypatch)
    # modulo p: one modular pass per trial and stack tried, on exactly its
    # survivor columns, certified or defective; the packing's five balls
    # decide G(3,9) h5 alone, and G(4,9) h8 leaves two random points to its
    # packing of six
    prime = PrimeField(DEFAULT_PRIME)
    for shape, h, trials, verdict in (
        (GrassShape(3, 9), 5, 3, CERTIFIED),
        (GrassShape(4, 9), 8, 1, CERTIFIED),
        (GrassShape(2, 8), 4, 3, DEFECT_EVIDENCE),
        (GrassShape(3, 7), 4, 3, DEFECT_EVIDENCE),
    ):
        assert spy.run(secant_dimension, shape, h, trials=trials).verdict == verdict
        assert spy.one_modular_pass_per_trial(range(trials))
        assert len(spy.stacks) == 1
    # the first trial reaches both ceilings, so it is the only one
    report = spy.run(tangential_projection_finite, GrassShape(2, 11), 4)
    assert report.status == GENERICALLY_FINITE
    assert spy.one_modular_pass_per_trial([0])
    # over Q: one modular pass, and a fraction-free one on the same columns
    # only when it falls short
    assert spy.run(secant_dimension, GrassShape(3, 9), 5, trials=1, prime="rational").verdict == CERTIFIED
    (survivors,) = spy.stacks
    assert spy.calls == [(survivors, None, 0)]
    assert spy.passes == [(len(survivors), prime)]
    assert spy.run(secant_dimension, GrassShape(2, 8), 4, trials=1, prime="rational").verdict == DEFECT_EVIDENCE
    (survivors,) = spy.stacks
    assert spy.calls == [(survivors, None, 0)]
    assert spy.passes == [(len(survivors), prime), (len(survivors), None)]


@pytest.mark.parametrize(
    "oracle, shape, h, seeds, labels",
    [
        (secant_dimension, GrassShape(2, 7), 3, range(40), range(DEFAULT_TRIALS)),
        (secant_dimension, GrassShape(3, 8), 4, [*range(40), 1729, *range(1729000, 1729010)], range(DEFAULT_TRIALS)),
        (tangential_projection_finite, GrassShape(2, 11), 3, [1729], [0]),
    ],
    ids=["G(2,7)-h3", "G(3,8)-h4", "tangproj-G(2,11)-h3"],
)
def test_certified_rows_make_one_trial_pass(oracle, shape, h, seeds, labels, monkeypatch):
    # one stack per row and seed, and one modular pass per trial on it:
    # every trial reaches its ceilings on the survivor columns of the first
    # stack, and a projection's first trial is its only one
    spy = PassSpy(monkeypatch)
    for seed in seeds:
        spy.run(oracle, shape, h, seed=seed)
        assert len(spy.stacks) == 1 and spy.one_modular_pass_per_trial(labels), seed


@settings(deadline=None)
@given(
    shape=grass_shapes(max_r=3, max_n=9),
    h=st.integers(1, 9),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_one_pass_per_stack_gives_the_full_column_trials(shape, h, trials, seed):
    with pytest.MonkeyPatch.context() as patch:
        spy = PassSpy(patch)
        cert = spy.run(secant_dimension, shape, h, trials=trials, seed=seed)
    assert spy.one_modular_pass_per_trial(range(trials))
    assert cert.trials == full_column_trials(shape, h, trials, DEFAULT_PRIME, seed)


@st.composite
def projection_calls(draw):
    """A tangential projection at h <= 4 points, or an osculating one from
    up to three centers of orders 0..2, of a Grassmannian G(r, n) with
    r <= 3 and n <= 8, a Segre-Veronese shape of up to two factors with
    n_j <= 2 and d_j <= 3, or RNC(n) with n <= 8."""
    kind = draw(st.sampled_from(["grass", "sv", "rnc"]))
    if kind == "grass":
        shape = draw(grass_shapes(max_r=3, max_n=8))
        order = draw(st.permutations(range(shape.n + 1)))
        size = shape.r + 1
        indices = [tuple(sorted(order[i : i + size])) for i in range(0, shape.n + 2 - size, size)]
    elif kind == "sv":
        shape = draw(sv_shapes(max_factors=2, max_n=2))
        indices = list(range(min(shape.n) + 1))
    else:
        shape = RationalNormalCurve(draw(st.integers(1, 8)))
        indices = [0, shape.d[0]]
    if draw(st.booleans()):
        return tangential_projection_finite, shape, draw(st.integers(1, 4))
    count = draw(st.integers(1, min(3, len(indices))))
    return osculating_projection_finite, shape, [(I, draw(st.integers(0, 2))) for I in indices[:count]]


def every_trial_at_once(ranks, ceilings):
    # every label run and the best tuple kept, which the early stop must match
    return max(ranks)


@settings(deadline=None)
@given(
    call=projection_calls(),
    prime=st.sampled_from([DEFAULT_PRIME, "rational"]),
    trials=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_projection_trials_stop_without_changing_the_report(call, prime, trials, seed):
    # the labels left out after the first that reaches its ceilings never
    # change the report, modulo p or over Q
    oracle, shape, arg = call
    report = oracle(shape, arg, trials=trials, prime=prime, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grassdef.oracle, "_best_trial", every_trial_at_once)
        assert asdict(report) == asdict(oracle(shape, arg, trials=trials, prime=prime, seed=seed))


def test_a_modular_shortfall_is_never_the_rational_answer(monkeypatch):
    # every modular draw loses its last row, so the modular pass falls short
    # of the target; only the fraction-free rerun reaches it
    sample = grassdef.oracle._sample_point

    def drop_last_row_modulo_p(P, rng, field):
        rows = sample(P, rng, field)
        return rows if field is None else rows[:-1]

    monkeypatch.setattr(grassdef.oracle, "_sample_point", drop_last_row_modulo_p)
    cert = secant_dimension(GrassShape(3, 9), 5, trials=1, prime="rational")
    assert cert.trials == (124,)
    assert cert.verdict == CERTIFIED


def test_only_the_label_that_falls_short_reruns_fraction_free(monkeypatch):
    # each trial of G(2,14) h6 draws one random point; label 1 of 3 loses
    # the last row of its modular draw, so it alone falls short modulo p.
    # The other two are settled there, so the one exact RankAccumulator is
    # label 1's, and the certificate is the unpatched one
    shape, h, seed = GrassShape(2, 14), 6, 1729
    reference = secant_dimension(shape, h, prime="rational", seed=seed)
    starts = {random.Random(f"{seed}:{label}").getstate(): label for label in range(DEFAULT_TRIALS)}
    label_of, exact_draws = {}, []
    sample = grassdef.oracle._sample_point

    def short_on_label_1(P, rng, field):
        if rng not in label_of:
            label_of[rng] = starts[rng.getstate()]
        rows = sample(P, rng, field)
        if field is None:
            exact_draws.append(label_of[rng])
            return rows
        return rows[:-1] if label_of[rng] == 1 else rows

    monkeypatch.setattr(grassdef.oracle, "_sample_point", short_on_label_1)
    built = record_accumulators(monkeypatch)
    assert secant_dimension(shape, h, prime="rational", seed=seed) == reference
    assert [field for _, field in built].count(None) == 1
    assert exact_draws == [1]


def test_a_certified_rational_secant_never_runs_the_exact_branch(monkeypatch):
    add_row = RankAccumulator.add_row
    fed = {"exact": 0, "modular": 0}

    def spy(self, row):
        fed["exact" if self.field is None else "modular"] += 1
        return add_row(self, row)

    monkeypatch.setattr(RankAccumulator, "add_row", spy)
    cert = secant_dimension(SegreVeroneseShape((1,), (60,)), 31, trials=1, prime="rational")
    assert cert.shape == "SV(1;60)" and cert.trials == (60,)
    assert fed["exact"] == 0 and fed["modular"] > 0
    # the projections reach their ceilings modulo p under the same rule
    fed.update(exact=0, modular=0)
    report = tangential_projection_finite(GrassShape(2, 11), 4, trials=1, prime="rational")
    assert (report.center_rank, report.joint_rank, report.status) == (112, 140, GENERICALLY_FINITE)
    assert fed["exact"] == 0 and fed["modular"] > 0
    fed.update(exact=0, modular=0)
    report = osculating_projection_finite(GrassShape(3, 9), [((0, 1, 2, 3), 1)], trials=1, prime="rational")
    assert (report.restricted_rank, report.status) == (25, GENERICALLY_FINITE)
    assert fed["exact"] == 0 and fed["modular"] > 0


def test_secant_parameter_validation():
    with pytest.raises(ValueError):
        secant_dimension(GrassShape(1, 4), 0)
    with pytest.raises(ValueError):
        secant_dimension(GrassShape(1, 4), 1, trials=0)
    with pytest.raises(ValueError):
        secant_dimension(GrassShape(1, 4), 1, trials=65)
    with pytest.raises(ValueError):
        secant_dimension(GrassShape(1, 4), 1, prime=101)


# name -> (a call taking one integer argument, an integer it refuses as out
# of range with ValueError, or None when every integer is allowed)
INTEGER_ARGUMENTS = {
    "RationalNormalCurve": (RationalNormalCurve, 0),
    "DivisorClass.a": (lambda v: DivisorClass(v, (1,)), None),
    "DivisorClass.b": (lambda v: DivisorClass(1, (v,)), None),
    "CurveClass.c": (lambda v: CurveClass(v, (1,)), None),
    "CurveClass.m": (lambda v: CurveClass(1, (v,)), None),
    "anticanonical": (lambda v: anticanonical(Ambient.projective(3), v), -1),
    "mori_cone_generators": (lambda v: mori_cone_generators(Ambient.projective(3), v), -1),
    "classify_fano": (lambda v: classify_fano(Ambient.projective(3), v), -1),
    "Ambient.quadric": (Ambient.quadric, 1),
    "Ambient.projective": (Ambient.projective, 1),
    "mori_chambers_g1n1": (mori_chambers_g1n1, 2),
    "spherical_status.k": (lambda v: spherical_status(1, 5, v), 0),
    "effective_cone.k": (lambda v: effective_cone(1, 5, v), 0),
    "mds_status.k": (lambda v: mds_status(1, 5, v), -1),
    "h_m.m": (lambda v: h_m(v, 3), 1),
    "h_m.k": (lambda v: h_m(3, v), -1),
    "osculating_dim_grass.s": (lambda v: osculating_dim_grass(2, 7, v), -1),
    "SegreVeroneseShape.n": (lambda v: SegreVeroneseShape((v,), (2,)), 0),
    "SegreVeroneseShape.d": (lambda v: SegreVeroneseShape((2,), (v,)), 0),
    "ball.radius": (lambda v: ball(GrassShape(1, 4), (0, 1), v), -1),
    "ball.grass_index": (lambda v: ball(GrassShape(1, 4), (0, v), 1), 5),
    "ball.sv_index": (lambda v: ball(SegreVeroneseShape((1, 3), (1, 2)), ((0,), (0, v)), 1), 4),
    "RankAccumulator.ncols": (RankAccumulator, -1),
    "limit_hyperplane_coeffs.D": (lambda v: limit_hyperplane_coeffs(v, 2, 1, 0, 0), None),
    "limit_hyperplane_coeffs.s": (lambda v: limit_hyperplane_coeffs(5, v, 1, 1, 1), 6),
    "limit_hyperplane_coeffs.sbar": (lambda v: limit_hyperplane_coeffs(10, 5, v, 1, 1), -1),
    "limit_hyperplane_coeffs.k1": (lambda v: limit_hyperplane_coeffs(10, 5, 1, v, 1), -1),
    "limit_hyperplane_coeffs.k2": (lambda v: limit_hyperplane_coeffs(10, 5, 1, 1, v), -1),
    "Partition.parts": (lambda v: Partition(2, 5, (v,)), 4),
    "FerrersDiagram.outer": (lambda v: FerrersDiagram((v,)), -1),
    "FerrersDiagram.inner": (lambda v: FerrersDiagram((3,), (v,)), -1),
    "jet_matrix.order": (lambda v: jet_matrix(build_parametrization(RationalNormalCurve(3)), (1, 2), v), -1),
    "osculating_dim_sv.s": (lambda v: osculating_dim_sv(SegreVeroneseShape((1,), (2,)), v), -1),
    "secant_dimension.h": (lambda v: secant_dimension(GrassShape(1, 4), v), 0),
    "secant_dimension.trials": (lambda v: secant_dimension(GrassShape(1, 4), 2, trials=v), 65),
    "tangential_projection_finite.h": (lambda v: tangential_projection_finite(GrassShape(1, 4), v), 0),
    "osculating_projection_finite.trials": (
        lambda v: osculating_projection_finite(GrassShape(1, 4), [((0, 1), 1)], trials=v),
        0,
    ),
    "osculating_projection_finite.order": (
        lambda v: osculating_projection_finite(GrassShape(2, 7), [((0, 1, 2), v)]),
        -1,
    ),
    "osculating_projection_finite.rnc_center": (
        lambda v: osculating_projection_finite(RationalNormalCurve(3), [(v, 1)]),
        2,
    ),
}


# a center must be exactly 0 or n, which no range check expresses
NOT_A_RANGE = {"osculating_projection_finite.rnc_center"}
RANGE_MESSAGE = r" must be (at least -?\d+|in \[-?\d+, -?\d+\]), got -?\d+$"


@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_bools_and_non_integers(name):
    # a bool is an int to isinstance, and int() truncates 1.5 and parses "2"
    call, out_of_range = INTEGER_ARGUMENTS[name]
    call(3)
    for bad in (True, False, 1.5, 0.0, "2"):
        with pytest.raises(TypeError):
            call(bad)
    if out_of_range is not None:
        with pytest.raises(ValueError, match=None if name in NOT_A_RANGE else RANGE_MESSAGE):
            call(out_of_range)


def test_bound_consistency_with_oracle():
    # at h equal to the certified bound the oracle must agree, shape by shape
    table = {
        (2, 5): 2, (2, 6): 2, (2, 7): 3, (3, 7): 2, (2, 8): 3, (3, 8): 3,
        (2, 9): 4, (4, 9): 3, (3, 9): 3, (4, 10): 3, (2, 10): 4, (3, 10): 3,
        (2, 11): 5, (2, 12): 5, (2, 13): 5, (2, 14): 6,
    }
    for (r, n), max_h in sorted(table.items()):
        assert grass_bound(r, n).max_h == max_h
        shape = GrassShape(r, n)
        assert shape.num_coords <= 462
        cert = secant_dimension(shape, max_h, trials=1)
        assert cert.verdict == CERTIFIED, (r, n, max_h)


# ---------------------------------------------------------------------------
# tangential projections

TANGENTIAL_CASES = [
    (RationalNormalCurve(4), 1, GENERICALLY_FINITE),
    (RationalNormalCurve(5), 1, GENERICALLY_FINITE),
    (RationalNormalCurve(6), 1, GENERICALLY_FINITE),
    (RationalNormalCurve(6), 2, GENERICALLY_FINITE),
    (GrassShape(2, 6), 1, GENERICALLY_FINITE),
    (SegreVeroneseShape((1, 1, 1), (1, 1, 1)), 1, GENERICALLY_FINITE),
    (SegreVeroneseShape((2,), (2,)), 1, FIBER_EVIDENCE),
    (SegreVeroneseShape((3,), (2,)), 1, FIBER_EVIDENCE),
    (SegreVeroneseShape((4,), (2,)), 1, FIBER_EVIDENCE),
    (SegreVeroneseShape((4,), (2,)), 2, FIBER_EVIDENCE),
    (GrassShape(1, 4), 1, HYPOTHESIS_VIOLATED),
    (GrassShape(1, 5), 1, HYPOTHESIS_VIOLATED),
    (SegreVeroneseShape((3,), (2,)), 2, HYPOTHESIS_VIOLATED),
]


@pytest.mark.parametrize("shape,h,status", TANGENTIAL_CASES)
def test_tangential_projection_statuses(shape, h, status):
    report = tangential_projection_finite(shape, h)
    assert report.status == status
    assert report.kind == "tangential"


def test_tangential_finiteness_matches_secant_increment():
    # projection away from h tangent spaces is generically finite exactly
    # when the (h+1)-secant variety jumps by a full dim X + 1
    for shape, h in [
        (RationalNormalCurve(6), 1),
        (RationalNormalCurve(6), 2),
        (GrassShape(2, 6), 1),
        (SegreVeroneseShape((2,), (2,)), 1),
    ]:
        report = tangential_projection_finite(shape, h)
        assert report.status in (GENERICALLY_FINITE, FIBER_EVIDENCE)
        low = secant_dimension(shape, h).computed_dim
        high = secant_dimension(shape, h + 1).computed_dim
        finite = high - low == shape.dim + 1
        assert (report.status == GENERICALLY_FINITE) == finite


# ---------------------------------------------------------------------------
# osculating projections

OSCULATING_CASES = [
    (GrassShape(2, 5), [((0, 1, 2), 1)], GENERICALLY_FINITE, 10),
    (GrassShape(2, 5), [((0, 1, 2), 2)], CONSTANT_MAP, 1),
    (GrassShape(1, 4), [((0, 1), 1)], FIBER_EVIDENCE, 3),
    (GrassShape(2, 6), [((0, 1, 2), 2)], FIBER_EVIDENCE, 4),
    (GrassShape(2, 6), [((0, 1, 2), 1)], GENERICALLY_FINITE, 22),
    (GrassShape(2, 7), [((0, 1, 2), 1), ((3, 4, 5), 1)], GENERICALLY_FINITE, 24),
    (SegreVeroneseShape((1, 1), (2, 2)), [(0, 2)], GENERICALLY_FINITE, 3),
]


@pytest.mark.parametrize("shape,centers,status,survivors", OSCULATING_CASES)
def test_osculating_projection_cases(shape, centers, status, survivors):
    report = osculating_projection_finite(shape, centers)
    assert report.status == status
    assert report.survivors == survivors


def test_osculating_projection_rnc_sweep():
    for n in range(3, 9):
        for a in range(0, n - 1):
            b = n - 2 - a
            report = osculating_projection_finite(
                RationalNormalCurve(n), [(0, a), (n, b)]
            )
            assert report.status == CONSTANT_MAP
        for a in range(0, n - 2):
            b = n - 3 - a
            report = osculating_projection_finite(
                RationalNormalCurve(n), [(0, a), (n, b)]
            )
            assert report.status == GENERICALLY_FINITE


@pytest.mark.parametrize("n", range(3, 11))
def test_rational_normal_curve_answers_as_sv_1_n(n):
    # RNC(n) is SV(1;n) under its own label, with the centers 0 and n named
    # by coordinate index: n is the diagonal point 1, the coordinate x1^n
    rnc, sv = RationalNormalCurve(n), SegreVeroneseShape((1,), (n,))

    def same(rnc_report, sv_report):
        assert rnc_report.shape == f"RNC({n})" and sv_report.shape == f"SV(1;{n})"
        assert dict(asdict(rnc_report), shape=None) == dict(asdict(sv_report), shape=None)

    for h in range(1, n + 1):
        same(secant_dimension(rnc, h), secant_dimension(sv, h))
    for h in (1, 2):
        same(tangential_projection_finite(rnc, h), tangential_projection_finite(sv, h))
    for a in range(n):
        for b in range(n):
            same(
                osculating_projection_finite(rnc, [(0, a), (n, b)]),
                osculating_projection_finite(sv, [(0, a), (1, b)]),
            )


def test_osculating_projection_center_validation():
    shape = GrassShape(2, 7)
    with pytest.raises(ValueError):
        osculating_projection_finite(shape, [((0, 1, 2), 1), ((2, 3, 4), 1)])
    with pytest.raises(ValueError):
        osculating_projection_finite(shape, [])
    with pytest.raises(ValueError):
        osculating_projection_finite(shape, [((0, 1, 2), -1)])
    sv = SegreVeroneseShape((1, 2), (2, 1))
    with pytest.raises(ValueError):
        osculating_projection_finite(sv, [(2, 1)])
    with pytest.raises(ValueError):
        osculating_projection_finite(sv, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        osculating_projection_finite(RationalNormalCurve(5), [(2, 1)])
    # a nested center with an empty part has no diagonal value
    with pytest.raises(ValueError, match="diagonal"):
        osculating_projection_finite(SegreVeroneseShape((1,), (2,)), [(((),), 1)])
    # diagonal centers with a missing factor part or a part of the wrong length
    for shape, center in (
        (SegreVeroneseShape((1, 1), (1, 1)), ((0,),)),
        (SegreVeroneseShape((1, 1), (1, 1)), ((0, 0, 0, 0, 0), (0,))),
        (SegreVeroneseShape((1,), (2,)), ((0,),)),
    ):
        with pytest.raises(ValueError):
            osculating_projection_finite(shape, [(center, 1)])


def test_osculating_projection_takes_segre_veronese_centers_as_index_tuples():
    shape = SegreVeroneseShape((2,), (3,))
    by_value = osculating_projection_finite(shape, [(0, 1)])
    assert osculating_projection_finite(shape, [(((0, 0, 0),), 1)]) == by_value
    with pytest.raises(ValueError, match="diagonal"):
        osculating_projection_finite(shape, [(((0, 0, 1),), 1)])


def test_osculating_projection_rejects_boolean_orders():
    # a bool is an int to isinstance, but not an order
    for shape, center in ((GrassShape(2, 7), (0, 1, 2)), (RationalNormalCurve(5), 0)):
        for flag in (True, False):
            with pytest.raises(TypeError):
                osculating_projection_finite(shape, [(center, flag)])


def test_osculating_projection_survivor_count_is_ball_complement():
    shape = GrassShape(2, 6)
    report = osculating_projection_finite(shape, [((0, 1, 2), 1)])
    from grassdef import ball

    expected = shape.num_coords - len(ball(shape, (0, 1, 2), 1))
    assert report.survivors == expected


# ---------------------------------------------------------------------------
# limit hyperplanes


def test_limit_hyperplane_worked_values():
    assert limit_hyperplane_coeffs(3, 3, 0, 0, 1).coeffs == (3, -2, 1, 0)
    assert limit_hyperplane_coeffs(5, 5, 0, 2, 1).coeffs == (10, -4, 1, 0, 0, 0)
    section = limit_hyperplane_coeffs(4, 1, 0, 0, 1)
    assert section.trivial
    assert section.coeffs == (1, 0)


def test_limit_hyperplane_validation():
    with pytest.raises(ValueError):
        limit_hyperplane_coeffs(2, 1, 0, 0, 1)
    with pytest.raises(ValueError):
        limit_hyperplane_coeffs(4, 5, 0, 0, 1)
    with pytest.raises(ValueError):
        limit_hyperplane_coeffs(4, 2, -1, 0, 1)


@given(st.integers(0, 2**32))
@settings(max_examples=100)
def test_limit_hyperplane_exactness(seed):
    rng = random.Random(seed)
    k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
    D = rng.randint(k1 + k2 + 2, k1 + k2 + 8)
    s = rng.randint(0, D)
    sbar = rng.randint(0, 4)
    section = limit_hyperplane_coeffs(D, s, sbar, k1, k2)
    coeffs = section.coeffs
    assert len(coeffs) == s + 1
    assert coeffs[0] > 0
    if s < D - k2:
        assert section.trivial
        assert coeffs == (1,) + (0,) * s
        return
    assert gcd(*coeffs) == 1
    q = s - D + k2 + 1
    for j in range(D - k2, s + 1):
        residual = sum(
            Fraction(coeffs[t]) * comb(sbar + j, j - t)
            for t in range(min(j, q) + 1)
        )
        assert residual == 0


@pytest.mark.parametrize(
    "args, entries",
    [
        # the s + 1 coefficients of the trivial section (1, 0, ..., 0)
        ((20000000, 19999999, 0, 0, 0), 20000000),
        # q = s - D + k2 + 1 = 99998: s + 1 coefficients and a q x (q + 1)
        # collision system of about 10^10 entries
        ((100000, 99999, 100000, 0, 99998), 100000 + 99998 * 99999),
    ],
)
def test_limit_hyperplane_cap_refuses_before_building(args, entries, monkeypatch):
    # the closed form starts from comb(s, q)
    monkeypatch.setattr("grassdef.bounds.comb", _refuse_enumeration)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        limit_hyperplane_coeffs(*args)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (
        f"the limit hyperplane at s = {args[1]} needs about {entries} entries, above the cap of 16000000"
    )


def test_refusal_lines_write_huge_integers_as_powers_of_ten():
    # s and the count past the 4300 digits str() converts
    with pytest.raises(CapExceeded) as exc:
        limit_hyperplane_coeffs(10**5000, 10**5000, 0, 0, 0)
    assert str(exc.value) == (
        "the limit hyperplane at s = 10^5000 needs about 10^5000 entries, above the cap of 16000000"
    )
    # a label is written even where the cap passes: h points of G(1,4) fill
    # its 10 coordinates from h = 2 on
    assert secant_dimension(GrassShape(1, 4), 10**5000, trials=1).computed_dim == 9
    # every 64-bit value is written in full
    assert [_int_text(n) for n in (2**64 - 1, 10**20 - 1, 10**20)] == [str(2**64 - 1), "9" * 20, "10^20"]


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: secant_dimension(GrassShape(1, 10**5000), 2),
            "the Terracini matrix of G(1,10^5000) at 2 point(s) needs about 10^15000 entries",
        ),
        (
            lambda: tangential_projection_finite(GrassShape(1, 10**5000), 2),
            "the Terracini matrix of G(1,10^5000) at 3 point(s) needs about 10^15000 entries",
        ),
        (
            lambda: osculating_projection_finite(GrassShape(1, 10**5000), [((0, 1), 1)]),
            "the Terracini matrix of G(1,10^5000) at 1 point(s) needs about 10^15000 entries",
        ),
        (
            lambda: build_parametrization(GrassShape(1, 10**5000)),
            "the parametrization of G(1,10^5000) needs about 10^10000 entries",
        ),
        (
            lambda: secant_dimension(SegreVeroneseShape((10**5000,), (2,)), 2),
            "the Terracini matrix of SV(10^5000;2) at 2 point(s) needs about 10^15000 entries",
        ),
    ],
    ids=["secant-grass", "tangproj", "oscproj", "parametrization", "secant-sv"],
)
def test_refusal_labels_write_huge_shape_parameters_as_powers_of_ten(call, message):
    # str() of a shape parameter past 4300 digits raises ValueError, so the
    # cap's label writes it with _int_text
    with pytest.raises(CapExceeded) as exc:
        call()
    assert str(exc.value) == f"{message}, above the cap of 16000000"
    # the label of a report, which is printed, keeps every digit
    assert GrassShape(1, 10**25).label == f"G(1,{10**25})"
    assert SegreVeroneseShape((10**25,), (2,)).label == f"SV({10**25};2)"


def test_limit_hyperplane_cap_counts_coefficients_and_system(monkeypatch):
    # with a cap of 100 entries: 100 coefficients pass and 101 do not; at
    # D = 12 and k2 = 10, s = 9 gives 10 coefficients and a q = 8 system of
    # 72 entries, s = 10 gives 11 and 90
    monkeypatch.setattr("grassdef.indices._MAX_ENTRIES", 100)
    assert limit_hyperplane_coeffs(100, 99, 0, 0, 0).coeffs == (1,) + (0,) * 99
    assert not limit_hyperplane_coeffs(12, 9, 0, 0, 10).trivial
    for args in ((101, 100, 0, 0, 0), (12, 10, 0, 0, 10)):
        with pytest.raises(CapExceeded):
            limit_hyperplane_coeffs(*args)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [True, 1.0, "3"])
def test_limit_hyperplane_refuses_non_integers(position, bad):
    args = [5, 5, 0, 2, 1]
    args[position] = bad
    with pytest.raises(TypeError):
        limit_hyperplane_coeffs(*args)
