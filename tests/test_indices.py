"""Coordinate combinatorics: index enumeration, distances, balls,
coordinate blocks and delta sets, checked against hand computed values on
G(2,5)."""

import itertools
from collections import Counter
from math import comb

import pytest
from hypothesis import given, strategies as st

from grassdef import (
    GrassShape,
    RationalNormalCurve,
    SegreVeroneseShape,
    ball,
    delta_set,
    distance,
    enumerate_indices,
    grass_distance,
    sv_distance,
)
from grassdef.indices import (
    _check_grass_index,
    _check_sv_index,
    _distance_table,
    coordinate_blocks,
    coordinate_packing,
)
from strategies import grass_shapes, shape_with_index, shape_with_index_pair, sv_shapes


def counter_sv_distance(I, J) -> int:
    """Reference multiset distance: per factor, d_j minus the size of the
    Counter intersection of the two parts."""
    return sum(len(a) - sum((Counter(a) & Counter(b)).values()) for a, b in zip(I, J))


# long Veronese parts (the osculating workload's P^1 and P^2 shapes) and a
# mixed Segre-Veronese shape
LONG_SV_SHAPES = [
    SegreVeroneseShape((1,), (60,)),
    SegreVeroneseShape((2,), (22,)),
    SegreVeroneseShape((1,), (299,)),
    SegreVeroneseShape((1, 2, 4), (7, 3, 5)),
]


@st.composite
def sv_raw_index_pairs(draw):
    """Two SV indices whose parts are drawn as unsorted lists of values."""
    shape = draw(st.one_of(st.sampled_from(LONG_SV_SHAPES), sv_shapes()))

    def raw_index():
        return tuple(
            tuple(draw(st.lists(st.integers(0, nj), min_size=dj, max_size=dj)))
            for nj, dj in zip(shape.n, shape.d)
        )

    return raw_index(), raw_index()


def test_grass_shape_normalization():
    assert GrassShape(4, 7) == GrassShape(2, 7)
    assert GrassShape(4, 7).label == "G(2,7)"
    assert GrassShape(2, 7).dim == 15
    assert GrassShape(4, 7).dim == 15


def test_grass_shape_validation():
    with pytest.raises(ValueError):
        GrassShape(3, 3)
    with pytest.raises(ValueError):
        GrassShape(-1, 4)
    with pytest.raises(TypeError):
        GrassShape(1.0, 4)


def test_sv_shape_factor_sorting():
    assert SegreVeroneseShape((3, 1), (3, 2)) == SegreVeroneseShape((1, 3), (2, 3))
    shape = SegreVeroneseShape((2, 1, 2), (1, 1, 2))
    assert shape.n == (1, 2, 2)
    assert shape.d == (1, 1, 2)
    assert shape.label == "SV(1,2,2;1,1,2)"


def test_sv_shape_validation():
    with pytest.raises(ValueError):
        SegreVeroneseShape((), ())
    with pytest.raises(ValueError):
        SegreVeroneseShape((1, 2), (1,))
    with pytest.raises(ValueError):
        SegreVeroneseShape((0,), (2,))
    with pytest.raises(ValueError):
        SegreVeroneseShape((1,), (0,))


def test_enumeration_counts():
    assert len(enumerate_indices(GrassShape(1, 3))) == 6
    assert len(enumerate_indices(GrassShape(2, 5))) == 20
    shape = SegreVeroneseShape((1, 3), (2, 3))
    assert shape.num_coords == 60
    assert len(enumerate_indices(shape)) == 60
    assert shape.ambient_dim == 59


def test_enumeration_is_sorted_and_valid():
    shape = GrassShape(2, 6)
    indices = enumerate_indices(shape)
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)
    assert all(len(I) == 3 and len(set(I)) == 3 for I in indices)


def test_grass_distance_worked_values():
    I1, I2, I3 = (0, 1, 2), (0, 1, 3), (0, 4, 5)
    assert grass_distance(I1, I1) == 0
    assert grass_distance(I1, I2) == 1
    assert grass_distance(I1, I3) == 2
    assert grass_distance(I2, I3) == 2


def test_sv_distance_worked_values():
    assert sv_distance(((0, 0), (0, 1, 2)), ((0, 0), (1, 2, 3))) == 1
    assert sv_distance(((1, 1), (0, 0, 1)), ((0, 0), (2, 3, 3))) == 5
    assert sv_distance(((0, 1), (1, 1, 1)), ((1, 1), (0, 0, 1))) == 3


@given(shape_with_index_pair(grass_shapes(max_r=2, max_n=6)))
def test_distance_is_a_metric_grass(data):
    shape, I, J = data
    assert distance(shape, I, J) == distance(shape, J, I)
    assert (distance(shape, I, J) == 0) == (I == J)
    for K in enumerate_indices(shape):
        assert distance(shape, I, J) <= distance(shape, I, K) + distance(shape, K, J)


@given(shape_with_index_pair(sv_shapes(max_factors=2, max_n=2, max_d=2)))
def test_distance_is_a_metric_sv(data):
    shape, I, J = data
    assert distance(shape, I, J) == distance(shape, J, I)
    assert (distance(shape, I, J) == 0) == (I == J)
    for K in enumerate_indices(shape):
        assert distance(shape, I, J) <= distance(shape, I, K) + distance(shape, K, J)


def test_grass_diameter_is_r_plus_one():
    for r in (1, 2):
        for n in range(2 * r + 1, 7):
            shape = GrassShape(r, n)
            indices = enumerate_indices(shape)
            diameter = max(
                distance(shape, I, J) for I in indices for J in indices
            )
            assert diameter == r + 1
            I = tuple(range(r + 1))
            assert sorted(ball(shape, I, r + 1)) == indices


@given(sv_shapes(max_factors=2, max_n=2, max_d=2))
def test_sv_diameter_is_total_degree(shape):
    indices = enumerate_indices(shape)
    diameter = max(distance(shape, I, J) for I in indices for J in indices)
    assert diameter == shape.d_total


def test_ball_increments_count_mixed_minors():
    # around any index, exactly C(r+1, s) C(n-r, s) indices sit at distance s
    for r, n in ((1, 3), (2, 5), (2, 6), (3, 7)):
        shape = GrassShape(r, n)
        I = tuple(range(r + 1))
        sizes = [len(ball(shape, I, s)) for s in range(r + 2)]
        for s in range(1, r + 2):
            assert sizes[s] - sizes[s - 1] == comb(r + 1, s) * comb(n - r, s)


def test_ball_makes_no_distance_calls(monkeypatch):
    def refuse(*args):
        raise AssertionError("ball must not evaluate a distance per index")

    for name in ("distance", "sv_distance", "grass_distance"):
        monkeypatch.setattr(f"grassdef.indices.{name}", refuse)
    shape = SegreVeroneseShape((1,), (299,))
    for s in range(shape.d_total + 1):
        assert len(ball(shape, ((0,) * 299,), s)) == s + 1
    # the counts of test_ball_increments_count_mixed_minors
    for r, n in ((1, 3), (2, 5), (2, 6), (3, 7)):
        shape = GrassShape(r, n)
        for s in range(r + 2):
            size = sum(comb(r + 1, t) * comb(n - r, t) for t in range(s + 1))
            assert len(ball(shape, tuple(range(r + 1)), s)) == size


def test_ball_checks_a_center_once_and_refuses_invalid_ones_every_time(monkeypatch):
    calls = []

    def spy(check):
        return lambda shape, I: calls.append(I) or check(shape, I)

    monkeypatch.setattr("grassdef.indices._check_sv_index", spy(_check_sv_index))
    monkeypatch.setattr("grassdef.indices._check_grass_index", spy(_check_grass_index))
    _distance_table.cache_clear()
    shape = SegreVeroneseShape((1,), (299,))
    center = ((0,) * 299,)
    for s in range(shape.d_total + 1):
        assert len(ball(shape, center, s)) == s + 1
    assert ball(shape, [[0] * 299], 1) == ball(shape, center, 1)
    assert len(calls) == 1
    # entries equal to valid ones but of another type are checked every time
    for bad in (False, 0.0):
        for _ in range(2):
            with pytest.raises(TypeError, match="expected integer index entries"):
                ball(shape, ((bad,) + (0,) * 298,), 1)
    for _ in range(2):
        with pytest.raises(ValueError, match="must be weakly increasing"):
            ball(shape, ((1,) + (0,) * 298,), 1)
    grass = GrassShape(2, 5)
    ball(grass, (0, 1, 2), 1)
    for _ in range(2):
        with pytest.raises(TypeError, match="expected integer index entries"):
            ball(grass, (0, 1, 2.0), 1)
        with pytest.raises(ValueError, match="must be strictly increasing"):
            ball(grass, (0, 2, 1), 1)
    assert len(calls) == 12


def sublevel_balls(shape, I, top: int) -> list[list]:
    """The balls of radius 0..top around I, by the distance."""
    distances = [distance(shape, I, J) for J in enumerate_indices(shape)]
    return [[J for J, d in zip(enumerate_indices(shape), distances) if d <= s] for s in range(top + 1)]


def test_ball_returns_a_fresh_list():
    for shape, I in ((GrassShape(2, 6), (0, 1, 2)), (SegreVeroneseShape((1, 2), (2, 1)), ((0, 1), (2,)))):
        first = ball(shape, I, 1)
        expected = list(first)
        first.append("junk")
        first[0] = None
        assert ball(shape, I, 1) == expected
        first.clear()
        assert ball(shape, I, 1) == expected


def test_ball_tables_are_bounded_and_answers_survive_eviction():
    maxsize = _distance_table.cache_info().maxsize
    assert maxsize is not None
    shape = GrassShape(2, 6)
    centers = enumerate_indices(shape)[: maxsize + 3]
    expected = {I: sublevel_balls(shape, I, 3) for I in centers}
    _distance_table.cache_clear()
    for _ in range(2):
        for I in centers:
            assert [ball(shape, I, s) for s in range(4)] == expected[I]
        info = _distance_table.cache_info()
        assert info.currsize == maxsize
    # the second round found none of its centers: each was evicted first
    assert info.misses == 2 * len(centers)
    sv = SegreVeroneseShape((1, 1), (2, 1))
    for I in enumerate_indices(sv):
        assert [ball(sv, I, s) for s in range(4)] == sublevel_balls(sv, I, 3)


def test_rational_normal_curve_balls_equal_sv_1_n_balls():
    for n in (1, 2, 5, 12):
        curve, sv = RationalNormalCurve(n), SegreVeroneseShape((1,), (n,))
        for I in (((0,) * n,), ((1,) * n,), ((0,) + (1,) * (n - 1),)):
            expected = sublevel_balls(sv, I, n + 1)
            assert [ball(curve, I, s) for s in range(n + 2)] == expected
            assert [ball(sv, I, s) for s in range(n + 2)] == expected


@pytest.mark.parametrize(
    "s,error",
    [(1.5, TypeError), (1.0, TypeError), (True, TypeError), (False, TypeError),
     ("1", TypeError), (None, TypeError), (-1, ValueError)],
)
def test_ball_rejects_a_radius_that_is_not_a_nonnegative_integer(s, error):
    for shape, I in ((GrassShape(2, 5), (0, 1, 2)), (SegreVeroneseShape((1,), (3,)), ((0, 0, 0),))):
        with pytest.raises(error):
            ball(shape, I, s)


@given(shape_with_index(grass_shapes(max_r=2, max_n=6)), st.integers(0, 3))
def test_ball_is_distance_sublevel_set(data, s):
    shape, I = data
    expected = [J for J in enumerate_indices(shape) if distance(shape, I, J) <= s]
    assert ball(shape, I, s) == expected


@given(shape_with_index(sv_shapes(max_factors=3, max_n=2, max_d=3)))
def test_sv_ball_is_distance_sublevel_set(data):
    shape, I = data
    indices = enumerate_indices(shape)
    distances = [distance(shape, I, J) for J in indices]
    for s in range(shape.d_total + 1):
        expected = [J for J, dist in zip(indices, distances) if dist <= s]
        assert ball(shape, I, s) == expected


@given(sv_raw_index_pairs())
def test_sv_distance_matches_counter_reference(pair):
    I, J = pair
    # unsorted parts first, then the same parts sorted
    assert sv_distance(I, J) == counter_sv_distance(I, J)
    I, J = (tuple(tuple(sorted(part)) for part in K) for K in (I, J))
    assert sv_distance(I, J) == counter_sv_distance(I, J)


DELTA_WORKED = [
    ((0, 1, 2), 1, [(0, 1, 5), (0, 2, 4), (1, 2, 3)]),
    ((0, 1, 2), 2, [(0, 4, 5), (1, 3, 5), (2, 3, 4)]),
    ((0, 1, 2), 3, [(3, 4, 5)]),
    ((0, 1, 2), -1, []),
    ((0, 1, 3), 1, [(0, 3, 4)]),
    ((0, 1, 3), 2, []),
    ((0, 1, 3), -2, []),
    ((0, 4, 5), 1, [(3, 4, 5)]),
    ((0, 4, 5), 2, []),
    ((0, 4, 5), -1, [(0, 1, 5), (0, 2, 4)]),
    ((0, 4, 5), -2, [(0, 1, 2)]),
]


@pytest.mark.parametrize("I,l,expected", DELTA_WORKED)
def test_delta_sets_worked_example(I, l, expected):
    shape = GrassShape(2, 5)
    assert delta_set(shape, I, l) == expected


def test_delta_set_zero_is_identity():
    shape = GrassShape(2, 5)
    for I in enumerate_indices(shape):
        assert delta_set(shape, I, 0) == [I]


def test_delta_set_rejects_index_for_unnormalized_parameters():
    # G(2,4) normalizes to G(1,4), so a three element index is stale
    with pytest.raises(ValueError):
        delta_set(GrassShape(2, 4), (0, 1, 2), 1)


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, -1.0, "1", None])
def test_delta_set_refuses_a_step_that_is_not_an_integer(bad):
    # True would act as l = 1 and 0.0 as l = 0
    with pytest.raises(TypeError):
        delta_set(GrassShape(2, 5), (0, 1, 2), bad)


@given(shape_with_index(grass_shapes(max_r=3, max_n=8)), st.integers(-4, 4))
def test_delta_set_members_satisfy_distance_laws(data, l):
    shape, I = data
    I1 = tuple(range(shape.r + 1))
    out = delta_set(shape, I, l)
    assert out == sorted(set(out))
    for J in out:
        assert distance(shape, I, J) == abs(l)
        assert distance(shape, J, I1) == distance(shape, I, I1) + l


@pytest.mark.parametrize(
    "shape,k,expected",
    [
        (GrassShape(2, 8), 5, [(0, 1, 2), (3, 4, 5), (6, 7, 8)]),
        (GrassShape(1, 5), 2, [(0, 1), (2, 3)]),
        (GrassShape(2, 14), 6, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14)]),
        (GrassShape(3, 9), 5, [(0, 1, 2, 3), (4, 5, 6, 7)]),
        (SegreVeroneseShape((3, 2), (2, 1)), 9, [((0,), (0, 0)), ((1,), (1, 1)), ((2,), (2, 2))]),
        (SegreVeroneseShape((1,), (5,)), 3, [((0,) * 5,), ((1,) * 5,)]),
        (SegreVeroneseShape((4,), (2,)), 0, []),
    ],
)
def test_coordinate_blocks_worked_values(shape, k, expected):
    assert coordinate_blocks(shape, k) == expected


@given(st.one_of(grass_shapes(max_r=3, max_n=15), sv_shapes(max_n=4)), st.integers(0, 8))
def test_coordinate_blocks_are_disjoint_and_as_many_as_fit(shape, k):
    blocks = coordinate_blocks(shape, k)
    assert len(blocks) <= k
    # distance validates both indices; two indices share no entry in any
    # part exactly when their distance is the index length (d_total on SV)
    diameter = shape.r + 1 if isinstance(shape, GrassShape) else shape.d_total
    for (i, a), (j, b) in itertools.product(enumerate(blocks), repeat=2):
        assert distance(shape, a, b) == (0 if i == j else diameter)
    if isinstance(shape, GrassShape):
        # alpha = floor((n+1)/(r+1)): the blocks fill at most n+1 entries, one more would not fit
        assert len(blocks) * (shape.r + 1) <= shape.n + 1
        assert len(blocks) == k or (len(blocks) + 1) * (shape.r + 1) > shape.n + 1
    else:
        # alpha = min n_j + 1: one diagonal value per entry of the smallest factor
        assert len(blocks) <= min(shape.n) + 1
        assert len(blocks) == k or len(blocks) == min(shape.n) + 1


def coordinate_points_by_word(shape) -> list:
    """The coordinate points of the shape in increasing order of their words:
    on G(r, n) every index, read as the binary number with bit n - i set for
    each entry i; on a Segre-Veronese variety the pure indices, each part
    constant, in lexicographic order of their values."""
    if isinstance(shape, GrassShape):
        return sorted(enumerate_indices(shape), key=lambda I: sum(1 << (shape.n - i) for i in I))
    return [I for I in enumerate_indices(shape) if all(len(set(part)) == 1 for part in I)]


ALL = 10**6  # more centers than any shape here has


@given(st.one_of(grass_shapes(max_r=4, max_n=10), sv_shapes(max_n=3)), st.integers(0, 12))
def test_coordinate_packing_is_the_greedy_code_of_distance_3(shape, k):
    packing = coordinate_packing(shape, ALL)
    # deterministic, and the k-packing is the k-prefix of the whole one
    assert coordinate_packing(shape, k) == packing[:k] == coordinate_packing(shape, k)
    # the radius 1 balls around the centers are disjoint
    for a, b in itertools.combinations(packing, 2):
        assert distance(shape, a, b) >= 3
    # each center is the first point, in word order, at distance at least 3
    # from the centers before it, and once no point is, the walk has ended
    points = coordinate_points_by_word(shape)
    for i in range(len(packing) + 1):
        far = [J for J in points if all(distance(shape, I, J) >= 3 for I in packing[:i])]
        assert far[:1] == packing[i : i + 1]


@given(grass_shapes(max_r=2, max_n=14), st.integers(1, 8))
def test_coordinate_packing_of_lines_and_planes(shape, k):
    # any two lines of G(1, n) share an entry or lie at distance 2, so one
    # center; planes of G(2, n) must be disjoint, so alpha of them
    alpha = len(coordinate_blocks(shape, ALL))
    expected = 1 if shape.r == 1 else min(k, alpha)
    assert len(coordinate_packing(shape, k)) == expected


@pytest.mark.parametrize(
    "shape, size",
    [
        (GrassShape(3, 7), 2),
        (GrassShape(3, 8), 3),
        (GrassShape(3, 9), 5),
        (GrassShape(3, 10), 5),
        (GrassShape(4, 9), 6),
        (GrassShape(4, 11), 11),
        (GrassShape(5, 13), 26),
        (GrassShape(2, 14), 5),
        (SegreVeroneseShape((1,), (60,)), 2),
        (SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 3),
        (SegreVeroneseShape((1, 1), (2, 2)), 2),
        (SegreVeroneseShape((3,), (4,)), 4),
        # (P^1)^7: the lexicographic code of length 7 and distance 3 is the
        # Hamming code, whose 16 balls cover all 128 pure points
        (SegreVeroneseShape((1,) * 7, (1,) * 7), 16),
    ],
    ids=lambda v: getattr(v, "label", v),
)
def test_coordinate_packing_sizes(shape, size):
    assert len(coordinate_packing(shape, ALL)) == size


@pytest.mark.parametrize(
    "shape",
    [
        *(GrassShape(r, n) for r, n in ((1, 5), (2, 8), (3, 8), (3, 9), (3, 11), (4, 9), (4, 11), (5, 13))),
        SegreVeroneseShape((3,), (4,)),
        SegreVeroneseShape((1, 1), (2, 2)),
        SegreVeroneseShape((2, 2, 2), (1, 1, 1)),
        SegreVeroneseShape((1,) * 7, (1,) * 7),
    ],
    ids=lambda shape: shape.label,
)
def test_coordinate_packing_stops_at_k_centers_with_the_same_prefix(shape):
    packings = [coordinate_packing(shape, K) for K in range(13)]
    for K, packing in enumerate(packings):
        assert len(packing) == min(K, len(packings[-1]))
        assert all(packings[k] == packing[:k] for k in range(K + 1))


def test_coordinate_packing_worked_values():
    assert coordinate_packing(GrassShape(3, 9), 9) == [
        (6, 7, 8, 9),
        (3, 4, 5, 9),
        (1, 2, 5, 8),
        (0, 2, 4, 7),
        (0, 1, 3, 6),
    ]
    assert coordinate_packing(SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 5) == [
        ((0,), (0,), (0,)),
        ((1,), (1,), (1,)),
        ((2,), (2,), (2,)),
    ]
    assert coordinate_packing(SegreVeroneseShape((1, 1), (2, 2)), 0) == []


def test_coordinate_packing_refuses_a_negative_or_non_integer_count_and_unknown_shapes():
    with pytest.raises(ValueError):
        coordinate_packing(GrassShape(3, 9), -1)
    with pytest.raises(TypeError):
        coordinate_packing(GrassShape(3, 9), True)
    with pytest.raises(TypeError):
        coordinate_packing((3, 9), 2)


def test_coordinate_blocks_refuse_a_negative_or_non_integer_count():
    with pytest.raises(ValueError):
        coordinate_blocks(GrassShape(1, 5), -1)
    with pytest.raises(TypeError):
        coordinate_blocks(GrassShape(1, 5), True)


@pytest.mark.parametrize(
    "I,J",
    [
        (((0, 0),), ((0,),)),  # parts of different lengths
        (((0,), (1,)), ((0,),)),  # different factor counts
        (((0, 1), (2,)), ((0, 1), (2, 2))),
    ],
)
def test_sv_distance_rejects_indices_of_different_shapes(I, J):
    for a, b in ((I, J), (J, I)):
        with pytest.raises(ValueError):
            sv_distance(a, b)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", None])
def test_segre_veronese_indices_refuse_non_integer_entries(bad):
    # the order and range checks alone pass a half-integer entry, whose
    # radius-0 ball would miss its own center
    shape = SegreVeroneseShape((2,), (2,))
    with pytest.raises(TypeError):
        distance(shape, ((bad, 1),), ((0, 1),))
    with pytest.raises(TypeError):
        distance(shape, ((0, 1),), ((0, bad),))
    with pytest.raises(TypeError):
        ball(shape, ((bad, 1),), 0)


@pytest.mark.parametrize("I,J", [((0, 1), (0, 1, 2)), ((), (0,)), ((3,), (1, 2))])
def test_grass_distance_rejects_indices_of_different_lengths(I, J):
    for a, b in ((I, J), (J, I)):
        with pytest.raises(ValueError):
            grass_distance(a, b)


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", None])
def test_shapes_and_grassmannian_indices_refuse_non_integers(bad):
    with pytest.raises(TypeError):
        GrassShape(bad, 3)
    with pytest.raises(TypeError):
        GrassShape(1, bad)
    with pytest.raises(TypeError):
        SegreVeroneseShape((bad,), (2,))
    with pytest.raises(TypeError):
        SegreVeroneseShape((1, 2), (2, bad))
    with pytest.raises(TypeError):
        distance(GrassShape(1, 3), (0, bad), (0, 2))
