"""Intersection theory and classification of blow-ups at general points:
numerical pairings, Fano tables against computed cone pairings, spherical
and Mori dream space status, effective cones and Mori chambers."""

import itertools
import time
from math import isqrt

import pytest

from grassdef import (
    FANO,
    KNOWN_MDS,
    MDS_UNKNOWN,
    NEITHER,
    WEAK_FANO_ONLY,
    Ambient,
    CapExceeded,
    CurveClass,
    DivisorClass,
    anticanonical,
    classify_fano,
    curve_e,
    curve_h,
    curve_l,
    divisor_E,
    divisor_H,
    effective_cone,
    intersect,
    mds_status,
    mori_chambers_g1n1,
    mori_cone_generators,
    spherical_status,
    top_self_intersection,
)
from grassdef.birational import ConeData, _torus_cone
from grassdef.indices import GrassShape
from grassdef.oracle import _survivor_columns


def test_ambient_constructors_and_invariants():
    g14 = Ambient.grassmannian(1, 4)
    assert (g14.dim, g14.degree, g14.index, g14.codim) == (6, 5, 5, 3)
    assert g14.label == "G(1,4)"
    assert Ambient.grassmannian(2, 4) == Ambient.grassmannian(1, 4)
    q3 = Ambient.quadric(3)
    assert (q3.dim, q3.degree, q3.index, q3.codim) == (3, 2, 3, 1)
    p3 = Ambient.projective(3)
    assert (p3.dim, p3.degree, p3.index, p3.codim) == (3, 1, 4, 0)


def test_ambient_validation():
    with pytest.raises(ValueError):
        Ambient.grassmannian(0, 4)
    with pytest.raises(ValueError):
        Ambient.grassmannian(2, 3)
    with pytest.raises(ValueError):
        Ambient.quadric(1)
    with pytest.raises(ValueError):
        Ambient.projective(1)
    with pytest.raises(ValueError):
        Ambient("fano", 3)
    # built directly, an ambient is checked as the classmethods check it, so
    # these reach the CLI as a refusal (exit 2), not as an internal error
    with pytest.raises(ValueError):
        classify_fano(Ambient("projective", -5), 1)
    with pytest.raises(ValueError):
        Ambient("quadric", 1)
    with pytest.raises(TypeError):
        Ambient("projective", True)
    with pytest.raises(ValueError):
        Ambient("projective", 3, 1)
    # a dual Grassmannian is normalized as GrassShape normalizes it
    g = Ambient("grassmannian", 7, 5)
    assert (g.r, g.n, g.label) == (1, 7, "G(1,7)")
    assert g == Ambient.grassmannian(5, 7)
    with pytest.raises(ValueError, match="use Ambient.projective"):
        Ambient("grassmannian", 4, 3)


def test_divisor_and_curve_names():
    assert divisor_H(2).name == "H"
    assert divisor_E(0, 2).name == "E1"
    assert DivisorClass(1, (2, 2)).name == "H-2E1-2E2"
    assert DivisorClass(0, ()).name == "0"
    assert DivisorClass(3, (-1,)).name == "3H+E1"
    assert curve_h(1).name == "h"
    assert curve_e(0, 1).name == "e1"
    assert curve_l(0, 1).name == "h-e1"
    assert CurveClass(2, (1, 1, 1)).name == "2h-e1-e2-e3"


def test_intersection_pairing():
    D = DivisorClass(2, (1, 3))
    C = CurveClass(1, (1, -1))
    assert intersect(D, C) == 2 - 1 + 3
    with pytest.raises(ValueError):
        intersect(DivisorClass(1, (1,)), CurveClass(1, (1, 1)))


def test_anticanonical_pairings_grassmannian():
    # -K . l = r^2 + r + 2 - nr and -K . e = dim - 1
    for r in range(1, 4):
        for n in range(2 * r + 1, 9):
            amb = Ambient.grassmannian(r, n)
            ak = anticanonical(amb, 1)
            assert intersect(ak, curve_l(0, 1)) == r * r + r + 2 - n * r
            assert intersect(ak, curve_e(0, 1)) == amb.dim - 1
            assert intersect(ak, curve_h(1)) == n + 1


def test_anticanonical_pairings_quadric_conics():
    for n in range(3, 9):
        amb = Ambient.quadric(n)
        ak = anticanonical(amb, 3)
        conic = CurveClass(2, (1, 1, 1))
        assert intersect(ak, conic) == 3 - n


def test_top_self_intersection_values():
    g14 = Ambient.grassmannian(1, 4)
    for k in range(7):
        assert top_self_intersection(g14, anticanonical(g14, k)) == 5**6 * (5 - k)
    q3 = Ambient.quadric(3)
    for k in range(9):
        assert top_self_intersection(q3, anticanonical(q3, k)) == 54 - 8 * k


def test_mori_cone_generator_ranges():
    g14 = Ambient.grassmannian(1, 4)
    assert [c.name for c in mori_cone_generators(g14, 0).generators] == ["h"]
    cone = mori_cone_generators(g14, 4)
    assert cone.status == "proven"
    assert len(cone.generators) == 8
    assert mori_cone_generators(g14, 5).status == "unknown"
    g13 = Ambient.grassmannian(1, 3)
    assert mori_cone_generators(g13, 2).status == "proven"
    assert mori_cone_generators(g13, 3).status == "unknown"

    q3 = Ambient.quadric(3)
    assert len(mori_cone_generators(q3, 6).generators) == 6 + 6 + 20
    assert mori_cone_generators(q3, 6).status == "proven"
    assert mori_cone_generators(q3, 7).status == "unknown"
    q4 = Ambient.quadric(4)
    assert mori_cone_generators(q4, 7).status == "proven"
    assert mori_cone_generators(q4, 8).status == "unknown"
    assert mori_cone_generators(Ambient.quadric(2), 1).status == "unknown"

    p3 = Ambient.projective(3)
    assert [c.name for c in mori_cone_generators(p3, 1).generators] == ["e1", "h-e1"]
    assert mori_cone_generators(p3, 6).status == "proven"
    assert mori_cone_generators(p3, 7).status == "unknown"


def test_mori_cone_generators_in_their_order():
    q3 = [c.name for c in mori_cone_generators(Ambient.quadric(3), 4).generators]
    assert q3 == [
        "e1", "e2", "e3", "e4", "h-e1", "h-e2", "h-e3", "h-e4",
        "2h-e1-e2-e3", "2h-e1-e2-e4", "2h-e1-e3-e4", "2h-e2-e3-e4",
    ]
    p3 = [c.name for c in mori_cone_generators(Ambient.projective(3), 3).generators]
    assert p3 == ["e1", "e2", "e3", "h-e1-e2", "h-e1-e3", "h-e2-e3"]


def test_large_blow_ups_are_refused_before_they_are_built():
    # in range, but C(500, 2) + 500 classes of length 500 exceed the cap
    with pytest.raises(CapExceeded, match=r"the Mori cone of P300 at k = 500 \(125250 curve classes\)"):
        mori_cone_generators(Ambient.projective(300), 500)
    with pytest.raises(CapExceeded, match="the anticanonical class of P3 at k = 16000001"):
        anticanonical(Ambient.projective(3), 16_000_001)
    # (k + 1) deg m^dim bounds D^dim: 2 * 1371^1370 has 4299 digits, so the
    # product is computed; 2 * 1400^1399 has 4402, so it is refused unbuilt
    p1370 = Ambient.projective(1370)
    assert len(str(top_self_intersection(p1370, anticanonical(p1370, 1)))) == 4298
    p1399 = Ambient.projective(1399)
    with pytest.raises(CapExceeded, match=r"D\^1399 on P1399 at k = 1 has about 4402 digits"):
        top_self_intersection(p1399, anticanonical(p1399, 1))



def test_ambient_labels_of_refusals_write_huge_parameters_as_powers_of_ten():
    # str() of an n past 4300 digits raises ValueError, so the labels write
    # it with _int_text; the anticanonical class itself is two entries long
    huge = 10**5000
    assert anticanonical(Ambient.projective(huge), 2) == DivisorClass(huge + 1, (huge - 1,) * 2)
    # D^dim then overflows a float, the refusal the CLI exits 3 on; at n =
    # 10^25 it is a digit count
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        classify_fano(Ambient.projective(huge), 2)
    for ambient, name in ((Ambient.projective(10**25), "P"), (Ambient.quadric(10**25), "Q")):
        with pytest.raises(CapExceeded, match=rf"D\^10\^25 on {name}10\^25 at k = 2 has about"):
            classify_fano(ambient, 2)
    # the label of a report, which is printed, keeps every digit
    assert Ambient.projective(10**25).label == f"P{10**25}"
    assert Ambient.quadric(10**25).label == f"Q{10**25}"


FANO_VERDICTS = [
    (Ambient.grassmannian(1, 3), 2, FANO),
    (Ambient.grassmannian(1, 3), 3, NEITHER),
    (Ambient.grassmannian(1, 4), 3, WEAK_FANO_ONLY),
    (Ambient.grassmannian(1, 4), 4, WEAK_FANO_ONLY),
    (Ambient.grassmannian(1, 4), 5, NEITHER),
    (Ambient.grassmannian(2, 5), 1, NEITHER),
    (Ambient.quadric(3), 2, FANO),
    (Ambient.quadric(3), 6, WEAK_FANO_ONLY),
    (Ambient.quadric(3), 7, NEITHER),
    (Ambient.quadric(4), 3, NEITHER),
    (Ambient.quadric(2), 7, FANO),
    (Ambient.quadric(2), 8, NEITHER),
    (Ambient.projective(2), 8, FANO),
    (Ambient.projective(3), 7, WEAK_FANO_ONLY),
    (Ambient.projective(3), 8, NEITHER),
    (Ambient.projective(4), 2, NEITHER),
]


@pytest.mark.parametrize("ambient,k,verdict", FANO_VERDICTS)
def test_fano_verdicts(ambient, k, verdict):
    report = classify_fano(ambient, k)
    assert report.verdict == verdict
    if report.source == "computed+table":
        assert report.min_pairing is not None


def test_classify_fano_sources():
    assert classify_fano(Ambient.grassmannian(1, 4), 4).source == "computed+table"
    assert classify_fano(Ambient.grassmannian(1, 4), 5).source == "table"
    assert classify_fano(Ambient.quadric(2), 3).source == "table"


def test_classify_fano_sweep_is_consistent():
    # classify_fano raises on any computed-vs-table disagreement, so the
    # sweep itself is the check
    ambients = (
        [Ambient.grassmannian(r, n) for r in (1, 2, 3) for n in range(2 * r + 1, 10)]
        + [Ambient.quadric(n) for n in range(2, 9)]
        + [Ambient.projective(n) for n in range(2, 9)]
    )
    for ambient in ambients:
        for k in range(10):
            report = classify_fano(ambient, k)
            assert report.verdict in (FANO, WEAK_FANO_ONLY, NEITHER)
            if k == 0:
                assert report.verdict == FANO


def test_top_anticanonical_power_is_linear_in_k():
    for ambient in (
        Ambient.grassmannian(2, 5),
        Ambient.grassmannian(1, 6),
        Ambient.quadric(4),
        Ambient.projective(4),
    ):
        tops = [top_self_intersection(ambient, anticanonical(ambient, k)) for k in range(7)]
        steps = {tops[k] - tops[k + 1] for k in range(6)}
        assert len(steps) == 1
        assert steps.pop() == (ambient.dim - 1) ** ambient.dim


SPHERICAL_F_VALUES = {
    (1, 4): 0, (1, 5): 0, (2, 8): -1, (2, 9): 0,
    (2, 10): 2, (2, 11): 5, (3, 12): -2,
}


def test_spherical_f_values():
    for (r, n), f in SPHERICAL_F_VALUES.items():
        assert spherical_status(r, n, 2).f_value == f


def test_spherical_rules():
    assert spherical_status(1, 4, 1).rule == "one-point"
    assert spherical_status(2, 5, 2).rule == "two-point"
    assert spherical_status(1, 9, 2).rule == "two-point"
    assert spherical_status(1, 5, 3).rule == "three-point-lines"
    assert spherical_status(0, 4, 5).rule == "toric"
    assert spherical_status(0, 4, 6).rule == "beyond-toric-range"
    report = spherical_status(2, 8, 2)
    assert report.rule == "dimension-gap"
    assert "2r+2 < n < 4r+1" in report.evidence
    report = spherical_status(2, 9, 2)
    assert report.rule == "orbit-codimension"
    assert "1" in report.evidence
    assert spherical_status(1, 4, 3).rule == "too-many-points"


def test_spherical_refuses_a_count_too_long_to_print(monkeypatch):
    # f(0, n) = (n - 2)(n - 1)/2; the first n whose count reaches 10^4300
    # (4301 digits) is refused, and an n some 10^-5 below it prints 4300 digits
    first = isqrt(2 * 10**4300)
    while (first - 2) * (first - 1) // 2 < 10**4300:
        first += 1
    below = first - first // 10**5
    assert len(str(spherical_status(0, below, 1).f_value)) == 4300
    # float log10 rounds these 4300-digit counts to 4300.0; the held integer
    # decides them exactly
    for d in range(-3, 3):
        assert len(str(spherical_status(0, isqrt(2 * 10**4300) + d, 1).f_value)) == 4300
    with pytest.raises(CapExceeded, match=r"the count f\(r, n\) = .* has about 4301 digits"):
        spherical_status(0, first, 1)
    monkeypatch.setattr("sys.get_int_max_str_digits", lambda: 0)  # no limit
    assert spherical_status(0, first, 1).f_value >= 10**4300


def test_spherical_table():
    for r in range(0, 5):
        for n in range(max(2, 2 * r + 1), 13):
            for k in range(1, 5):
                expected = (
                    (r == 0 and k <= n + 1)
                    or (r >= 1 and k == 1)
                    or (r >= 1 and k == 2 and (r == 1 or n == 2 * r + 1 or n == 2 * r + 2))
                    or (k == 3 and (r, n) == (1, 5))
                )
                assert spherical_status(r, n, k).spherical == expected, (r, n, k)


def test_spherical_validation():
    assert spherical_status(2, 4, 1) == spherical_status(1, 4, 1)
    with pytest.raises(ValueError):
        spherical_status(1, 4, 0)
    with pytest.raises(ValueError):
        spherical_status(4, 4, 1)


EFFECTIVE_CONES = [
    (1, 4, 1, ["E1", "H-2E1"]),
    (2, 5, 2, ["E1", "E2", "H-3E1", "H-3E2"]),
    (2, 6, 2, ["E1", "E2", "H-3E1-E2", "H-E1-3E2"]),
    (1, 7, 2, ["E1", "E2", "H-2E1-2E2"]),
    (1, 5, 2, ["E1", "E2", "H-2E1-2E2"]),
    (1, 5, 3, ["E1", "E2", "E3", "H-2E1-2E2", "H-2E1-2E3", "H-2E2-2E3"]),
]


@pytest.mark.parametrize("r,n,k,names", EFFECTIVE_CONES)
def test_effective_cone_catalog(r, n, k, names):
    cone = effective_cone(r, n, k)
    assert cone.status == "proven"
    assert [d.name for d in cone.generators] == names


def test_effective_cone_unknown_cases():
    assert effective_cone(2, 7, 2).status == "unknown"
    assert effective_cone(1, 4, 3).status == "unknown"
    # decided before anything of length k is built
    start = time.perf_counter()
    assert effective_cone(1, 5, 10**8).status == "unknown"
    assert time.perf_counter() - start < 0.1


def _catalog(r, n, k):
    """The hand catalog effective_cone answered from before its generators
    came from _torus_cone, kept as the reference those must reproduce."""
    if k == 1:
        return ConeData((divisor_E(0, 1), DivisorClass(1, (r + 1,))), "proven", "one-point-effective-cone")
    if k == 2 and n == 2 * r + 1:
        return ConeData(
            (divisor_E(0, 2), divisor_E(1, 2), DivisorClass(1, (r + 1, 0)), DivisorClass(1, (0, r + 1))),
            "proven",
            "two-point-effective-cone-minimal-n",
        )
    if k == 2 and n == 2 * r + 2:
        return ConeData(
            (divisor_E(0, 2), divisor_E(1, 2), DivisorClass(1, (r + 1, 1)), DivisorClass(1, (1, r + 1))),
            "proven",
            "two-point-effective-cone-near-minimal-n",
        )
    if k == 2 and r == 1:
        return ConeData(
            (divisor_E(0, 2), divisor_E(1, 2), DivisorClass(1, (2, 2))),
            "proven",
            "two-point-effective-cone-lines",
        )
    if k == 3 and (r, n) == (1, 5):
        return ConeData(
            (
                divisor_E(0, 3),
                divisor_E(1, 3),
                divisor_E(2, 3),
                DivisorClass(1, (2, 2, 0)),
                DivisorClass(1, (2, 0, 2)),
                DivisorClass(1, (0, 2, 2)),
            ),
            "proven",
            "three-point-effective-cone-g15",
        )
    return ConeData((), "unknown", "none")


def test_effective_cone_reproduces_the_catalog():
    cases = [(r, n, k) for r in range(1, 8) for n in range(2 * r + 1, 4 * r + 12) for k in range(1, 5)]
    answers = [effective_cone(r, n, k) for r, n, k in cases]
    assert answers == [_catalog(r, n, k) for r, n, k in cases]
    assert sum(cone.status == "proven" for cone in answers) == 159


def _blocks(r, k):
    return [tuple(range(i * (r + 1), (i + 1) * (r + 1))) for i in range(k)]


def _degree_one_slice(cone, k):
    """The inequalities c . m >= b that cut out the m with H - sum m_i E_i in
    the cone, k E_i then classes H - sum b_i E_i: Fourier-Motzkin
    elimination of the weights lambda from m <= sum_j lambda_j b^j,
    lambda >= 0, sum_j lambda_j = 1 (the E_i absorb any slack)."""
    assert cone[:k] == tuple(divisor_E(i, k) for i in range(k))
    tops = [D.b for D in cone[k:]]
    assert tops and all(D.a == 1 for D in cone[k:])
    g = len(tops)
    rows = {((0,) * k + tuple(int(j == t) for j in range(g)), 0) for t in range(g)}
    rows |= {((0,) * k + (1,) * g, 1), ((0,) * k + (-1,) * g, -1)}
    rows |= {(tuple(-int(j == i) for j in range(k)) + tuple(b[i] for b in tops), 0) for i in range(k)}
    for _ in range(g):
        keep = {(c[:-1], b) for c, b in rows if c[-1] == 0}
        ups = [row for row in rows if row[0][-1] > 0]
        downs = [row for row in rows if row[0][-1] < 0]
        for (cu, bu), (cd, bd) in itertools.product(ups, downs):
            p, q = -cd[-1], cu[-1]
            keep.add((tuple(p * x + q * y for x, y in zip(cu[:-1], cd[:-1])), p * bu + q * bd))
        rows = keep
    return rows


def _in_slice(rows, m):
    return all(sum(c * x for c, x in zip(coeffs, m)) >= b for coeffs, b in rows)


# every shape with 0 <= r <= 3, 2r + 1 <= n <= 3r + 7, k <= 4 and
# k(r + 1) <= n + 1
TORUS_SHAPES = [
    (r, n, k)
    for r in range(4)
    for n in range(2 * r + 1, 3 * r + 8)
    for k in range(1, 5)
    if k * (r + 1) <= n + 1
]


def test_torus_cone_is_the_cone_of_the_pluecker_weights():
    # the E_i and the H - v(J).E, v_i(J) = |J - I_i| the order of p_J at the
    # i-th block, span the cone: each generator of the formula is some v(J),
    # and every v(J) lies in the formula's cone
    assert len(TORUS_SHAPES) == 106
    for r, n, k in TORUS_SHAPES:
        cone = _torus_cone(r, n, k)
        blocks = [set(I) for I in _blocks(r, k)]
        weights = {
            tuple(len(set(J) - I) for I in blocks)
            for J in itertools.combinations(range(n + 1), r + 1)
        }
        rows = _degree_one_slice(cone, k)
        assert {D.b for D in cone[k:]} <= weights, (r, n, k)
        assert all(_in_slice(rows, v) for v in weights), (r, n, k)


def test_torus_cone_in_degree_one_matches_the_osculating_survivors():
    # H - sum m_i E_i lies in the cone exactly when some Pluecker coordinate
    # survives the projection from the order m_i - 1 osculating spaces at
    # the blocks, that is when H - sum m_i E_i is effective
    cases = 0
    for r, n, k in TORUS_SHAPES:
        if r == 0:
            continue
        shape = GrassShape(r, n)
        rows = _degree_one_slice(_torus_cone(r, n, k), k)
        for m in itertools.product(range(r + 3), repeat=k):
            centers = [(I, mi - 1) for I, mi in zip(_blocks(r, k), m) if mi]
            assert _in_slice(rows, m) == bool(_survivor_columns(shape, centers)), (r, n, m)
            cases += 1
    assert cases == 8771


def test_torus_cone_refuses_shapes_outside_its_range():
    for r, n, k in ((1, 5, 4), (2, 7, 3), (0, 3, 5), (1, 4, 0)):
        with pytest.raises(ValueError):
            _torus_cone(r, n, k)
    # r = 0: the toric cone of P^n blown up at k <= n + 1 points
    assert [D.name for D in _torus_cone(0, 2, 3)] == ["E1", "E2", "E3", "H-E1-E2", "H-E1-E3", "H-E2-E3"]
    assert [D.name for D in _torus_cone(0, 3, 3)] == ["E1", "E2", "E3", "H-E1-E2-E3"]


def test_effective_cone_orthogonality_one_point():
    # the one point effective cone generators pair to zero against the
    # movable cone walls h and (r+1) h - e
    for r in range(1, 4):
        for n in range(2 * r + 1, 9):
            E, reducible = effective_cone(r, n, 1).generators
            h = curve_h(1)
            moved = CurveClass(r + 1, (1,))
            assert intersect(E, h) == 0
            assert intersect(E, moved) == 1
            assert intersect(reducible, h) == 1
            assert intersect(reducible, moved) == 0


def test_mori_chambers_layout():
    for n in (4, 5, 6, 7):
        dec = mori_chambers_g1n1(n)
        assert [w.name for w in dec.walls] == ["E1", "H", "H-E1", "H-2E1"]
        assert [c.model for c in dec.chambers] == [
            f"G(1,{n})",
            f"G(1,{n})_1",
            f"G(1,{n})_1+",
        ]
        assert [d.name for d in dec.nef] == ["H", "H-E1"]
        assert [d.name for d in dec.movable] == ["H", "H-2E1"]
        assert [d.name for d in dec.effective] == ["E1", "H-2E1"]
        assert dec.fano_flip_model == (n >= 5)
        assert dec.flip_anticanonical == DivisorClass(n + 1, (2 * n - 3,))
        assert dec.fibration_target == f"G(1,{n - 2})"


def test_mori_chambers_tile_the_effective_cone():
    for n in range(3, 8):
        dec = mori_chambers_g1n1(n)
        for left, right in zip(dec.chambers, dec.chambers[1:]):
            assert left.rays[1] == right.rays[0]
        assert dec.chambers[0].rays[0] == dec.effective[0]
        assert dec.chambers[-1].rays[1] == dec.effective[1]


def test_mori_chambers_n3_is_degenerate():
    dec = mori_chambers_g1n1(3)
    assert dec.movable == dec.nef
    assert dec.flip_anticanonical is None
    assert dec.fibration_target is None
    assert not dec.fano_flip_model
    assert dec.chambers[-1].model == "P4"
    with pytest.raises(ValueError):
        mori_chambers_g1n1(2)


MDS_CASES = [
    (1, 4, 0, KNOWN_MDS, "spherical"),
    (1, 4, 1, KNOWN_MDS, "spherical"),
    (1, 4, 2, KNOWN_MDS, "spherical"),
    (1, 4, 3, KNOWN_MDS, "weakFano"),
    (1, 4, 4, KNOWN_MDS, "weakFano"),
    (1, 4, 5, MDS_UNKNOWN, None),
    (1, 5, 3, KNOWN_MDS, "spherical"),
    (1, 5, 4, MDS_UNKNOWN, None),
    (2, 5, 2, KNOWN_MDS, "spherical"),
    (2, 9, 2, MDS_UNKNOWN, None),
    (0, 3, 7, KNOWN_MDS, "rank2-catalog"),
    (0, 3, 8, MDS_UNKNOWN, None),
    (0, 2, 8, KNOWN_MDS, "rank2-catalog"),
    (0, 4, 8, KNOWN_MDS, "rank2-catalog"),
    (0, 5, 8, KNOWN_MDS, "rank2-catalog"),
    (0, 5, 9, MDS_UNKNOWN, None),
    (0, 3, 4, KNOWN_MDS, "spherical"),
]


@pytest.mark.parametrize("r,n,k,verdict,reason", MDS_CASES)
def test_mds_status_cases(r, n, k, verdict, reason):
    report = mds_status(r, n, k)
    assert report.verdict == verdict
    assert report.reason == reason
    if verdict == KNOWN_MDS:
        assert report.summary == f"KnownMDS({reason})"
    else:
        assert report.summary == "Unknown"


def test_mds_g14_large_k_note():
    report = mds_status(1, 4, 5)
    assert "4 or 5" in report.note


def test_mds_projective_beyond_catalog_note():
    report = mds_status(0, 3, 8)
    assert "excludes" in report.note


def test_mds_one_point_conjectural_cone():
    report = mds_status(2, 5, 1)
    cone = report.conjectural
    assert cone is not None
    assert cone.status == "conjectural"
    assert [d.name for d in cone.generators] == ["H", "H-2E1"]
    lines = mds_status(1, 4, 1).conjectural
    assert lines.status == "proven"
    assert [d.name for d in lines.generators] == ["H", "H-2E1"]
    assert mds_status(1, 4, 2).conjectural is None
