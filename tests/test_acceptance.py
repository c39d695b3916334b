"""Release gate for the package.

One test per frozen contract.  Every test prints a single PASS/FAIL line
before its final assert, so the captured output doubles as a checklist;
grouped contracts print a table of sub-results first and assert at the
end, keeping every sub-case visible even when the group fails.
"""

import random
import time
from fractions import Fraction
from math import comb, gcd

from hypothesis import settings

from grassdef import (
    CERTIFIED,
    CONSTANT_MAP,
    DEFAULT_PRIME,
    DEFECT_EVIDENCE,
    FANO,
    GENERICALLY_FINITE,
    NEITHER,
    WEAK_FANO_ONLY,
    Ambient,
    GrassShape,
    Partition,
    PrimeField,
    RationalNormalCurve,
    SegreVeroneseShape,
    anticanonical,
    aop_bound,
    ball,
    build_parametrization,
    classify_fano,
    distance,
    enumerate_indices,
    grass_bound,
    grass_degree,
    h_m,
    limit_hyperplane_coeffs,
    mori_chambers_g1n1,
    mori_cone_generators,
    multiplicity,
    osculating_dim_grass,
    osculating_dim_sv,
    osculating_projection_finite,
    osculating_rank_sweep,
    rank,
    secant_dimension,
    singular_locus,
    spherical_status,
    top_self_intersection,
)

FIELD = PrimeField(DEFAULT_PRIME)


def _verdict_line(name: str, ok: bool) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _grass_coord_point(shape):
    P = build_parametrization(shape)
    pt = [0] * P.domain_dim
    for row, col in enumerate(range(shape.r + 1)):
        pt[row * (shape.n + 1) + col] = 1
    return tuple(pt)


def _sv_coord_point(shape):
    pt = []
    for nj in shape.n:
        unit = [0] * (nj + 1)
        unit[0] = 1
        pt.extend(unit)
    return tuple(pt)


def test_hm_closed_form_small_values():
    closed_forms = {
        1: lambda m: 1,
        3: lambda m: m,
        5: lambda m: m + 1,
        7: lambda m: m * m,
        9: lambda m: m * m + 1,
        22: lambda m: m**3 + m + 1,
    }
    ok = all(
        h_m(m, k) == form(m)
        for m in (2, 3, 4, 5)
        for k, form in closed_forms.items()
    )
    assert _verdict_line("h_m closed forms at small arguments", ok)


def test_grass_bound_smallest_table_rows():
    polynomial_rows = {
        4: lambda a: a * a + 1,
        6: lambda a: a * a + a + 1,
        8: lambda a: a**3 + 1,
    }
    frozen = {4: 37, 6: 73, 8: 1001}
    ok = True
    for r, form in polynomial_rows.items():
        n = r * r + 3 * r + 1
        while (n + 1) % (r + 1):
            n += 1
        alpha = (n + 1) // (r + 1)
        value = grass_bound(r, n).max_h
        ok = ok and value == form(alpha) == frozen[r]
    assert _verdict_line("Grassmannian bound table rows", ok)


def test_grass_bound_dominates_linear_projection_bound():
    ties = set()
    for r in range(4, 9):
        for n in range(2 * r + 1, 61):
            if grass_bound(r, n).max_h <= aop_bound(r, n).max_h:
                ties.add((r, n))
    ok = ties == {(4, 10), (5, 11)}
    ok = ok and all(
        grass_bound(r, n).max_h == aop_bound(r, n).max_h for r, n in ties
    )
    assert _verdict_line("grass bound dominates the aop bound", ok)


def test_certified_nondefective_small_cases():
    assert DEFAULT_PRIME.bit_length() == 62
    # G(1,5) h=2 is classically defective; test_defect_evidence_reported_cases
    # asserts it
    cases = [(GrassShape(1, 4), 1), (GrassShape(1, 4), 2), (GrassShape(1, 5), 1)]
    cases.extend((GrassShape(2, 6), h) for h in range(1, grass_bound(2, 6).max_h + 1))
    cases.append((SegreVeroneseShape((1, 1), (2, 2)), 2))
    ok = True
    for shape, h in cases:
        start = time.perf_counter()
        cert = secant_dimension(shape, h, trials=3, prime=DEFAULT_PRIME)
        elapsed = time.perf_counter() - start
        sub = cert.verdict == CERTIFIED and len(cert.trials) <= 3 and elapsed < 5.0
        ok = ok and sub
        print(
            f"  {shape.label:>12} h={h}  computed={cert.computed_dim:>3}"
            f" expected={cert.expected_dim:>3} defect={cert.defect}"
            f"  {cert.verdict:<22} {elapsed * 1000:7.1f} ms  {'ok' if sub else 'MISMATCH'}"
        )
    assert _verdict_line("certified non-defective small cases", ok)


def test_defect_evidence_reported_cases():
    # G(r,n) is r-planes in P^n.  The defective Grassmannians are the
    # classical list (Baur-Draisma-de Graaf 2007); the same triples with n
    # one larger reach the expected dimension and are certified.
    cases = [
        (GrassShape(2, 6), 3, DEFECT_EVIDENCE),
        (GrassShape(3, 7), 3, DEFECT_EVIDENCE),
        (GrassShape(3, 7), 4, DEFECT_EVIDENCE),
        (GrassShape(2, 8), 4, DEFECT_EVIDENCE),
        (GrassShape(2, 7), 3, CERTIFIED),
        (GrassShape(3, 8), 3, CERTIFIED),
        (GrassShape(3, 8), 4, CERTIFIED),
        (GrassShape(2, 9), 4, CERTIFIED),
        (SegreVeroneseShape((1, 1), (2, 2)), 3, DEFECT_EVIDENCE),
        (SegreVeroneseShape((1, 1, 1), (1, 1, 2)), 3, DEFECT_EVIDENCE),
        (SegreVeroneseShape((1, 1, 1, 1), (1, 1, 1, 1)), 3, DEFECT_EVIDENCE),
        (SegreVeroneseShape((2, 2, 2), (1, 1, 1)), 4, DEFECT_EVIDENCE),
    ]
    ok = True
    for shape, h, verdict in cases:
        start = time.perf_counter()
        certs = [
            secant_dimension(shape, h, trials=1, prime=DEFAULT_PRIME, seed=seed)
            for seed in (1729, 1730, 1731)
        ]
        elapsed = time.perf_counter() - start
        computed = [c.computed_dim for c in certs]
        stable = len(set(computed)) == 1
        defective = verdict == DEFECT_EVIDENCE
        agree = all(c.verdict == verdict and (c.defect >= 1) == defective for c in certs)
        sub = stable and agree
        if shape.label == "G(2,8)":
            sub = sub and elapsed < 120.0
        ok = ok and sub
        print(
            f"  {shape.label:>18} h={h}  computed={computed}"
            f" expected={certs[0].expected_dim:>3} defect={certs[0].defect}"
            f"  {certs[0].verdict:<22} {elapsed * 1000:7.1f} ms  {'ok' if sub else 'MISMATCH'}"
        )
    # second secants of lines in P^5: three trials at the default seed
    start = time.perf_counter()
    cert = secant_dimension(GrassShape(1, 5), 2, trials=3, prime=DEFAULT_PRIME)
    elapsed = time.perf_counter() - start
    sub = cert.verdict == DEFECT_EVIDENCE and cert.defect == 1 and len(cert.trials) <= 3
    sub = sub and elapsed < 5.0
    ok = ok and sub
    print(
        f"  {cert.shape:>18} h=2  computed={cert.computed_dim}"
        f" expected={cert.expected_dim:>3} defect={cert.defect}"
        f"  {cert.verdict:<22} {elapsed * 1000:7.1f} ms  {'ok' if sub else 'MISMATCH'}"
    )
    assert _verdict_line("defect evidence on the reported cases", ok)


def test_veronese_surface_second_secant():
    cert = secant_dimension(SegreVeroneseShape((2,), (2,)), 2)
    ok = cert.computed_dim == 4 and cert.defect == 1
    assert _verdict_line("second secant of the quadratic Veronese surface", ok)


def _sv_test_family():
    """Every shape from a small parameter box, topped up with the
    single-factor boundary cases at the 300-coordinate cap."""
    shapes = set()
    for n in (1, 2, 3):
        for d in range(1, 7):
            shapes.add(SegreVeroneseShape((n,), (d,)))
    for n, d in ((1, 10), (1, 60), (1, 299), (2, 22), (2, 5), (3, 9)):
        shapes.add(SegreVeroneseShape((n,), (d,)))
    for n1 in (1, 2, 3):
        for n2 in range(n1, 4):
            for d1 in (1, 2, 3):
                for d2 in (1, 2, 3):
                    shapes.add(SegreVeroneseShape((n1, n2), (d1, d2)))
    for ns in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)):
        for ds in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)):
            shapes.add(SegreVeroneseShape(ns, ds))
    for ds in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2)):
        shapes.add(SegreVeroneseShape((1, 1, 1, 1), ds))
    return sorted(
        (s for s in shapes if s.num_coords <= 300),
        key=lambda s: (s.num_coords, s.label),
    )


def test_osculating_formula_matches_jet_rank():
    ok = True
    for r in (1, 2, 3):
        for n in range(2 * r + 1, 9):
            shape = GrassShape(r, n)
            index = tuple(range(r + 1))
            ranks = osculating_rank_sweep(
                build_parametrization(shape), _grass_coord_point(shape), r + 1, FIELD
            )
            for s in range(r + 2):
                formula = osculating_dim_grass(r, n, s)
                counted = len(ball(shape, index, s)) - 1
                ok = ok and ranks[s] - 1 == formula == counted
    for shape in _sv_test_family():
        diagonal = tuple((0,) * d for d in shape.d)
        ranks = osculating_rank_sweep(
            build_parametrization(shape), _sv_coord_point(shape), shape.d_total, FIELD
        )
        for s in range(shape.d_total + 1):
            formula = osculating_dim_sv(shape, s)
            counted = len(ball(shape, diagonal, s)) - 1
            ok = ok and ranks[s] - 1 == formula == counted
    assert _verdict_line("osculating formula matches jet rank", ok)


def test_osculating_projection_finiteness():
    ok = True
    for r, n in ((1, 4), (2, 5), (2, 6)):
        shape = GrassShape(r, n)
        center = tuple(range(r + 1))
        for s in range(r):
            report = osculating_projection_finite(shape, [(center, s)])
            ok = ok and report.status == GENERICALLY_FINITE
        report = osculating_projection_finite(shape, [(center, r)])
        ok = ok and report.status != GENERICALLY_FINITE
    for n in range(3, 9):
        curve = RationalNormalCurve(n)
        for a in range(n):
            for b in range(n - a):
                status = osculating_projection_finite(curve, [(0, a), (n, b)]).status
                ok = ok and (status == GENERICALLY_FINITE) == (a + b <= n - 3)
                if a + b == n - 2:
                    ok = ok and status == CONSTANT_MAP
    assert _verdict_line("osculating projection finiteness", ok)


def test_limit_hyperplane_solutions():
    ok = limit_hyperplane_coeffs(3, 3, 0, 0, 1).coeffs == (3, -2, 1, 0)
    ok = ok and limit_hyperplane_coeffs(5, 5, 0, 2, 1).coeffs == (10, -4, 1, 0, 0, 0)
    rng = random.Random(20260816)
    for _ in range(200):
        k1, k2 = rng.randint(0, 3), rng.randint(0, 3)
        D = rng.randint(k1 + k2 + 2, k1 + k2 + 8)
        s = rng.randint(0, D)
        sbar = rng.randint(0, 4)
        section = limit_hyperplane_coeffs(D, s, sbar, k1, k2)
        coeffs = section.coeffs
        ok = ok and len(coeffs) == s + 1 and coeffs[0] > 0
        if s < D - k2:
            ok = ok and section.trivial and coeffs == (1,) + (0,) * s
            continue
        ok = ok and gcd(*coeffs) == 1
        q = s - D + k2 + 1
        for j in range(D - k2, s + 1):
            residual = sum(
                Fraction(coeffs[t]) * comb(sbar + j, j - t)
                for t in range(min(j, q) + 1)
            )
            ok = ok and residual == 0
    assert _verdict_line("limit hyperplane solutions are exact", ok)


def _count_standard_tableaux(parts):
    total = sum(parts)

    def grow(state):
        if sum(state) == total:
            return 1
        out = 0
        for i, filled in enumerate(state):
            if filled < parts[i] and (i == 0 or state[i - 1] > filled):
                out += grow(state[:i] + (filled + 1,) + state[i + 1 :])
        return out

    return grow((0,) * len(parts))


def test_schubert_worked_values():
    lam = Partition(4, 9, (2, 2, 2, 1, 0))
    ok = multiplicity(lam, Partition(4, 9, (3, 3, 3, 3, 2))) == 14
    sing = [c.parts for c in singular_locus(lam)]
    ok = ok and sing == [(3, 3, 3, 3, 0), (2, 2, 2, 2, 2)]
    for n in range(5, 10):
        hyper = Partition(2, n, (1, 0, 0))
        values = [
            multiplicity(hyper, Partition(2, n, tuple([n - 2 - i] * (3 - i) + [0] * i)))
            for i in range(3)
        ]
        ok = ok and values == [3, 2, 1]
    ok = ok and grass_degree(1, 4) == 5
    ok = ok and grass_degree(2, 5) == 42 == _count_standard_tableaux((3, 3, 3))
    assert _verdict_line("Schubert worked values", ok)


def test_fano_tables_and_top_intersections():
    ambients = (
        [Ambient.grassmannian(r, n) for r in (1, 2, 3) for n in range(2 * r + 1, 9)]
        + [Ambient.quadric(n) for n in range(2, 9)]
        + [Ambient.projective(n) for n in range(2, 9)]
    )
    ok = True
    for ambient in ambients:
        for k in range(10):
            report = classify_fano(ambient, k)
            ok = ok and report.verdict in (FANO, WEAK_FANO_ONLY, NEITHER)
            if k == 0:
                ok = ok and report.verdict == FANO
            if mori_cone_generators(ambient, k).status == "proven":
                ok = ok and report.source == "computed+table"
    g14 = Ambient.grassmannian(1, 4)
    q3 = Ambient.quadric(3)
    for k in range(10):
        # both top powers are linear in k, so ten sample points pin them down
        ok = ok and top_self_intersection(g14, anticanonical(g14, k)) == 5**6 * (5 - k)
        ok = ok and top_self_intersection(q3, anticanonical(q3, k)) == 54 - 8 * k
    assert _verdict_line("Fano tables and top self-intersections", ok)


def test_spherical_table():
    ok = True
    for r in range(0, 5):
        for n in range(max(2, 2 * r + 1), 13):
            for k in range(1, 5):
                expected = (
                    (r == 0 and k <= n + 1)
                    or (r >= 1 and k == 1)
                    or (r >= 1 and k == 2 and (r == 1 or n in (2 * r + 1, 2 * r + 2)))
                    or (k == 3 and (r, n) == (1, 5))
                )
                ok = ok and spherical_status(r, n, k).spherical == expected
    for n in (7, 8):
        report = spherical_status(2, n, 2)
        ok = ok and report.rule == "dimension-gap" and "2r+2 < n < 4r+1" in report.evidence
    f_values = {(1, 4): 0, (1, 5): 0, (2, 8): -1, (2, 9): 0, (2, 10): 2, (2, 11): 5, (3, 12): -2}
    for (r, n), f in f_values.items():
        ok = ok and spherical_status(r, n, 2).f_value == f
    assert _verdict_line("spherical classification table", ok)


def test_mori_chambers_line_grassmannian():
    ok = True
    for n in (4, 5, 6, 7):
        dec = mori_chambers_g1n1(n)
        ok = ok and [w.name for w in dec.walls] == ["E1", "H", "H-E1", "H-2E1"]
        ok = ok and [d.name for d in dec.movable] == ["H", "H-2E1"]
        ok = ok and [d.name for d in dec.effective] == ["E1", "H-2E1"]
        ok = ok and dec.fano_flip_model == (n >= 5)
    layout = mori_chambers_g1n1(3)
    ok = ok and len(layout.chambers) == 3
    ok = ok and layout.movable == layout.nef
    ok = ok and layout.chambers[-1].model == "P4"
    ok = ok and not layout.fano_flip_model
    assert _verdict_line("Mori chambers of one-point line Grassmannian blow-ups", ok)


def test_property_suite_and_rank_metamorphic():
    ok = bool(settings.get_profile("ci").derandomize)

    rng = random.Random(1729)
    for _ in range(1000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        exact = rank(rows)
        ok = ok and rank(rows, FIELD) == exact
        scaled = [[rng.randint(1, 9) * v for v in row] for row in rows]
        ok = ok and rank(scaled) == exact
        permuted = rng.sample(rows, nrows)
        ok = ok and rank(permuted) == exact

    spot = random.Random(97)
    for _ in range(100):
        r = spot.randint(1, 3)
        n = spot.randint(2 * r + 1, 8)
        shape = GrassShape(r, n)
        indices = enumerate_indices(shape)
        I, J = spot.choice(indices), spot.choice(indices)
        ok = ok and distance(shape, I, J) == distance(shape, J, I)
        ok = ok and (distance(shape, I, J) == 0) == (I == J)
        m, k = spot.randint(2, 9), spot.randint(1, 40)
        ok = ok and h_m(m, 2 * k) == h_m(m, 2 * k - 1)
    assert _verdict_line("property suite and rank metamorphic checks", ok)
