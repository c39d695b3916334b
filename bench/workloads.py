"""The benchmark's workloads: fixed case lists with a check per case.

Every case calls the package the way a user does, through the public API or
through ``grassdef.cli.main`` in-process with ``--json``.  Names are looked
up on the package modules at call time, so the tracer's wrappers see every
call.  The workload seed sets the oracle's ``--seed`` and fixes the order of
the cases; the case lists themselves do not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import grassdef  # noqa: E402
import grassdef.cli  # noqa: E402

if Path(grassdef.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"grassdef was imported from {grassdef.__file__}, not from {SRC}")

import references as ref  # noqa: E402

from grassdef import bounds, birational, indices, oracle, schubert  # noqa: E402

# the lru_cache object itself; the tracer rebinds the module attribute
PARAMS_CACHE = oracle.build_parametrization
FIELD = oracle.PrimeField(oracle.DEFAULT_PRIME)

WORKLOADS = ("secant", "osculating", "exact", "tables")


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def cases(workload: str, seed: int, pass_index: int = 0) -> list[Case]:
    """The workload's cases for one pass, in an order fixed by the seed.

    The oracle seed of pass k is 1000 * seed + k, so the passes of a run
    draw different sample points.  The cost of exact elimination depends on
    the points drawn (one SV(1;60) h31 trial costs 12% more at one seed than
    at others), and a run's median then averages over them."""
    built = CASE_LISTS[workload](1000 * seed + pass_index)
    random.Random(f"order:{seed}").shuffle(built)
    return built


def cli_json(argv: list[str]):
    """Answer one `grassdef --json ...` call in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = grassdef.cli.main(["--json", *argv])
    if code != 0:
        raise RuntimeError(f"grassdef {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def shape_flags(spec: tuple) -> list[str]:
    if spec[0] == "grass":
        return ["--grass", str(spec[1]), str(spec[2])]
    ns, ds = spec[1], spec[2]
    return ["--sv", f"{','.join(map(str, ns))}:{','.join(map(str, ds))}"]


def make_shape(spec: tuple):
    if spec[0] == "grass":
        return indices.GrassShape(spec[1], spec[2])
    return indices.SegreVeroneseShape(spec[1], spec[2])


# ---------------------------------------------------------------------------
# secant: Terracini certificates modulo p through the CLI

SECANT = (
    # the classical defective Grassmannians
    (ref.grass(1, 5), 2, None),
    (ref.grass(2, 6), 3, None),
    (ref.grass(3, 7), 3, None),
    (ref.grass(3, 7), 4, None),
    (ref.grass(2, 8), 4, None),
    # certified Grassmannians; G(4,9) h8 is the hot path to beat
    (ref.grass(3, 8), 4, None),
    (ref.grass(3, 9), 5, None),
    (ref.grass(2, 14), 6, None),
    (ref.grass(4, 9), 8, 1),
    # small Segre-Veronese shapes
    (ref.sv((1,), (60,)), 31, None),
    (ref.sv((2, 2, 2), (1, 1, 1)), 4, None),
    (ref.sv((1, 1), (2, 2)), 3, None),
    (ref.sv((3,), (4,)), 9, None),
)
TANGPROJ = ((ref.grass(3, 8), 2),)


def check_certificate(spec: tuple, h: int, seed: int, cert: dict) -> bool:
    expected, actual = ref.expected_secant_dim(spec, h), ref.secant_dim(spec, h)
    return (
        cert["shape"] == ref.label(spec)
        and cert["h"] == h
        and cert["seed"] == seed
        and cert["expected"] == expected
        and cert["computed"] == actual
        and cert["defect"] == expected - actual
        and cert["verdict"] == ref.secant_verdict(spec, h)
    )


def check_tangproj(spec: tuple, h: int, report: dict) -> bool:
    center = ref.secant_dim(spec, h) + 1
    joint = ref.secant_dim(spec, h + 1) + 1
    dim_x, ambient = ref.variety_dim(spec), ref.num_coords(spec) - 1
    if ambient - center < dim_x:
        status = "HypothesisViolated"
    elif joint - center == dim_x + 1:
        status = ref.GENERICALLY_FINITE
    else:
        status = ref.FIBER_EVIDENCE
    return (
        report["shape"] == ref.label(spec)
        and report["center_rank"] == center
        and report["joint_rank"] == joint
        and report["status"] == status
    )


def secant_cases(seed: int) -> list[Case]:
    out = []
    for spec, h, trials in SECANT:
        argv = ["secant", *shape_flags(spec), "--h", str(h), "--seed", str(seed)]
        if trials is not None:
            argv += ["--trials", str(trials)]
        out.append(
            Case(
                f"secant {ref.label(spec)} h{h}",
                partial(cli_json, argv),
                partial(check_certificate, spec, h, seed),
            )
        )
    for spec, h in TANGPROJ:
        argv = ["tangproj", *shape_flags(spec), "--h", str(h), "--seed", str(seed)]
        out.append(
            Case(
                f"tangproj {ref.label(spec)} h{h}",
                partial(cli_json, argv),
                partial(check_tangproj, spec, h),
            )
        )
    return out


# ---------------------------------------------------------------------------
# exact: the fraction-free rational branch of the same elimination

EXACT = (
    (ref.grass(2, 6), 3),
    (ref.grass(3, 7), 3),
    (ref.grass(2, 8), 4),
    (ref.sv((3,), (4,)), 9),
    (ref.sv((1,), (60,)), 31),
)


def rational_certificate(spec: tuple, h: int, seed: int) -> dict:
    cert = oracle.secant_dimension(make_shape(spec), h, trials=1, prime="rational", seed=seed)
    return cert.to_dict()


def exact_cases(seed: int) -> list[Case]:
    return [
        Case(
            f"exact {ref.label(spec)} h{h}",
            partial(rational_certificate, spec, h, seed),
            partial(check_certificate, spec, h, seed),
        )
        for spec, h in EXACT
    ]


# ---------------------------------------------------------------------------
# osculating: jet ranks at coordinate points and osculating projections


def sv_family() -> list[tuple]:
    """The release gate's Segre-Veronese family: a small parameter box plus
    single-factor boundary cases, up to 300 coordinates."""
    specs = set()
    for n in (1, 2, 3):
        for d in range(1, 7):
            specs.add(ref.sv((n,), (d,)))
    for n, d in ((1, 10), (1, 60), (1, 299), (2, 22), (2, 5), (3, 9)):
        specs.add(ref.sv((n,), (d,)))
    for n1 in (1, 2, 3):
        for n2 in range(n1, 4):
            for d1, d2 in itertools.product((1, 2, 3), repeat=2):
                specs.add(ref.sv((n1, n2), (d1, d2)))
    for ns in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)):
        for ds in ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)):
            specs.add(ref.sv(ns, ds))
    for ds in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2)):
        specs.add(ref.sv((1, 1, 1, 1), ds))
    return sorted((s for s in specs if ref.num_coords(s) <= 300), key=ref.label)


def coordinate_point(spec: tuple) -> tuple[object, tuple[int, ...]]:
    """The coordinate index of the point e_0 and the parameter values that
    map to it: the identity block of the (r+1) x (n+1) matrix, or the first
    unit vector of every factor."""
    if spec[0] == "grass":
        r, n = spec[1], spec[2]
        point = [0] * ((r + 1) * (n + 1))
        for row in range(r + 1):
            point[row * (n + 1) + row] = 1
        return tuple(range(r + 1)), tuple(point)
    point = []
    for nj in spec[1]:
        point.extend([1] + [0] * nj)
    return tuple((0,) * d for d in spec[2]), tuple(point)


def osculating_sweep(spec: tuple) -> dict:
    shape = make_shape(spec)
    index, point = coordinate_point(spec)
    top = ref.filling_order(spec)
    ranks = oracle.osculating_rank_sweep(oracle.build_parametrization(shape), point, top, FIELD)
    if spec[0] == "grass":
        formula = [bounds.osculating_dim_grass(spec[1], spec[2], s) for s in range(top + 1)]
    else:
        formula = [bounds.osculating_dim_sv(shape, s) for s in range(top + 1)]
    balls = [len(indices.ball(shape, index, s)) for s in range(top + 1)]
    return {"ranks": ranks, "formula": formula, "balls": balls}


def check_sweep(spec: tuple, value: dict) -> bool:
    top = ref.filling_order(spec)
    ranks, formula, balls = value["ranks"], value["formula"], value["balls"]
    return (
        len(ranks) == len(formula) == len(balls) == top + 1
        and all(r - 1 == f == b - 1 for r, f, b in zip(ranks, formula, balls))
        and ranks[0] == 1
        and ranks[-1] == ref.num_coords(spec)
    )


def check_oscproj(spec: tuple, s: int, report: dict) -> bool:
    if spec[0] == "grass":
        status = ref.grass_osculating_status(spec[1], spec[2], s)
    else:
        status = ref.sv_osculating_status(spec[1], spec[2], s)
    return (
        report["shape"] == ref.label(spec)
        and report["status"] == status
        and report["survivors"] == ref.osculating_survivors(spec, s)
        and (status != ref.GENERICALLY_FINITE or report["restricted_rank"] == ref.variety_dim(spec) + 1)
    )


def check_rnc(n: int, a: int, b: int, status: str) -> bool:
    return status == ref.rnc_osculating_status(n, a, b)


def rnc_projection(n: int, a: int, b: int, seed: int) -> str:
    curve = oracle.RationalNormalCurve(n)
    return oracle.osculating_projection_finite(curve, [(0, a), (n, b)], seed=seed).status


OSCPROJ_GRASS = ((1, 4), (1, 5), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8))
OSCPROJ_SV = (((1, 1), (2, 2)), ((2,), (3,)), ((3,), (3,)), ((1, 1, 1), (1, 1, 1)), ((1, 2), (2, 1)), ((1, 2), (2, 2)))
# G(2,7) projected from the tangent spaces at two disjoint coordinate
# points, as tests/test_cli.py pins it
OSCPROJ_PINNED = (
    ["oscproj", "--grass", "2", "7", "--centers", "0,1,2;3,4,5", "--orders", "1,1"],
    {"survivors": 24, "restricted_rank": 16, "status": ref.GENERICALLY_FINITE},
)


def osculating_cases(seed: int) -> list[Case]:
    out = []
    for r in (1, 2, 3):
        for n in range(2 * r + 1, 10):
            spec = ref.grass(r, n)
            out.append(Case(f"sweep {ref.label(spec)}", partial(osculating_sweep, spec), partial(check_sweep, spec)))
    for spec in sv_family():
        out.append(Case(f"sweep {ref.label(spec)}", partial(osculating_sweep, spec), partial(check_sweep, spec)))
    specs = [ref.grass(r, n) for r, n in OSCPROJ_GRASS] + [ref.sv(ns, ds) for ns, ds in OSCPROJ_SV]
    for spec in specs:
        center = ",".join(map(str, range(spec[1] + 1))) if spec[0] == "grass" else "0"
        for s in range(ref.filling_order(spec) + 1):
            argv = ["oscproj", *shape_flags(spec), "--centers", center, "--orders", str(s), "--seed", str(seed)]
            out.append(
                Case(f"oscproj {ref.label(spec)} s{s}", partial(cli_json, argv), partial(check_oscproj, spec, s))
            )
    argv, pinned = OSCPROJ_PINNED
    out.append(
        Case(
            "oscproj G(2,7) two centers",
            partial(cli_json, [*argv, "--seed", str(seed)]),
            lambda report: all(report[k] == v for k, v in pinned.items()),
        )
    )
    for n in range(3, 11):
        for a in range(n):
            for b in range(n - a):
                out.append(
                    Case(
                        f"rnc {n} orders {a},{b}",
                        partial(rnc_projection, n, a, b, seed),
                        partial(check_rnc, n, a, b),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# tables: closed-form layers with the oracle idle


def _bound(report) -> list:
    return [report.max_h, report.raw_value, report.branch]


def _names(classes) -> list[str]:
    return [c.name for c in classes]


def bound_table(rule: str) -> dict:
    fn = getattr(bounds, rule)
    return {
        f"{r},{n}": _bound(fn(r, n))
        for r in range(2, 30)
        for n in range(2 * r + 1, r * r + 3 * r + 3)
    }


def check_bound_table(rule: str, table: dict) -> bool:
    pinned = {"grass_bound": {"4,29": 37, "6,55": 73, "8,89": 1001}}
    pinned["linear_bound"] = {"4,29": 13, "2,7": 3, "3,9": 3}
    pinned["aop_bound"] = {"4,29": 9, "2,7": 2}
    return all(table[key][0] == value for key, value in pinned[rule].items())


def partitions(r: int, n: int) -> list:
    return [
        schubert.Partition(r, n, tuple(reversed(parts)))
        for parts in itertools.combinations_with_replacement(range(n - r + 1), r + 1)
    ]


def schubert_table(r: int, n: int) -> dict:
    """Multiplicity along every contained Schubert variety, and whether
    that variety lies in the singular locus."""
    table = {}
    every = partitions(r, n)
    for lam in every:
        sing = schubert.singular_locus(lam)
        for mu in every:
            if schubert.contains(lam, mu):
                singular = any(schubert.contains(nu, mu) for nu in sing)
                table[f"{lam.label}{mu.label}"] = [schubert.multiplicity(lam, mu), singular]
        table[lam.label] = [list(nu.parts) for nu in sing]
    return table


def check_schubert_table(r: int, n: int, table: dict) -> bool:
    """Multiplicity is 1 on the smooth locus and at least 2 on the singular
    one; G(4,9) carries the worked values of tests/test_schubert.py."""
    pairs = [value for key, value in table.items() if key.count("(") == 2]
    ok = all((m >= 2) == singular and m >= 1 for m, singular in pairs)
    ok = ok and all(table[key + key] == [1, False] for key in table if key.count("(") == 1)
    if (r, n) == (4, 9):
        ok = ok and table["(2,2,2,1,0)(3,3,3,3,2)"][0] == 14
        ok = ok and table["(2,2,2,1,0)(3,3,3,3,0)"][0] == 4
        ok = ok and table["(2,2,2,1,0)"] == [[3, 3, 3, 3, 0], [2, 2, 2, 2, 2]]
    return ok


def fano_ambients() -> list:
    return (
        [birational.Ambient.grassmannian(r, n) for r in (1, 2, 3) for n in range(2 * r + 1, 9)]
        + [birational.Ambient.quadric(n) for n in range(2, 9)]
        + [birational.Ambient.projective(n) for n in range(2, 9)]
    )


def fano_table() -> dict:
    table = {}
    for ambient in fano_ambients():
        for k in range(10):
            rep = birational.classify_fano(ambient, k)
            table[f"{ambient.label} {k}"] = [
                rep.verdict,
                rep.source,
                rep.anticanonical_class.name,
                rep.top_anticanonical,
                rep.min_pairing,
                rep.cone.status,
            ]
    return table


def check_fano_table(table: dict) -> bool:
    return all(
        row[0] in ("Fano", "WeakFanoOnly", "Neither") and (row[0] == "Fano" or not key.endswith(" 0"))
        for key, row in table.items()
    ) and table["G(1,4) 4"][1] == "computed+table" and table["G(1,4) 5"][1] == "table"


def mds_table() -> dict:
    table = {}
    for r in range(4):
        for n in range(max(2, 2 * r + 1), 13):
            for k in range(8):
                rep = birational.mds_status(r, n, k)
                cone = rep.conjectural
                table[f"{r},{n},{k}"] = [
                    rep.verdict,
                    rep.reason,
                    rep.note,
                    None if cone is None else [_names(cone.generators), cone.status, cone.provenance],
                ]
    return table


def spherical_table() -> dict:
    table = {}
    for r in range(5):
        for n in range(max(2, 2 * r + 1), 13):
            for k in range(1, 5):
                rep = birational.spherical_status(r, n, k)
                table[f"{r},{n},{k}"] = [rep.spherical, rep.rule, rep.f_value, rep.evidence]
    return table


def check_spherical_table(table: dict) -> bool:
    """The classification as the release gate states it."""
    for key, row in table.items():
        r, n, k = map(int, key.split(","))
        expected = (
            (r == 0 and k <= n + 1)
            or (r >= 1 and k == 1)
            or (r >= 1 and k == 2 and (r == 1 or n in (2 * r + 1, 2 * r + 2)))
            or (k == 3 and (r, n) == (1, 5))
        )
        if row[0] != expected:
            return False
    return table["2,9,2"][2] == 0 and table["2,8,2"][2] == -1 and table["3,12,2"][2] == -2


def effcone_table() -> dict:
    table = {}
    for r in (1, 2, 3):
        for n in range(2 * r + 1, 11):
            for k in range(1, 4):
                cone = birational.effective_cone(r, n, k)
                table[f"{r},{n},{k}"] = [_names(cone.generators), cone.status, cone.provenance, cone.note]
    return table


def chambers_table() -> dict:
    table = {}
    for n in range(3, 13):
        dec = birational.mori_chambers_g1n1(n)
        table[str(n)] = {
            "walls": _names(dec.walls),
            "chambers": [[_names(c.rays), c.model, c.contraction] for c in dec.chambers],
            "nef": _names(dec.nef),
            "movable": _names(dec.movable),
            "effective": _names(dec.effective),
            "fano_flip_model": dec.fano_flip_model,
            "flip_anticanonical": None if dec.flip_anticanonical is None else dec.flip_anticanonical.name,
            "fibration_target": dec.fibration_target,
            "note": dec.note,
        }
    return table


def check_chambers_table(table: dict) -> bool:
    """The release gate's facts about G(1,n) blown up at one point."""
    ok = all(
        table[str(n)]["walls"] == ["E1", "H", "H-E1", "H-2E1"]
        and table[str(n)]["movable"] == ["H", "H-2E1"]
        and table[str(n)]["fano_flip_model"] == (n >= 5)
        for n in range(4, 13)
    )
    low = table["3"]
    return ok and len(low["chambers"]) == 3 and low["movable"] == low["nef"] and low["chambers"][-1][1] == "P4"


def cli_calls(argvs: list[list[str]]) -> list:
    return [cli_json(argv) for argv in argvs]


def cli_groups() -> dict[str, list[list[str]]]:
    """A few hundred closed-form CLI calls, one group per subcommand."""
    bound = [
        ["bound", "--grass", str(r), str(n), "--rule", rule]
        for r in range(2, 10)
        for n in sorted({2 * r + 1, 2 * r + 4, 3 * r + 5, r * r + 3 * r + 1})
        for rule in ("grass", "linear", "aop")
    ]
    bound += [["bound", "--sv", text] for text in ("1,1:2,2", "1:3", "2:3", "1,1,1:1,1,1", "1,2:2,1", "2,2:2,2")]
    schub = []
    for lam in partitions(2, 5):
        parts = ",".join(map(str, lam.parts))
        schub.append(["schubert", "dim", "--r", "2", "--n", "5", "--lambda", parts])
        schub.append(["schubert", "sing", "--r", "2", "--n", "5", "--lambda", parts])
        top = ",".join(str(min(3, a + 1)) for a in lam.parts)
        schub.append(["schubert", "contains", "--r", "2", "--n", "5", "--lambda", parts, "--mu", top])
        schub.append(["schubert", "mult", "--r", "2", "--n", "5", "--lambda", parts, "--mu", "3,3,3"])
    schub.append(["schubert", "mult", "--r", "4", "--n", "9", "--lambda", "2,2,2,1,0", "--mu", "3,3,3,3,2"])
    schub += [["schubert", "degree", "--r", str(r), "--n", str(n)] for r, n in ((1, 3), (1, 4), (2, 5), (2, 7), (3, 9))]
    classify = [["classify", "--grass", str(r), str(n), "--k", str(k)] for r, n in ((1, 4), (1, 5), (2, 5), (2, 6)) for k in range(6)]
    classify += [["classify", "--quadric", str(n), "--k", str(k)] for n in (3, 4) for k in range(5)]
    classify += [["classify", "--proj", str(n), "--k", str(k)] for n in (2, 3) for k in range(5)]
    spherical = [["spherical", "--grass", str(r), str(n), "--k", str(k)] for r, n in ((1, 5), (2, 5), (2, 7), (3, 9)) for k in range(1, 5)]
    spherical += [["spherical", "--proj", str(n), "--k", str(k)] for n in (3, 4) for k in range(1, 7)]
    effcone = [["effcone", "--grass", str(r), str(n), "--k", str(k)] for r, n in ((1, 4), (1, 5), (1, 6), (2, 5), (2, 6), (2, 7)) for k in range(1, 4)]
    chambers = [["chambers", "--n", str(n)] for n in range(3, 9)]
    return {
        "bound": bound,
        "schubert": schub,
        "classify": classify,
        "spherical": spherical,
        "effcone": effcone,
        "chambers": chambers,
    }


def check_cli_group(group: str, outputs: list) -> bool:
    if group == "bound":
        pinned = {("G(4,29)", "grass"): 37, ("G(4,29)", "linear"): 13, ("G(4,29)", "aop"): 9}
        return all(pinned.get((o["shape"], o["rule"]), o["max_h"]) == o["max_h"] for o in outputs)
    if group == "schubert":
        return any(o.get("multiplicity") == 14 and o["lambda"] == [2, 2, 2, 1, 0] for o in outputs)
    return True


def frozen(name: str, check: Callable[[object], bool]) -> Callable[[object], bool]:
    """The case's own check, plus the digest frozen for it."""
    return lambda value: check(value) and ref.digest(value) == ref.FROZEN.get(name)


def tables_cases(seed: int) -> list[Case]:
    specs = [(f"bounds {rule}", partial(bound_table, rule), partial(check_bound_table, rule)) for rule in ("grass_bound", "linear_bound", "aop_bound")]
    specs += [
        (f"schubert G({r},{n})", partial(schubert_table, r, n), partial(check_schubert_table, r, n))
        for r, n in ((3, 8), (4, 9))
    ]
    specs += [
        ("birational fano", fano_table, check_fano_table),
        ("birational mds", mds_table, lambda table: True),
        ("birational spherical", spherical_table, check_spherical_table),
        ("birational effcone", effcone_table, lambda table: True),
        ("birational chambers", chambers_table, check_chambers_table),
    ]
    specs += [
        (f"cli {group}", partial(cli_calls, argvs), partial(check_cli_group, group))
        for group, argvs in cli_groups().items()
    ]
    return [Case(name, run, frozen(name, check)) for name, run, check in specs]


CASE_LISTS = {
    "secant": secant_cases,
    "osculating": osculating_cases,
    "exact": exact_cases,
    "tables": tables_cases,
}
