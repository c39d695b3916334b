"""Command line interface.

Subcommands: bound, secant, oscproj, tangproj, schubert (dim | contains |
sing | mult | degree), classify, chambers, spherical, effcone,
limit-hyperplane.  Every subcommand accepts --json for machine readable
output; the JSON is byte deterministic (sorted keys, no whitespace,
elapsed_ms always null).

Only the oracle subcommands secant, oscproj and tangproj take --trials,
--prime and --seed, and only they read GRASSDEF_SEED, the seed used when
--seed is not given; every other subcommand ignores the variable.

One serializer, _plain, writes every payload: a report dataclass becomes
the dict of its fields, a DivisorClass its name, a tuple a list.  chambers,
spherical and limit-hyperplane print their report as it is; effcone adds r,
n and k to its ConeData, and bound adds shape, rule and statement to its
BoundReport.  oscproj and tangproj print their ProjectionReport without the
two fields of the other projection kind (tangproj adds h), and secant its
certificate's to_dict() (renamed keys).  Only classify, which combines
three reports, and schubert, which has no report object, build a dict.

Exit codes: 0 on success, 2 on invalid arguments or violated preconditions,
3 when a computation is refused by the size cap (indices._check_size),
because its result has more digits than Python prints (_check_digits), or
because a value overflows a float or a machine-sized integer, 4 when an
internal consistency check fails (any other ArithmeticError).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from functools import lru_cache

from .indices import CapExceeded, GrassShape, SegreVeroneseShape, _check_ints


def _plain(value):
    """The JSON form of a report: a DivisorClass by its name, a dataclass as
    the dict of its fields, a tuple or list as a list, a dict entry by
    entry; anything else is already plain.  A DivisorClass exists only once
    its module is loaded, so a call that never loads it never imports it."""
    birational = sys.modules.get(f"{__package__}.birational")
    if birational is not None and isinstance(value, birational.DivisorClass):
        return value.name
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _emit(args, text: str, payload, **extra) -> int:
    """Print the text, or under --json the payload, a report or a dict, with
    the extra keys added, as _plain serializes them."""
    if args.json:
        plain = _plain(payload) | _plain(extra)
        text = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    print(text)
    return 0


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected a comma separated list of integers, got {text!r}")


def _parse_sv(text: str) -> SegreVeroneseShape:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(
            "expected dimensions and degrees separated by a colon, "
            "for example 1,1:2,2"
        )
    return SegreVeroneseShape(_parse_ints(head), _parse_ints(tail))


def _resolve_shape(args) -> GrassShape | SegreVeroneseShape:
    if getattr(args, "grass", None) is not None:
        r, n = args.grass
        return GrassShape(r, n)
    return _parse_sv(args.sv)


def _oracle_options(args) -> dict:
    """The trials, prime and seed keywords of secant, oscproj and tangproj
    from --trials, --prime (an integer or 'rational') and --seed (an integer
    or 'random'), the seed defaulting to GRASSDEF_SEED and then to
    DEFAULT_SEED.  No other subcommand reads GRASSDEF_SEED."""
    from .oracle import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRIALS

    prime = DEFAULT_PRIME if args.prime is None else args.prime
    if prime != "rational":
        try:
            prime = int(prime)
        except ValueError:
            raise ValueError(f"prime must be an integer or 'rational', got {prime!r}")
    seed = os.environ.get("GRASSDEF_SEED") if args.seed is None else args.seed
    if seed is None:
        seed = DEFAULT_SEED
    elif seed == "random":
        import random

        seed = random.SystemRandom().randrange(1 << 64)
    else:
        try:
            seed = int(seed)
        except ValueError:
            raise ValueError(f"seed must be an integer or 'random', got {seed!r}")
    trials = DEFAULT_TRIALS if args.trials is None else args.trials
    return {"trials": trials, "prime": prime, "seed": seed}


# ---------------------------------------------------------------------------
# subcommands; each imports the functions it calls from their defining
# module when it runs, so a call loads only the layers it uses


def cmd_bound(args) -> int:
    from .bounds import aop_bound, grass_bound, linear_bound, sv_bound

    if args.sv is not None and args.rule is not None:
        raise ValueError("--rule applies to --grass only; --sv has the one rule sv")
    shape = _resolve_shape(args)
    if isinstance(shape, GrassShape):
        rule = args.rule or "grass"
        bound = {"grass": grass_bound, "linear": linear_bound, "aop": aop_bound}[rule]
        report = bound(shape.r, shape.n)
    else:
        rule = "sv"
        report = sv_bound(shape)
    text = f"{shape.label}: {report.statement} (branch {report.branch}, raw {report.raw_value})"
    return _emit(args, text, report, shape=shape.label, rule=rule, statement=report.statement)


def cmd_secant(args) -> int:
    from .oracle import secant_dimension

    options = _oracle_options(args)
    cert = secant_dimension(_resolve_shape(args), args.h, **options)
    text = (
        f"{cert.shape} h={cert.h}: expected {cert.expected_dim}, "
        f"computed {cert.computed_dim}, defect {cert.defect} -> {cert.verdict}"
    )
    if cert.note:
        text += f"\n{cert.note}"
    return _emit(args, text, cert.to_dict())


def cmd_oscproj(args) -> int:
    from .oracle import osculating_projection_finite

    options = _oracle_options(args)
    shape = _resolve_shape(args)
    orders = _parse_ints(args.orders)
    if isinstance(shape, GrassShape):
        centers = [_parse_ints(part) for part in args.centers.split(";")]
    else:
        centers = list(_parse_ints(args.centers.replace(";", ",")))
    if len(centers) != len(orders):
        raise ValueError(
            f"{len(centers)} centers but {len(orders)} orders were given"
        )
    report = osculating_projection_finite(
        shape,
        list(zip(centers, orders)),
        **options,
    )
    text = (
        f"{report.shape} osculating projection: survivors {report.survivors}, "
        f"restricted rank {report.restricted_rank} -> {report.status}"
    )
    if report.note:
        text += f"\n{report.note}"
    payload = _plain(report)
    del payload["center_rank"], payload["joint_rank"]
    return _emit(args, text, payload)


def cmd_tangproj(args) -> int:
    from .oracle import tangential_projection_finite

    options = _oracle_options(args)
    report = tangential_projection_finite(_resolve_shape(args), args.h, **options)
    text = (
        f"{report.shape} tangential projection at h={args.h}: "
        f"center rank {report.center_rank}, joint rank {report.joint_rank} "
        f"-> {report.status}"
    )
    if report.note:
        text += f"\n{report.note}"
    payload = _plain(report)
    del payload["survivors"], payload["restricted_rank"]
    return _emit(args, text, payload, h=args.h)


def cmd_schubert(args) -> int:
    from .schubert import (
        FerrersDiagram,
        Partition,
        complementary,
        contains,
        grass_degree,
        multiplicity,
        schubert_codim,
        schubert_dim,
        singular_locus,
    )

    sub = args.sub
    if sub == "degree":
        value = grass_degree(args.r, args.n)
        return _emit(args, str(value), {"r": args.r, "n": args.n, "degree": value})
    lam = Partition(args.r, args.n, _parse_ints(args.lam))
    if sub == "dim":
        picture = FerrersDiagram.of_partition(lam).render()
        text = (
            f"Sigma_{lam.label} in G({lam.r},{lam.n}): "
            f"dim {schubert_dim(lam)}, codim {schubert_codim(lam)}\n{picture}"
        )
        payload = {
            "r": lam.r,
            "n": lam.n,
            "lambda": lam.parts,
            "complementary": complementary(lam),
            "dim": schubert_dim(lam),
            "codim": schubert_codim(lam),
        }
        return _emit(args, text, payload)
    if sub == "sing":
        components = singular_locus(lam)
        text = "\n".join(c.label for c in components) if components else "smooth"
        payload = {
            "lambda": lam.parts,
            "components": [c.parts for c in components],
        }
        return _emit(args, text, payload)
    mu = Partition(args.r, args.n, _parse_ints(args.mu))
    if sub == "contains":
        key, value = "contains", contains(lam, mu)
    else:
        key, value = "multiplicity", multiplicity(lam, mu)
    return _emit(args, str(value), {"lambda": lam.parts, "mu": mu.parts, key: value})


def cmd_classify(args) -> int:
    from .birational import Ambient, classify_fano, mds_status, spherical_status

    k = args.k
    if getattr(args, "grass", None) is not None:
        r, n = args.grass
        ambient = Ambient.grassmannian(r, n)
    elif getattr(args, "quadric", None) is not None:
        ambient = Ambient.quadric(args.quadric)
    else:
        ambient = Ambient.projective(args.proj)
    report = classify_fano(ambient, k)
    lines = [
        f"{ambient.label} blown up at k={k} general points",
        f"anticanonical {report.anticanonical_class.name}, "
        f"top self-intersection {report.top_anticanonical}",
    ]
    payload = {
        "ambient": ambient.label,
        "k": k,
        "verdict": report.verdict,
        "source": report.source,
        "anticanonical": report.anticanonical_class,
        "top_anticanonical": report.top_anticanonical,
        "min_pairing": report.min_pairing,
        "cone_status": report.cone.status,
        "spherical": None,
        "mds": None,
    }
    if ambient.kind == "quadric":
        lines.append(f"verdict: {report.verdict}")
    else:
        r0 = ambient.r if ambient.kind == "grassmannian" else 0
        mds = mds_status(r0, ambient.n, k)
        lines.append(f"verdict: {report.verdict}, MDS={mds.summary}")
        payload["mds"] = {"verdict": mds.verdict, "reason": mds.reason, "note": mds.note}
        if k >= 1:
            sph = spherical_status(r0, ambient.n, k)
            word = "yes" if sph.spherical else "no"
            lines.append(f"spherical: {word} (rule={sph.rule}, f={sph.f_value})")
            payload["spherical"] = {
                "spherical": sph.spherical,
                "rule": sph.rule,
                "f_value": sph.f_value,
            }
    return _emit(args, "\n".join(lines), payload)


def cmd_chambers(args) -> int:
    from .birational import mori_chambers_g1n1

    dec = mori_chambers_g1n1(args.n)
    lines = [
        f"Mori chamber decomposition of G(1,{dec.n}) blown up at one point",
        "walls: " + ", ".join(w.name for w in dec.walls),
    ]
    for chamber in dec.chambers:
        a, b = chamber.rays
        lines.append(f"chamber [{a.name}, {b.name}] model {chamber.model}: {chamber.contraction}")
    lines.append(f"nef [{dec.nef[0].name}, {dec.nef[1].name}]")
    lines.append(f"movable [{dec.movable[0].name}, {dec.movable[1].name}]")
    lines.append(f"effective [{dec.effective[0].name}, {dec.effective[1].name}]")
    lines.append(f"flip model Fano: {'yes' if dec.fano_flip_model else 'no'}")
    if dec.flip_anticanonical is not None:
        lines.append(f"flip anticanonical {dec.flip_anticanonical.name}")
    if dec.fibration_target is not None:
        lines.append(f"fibration target {dec.fibration_target}")
    if dec.note:
        lines.append(dec.note)
    return _emit(args, "\n".join(lines), dec)


def cmd_spherical(args) -> int:
    from .birational import spherical_status

    if getattr(args, "grass", None) is not None:
        r, n = args.grass
    else:
        r, n = 0, _check_ints("n", (args.proj,), 1)[0]
    report = spherical_status(r, n, args.k)
    label = f"G({report.r},{report.n})" if report.r >= 1 else f"P{report.n}"
    word = "spherical" if report.spherical else "not spherical"
    text = (
        f"{label} blown up at k={report.k} general points: {word} "
        f"(rule={report.rule}, f={report.f_value})"
    )
    if report.evidence:
        text += f"\n{report.evidence}"
    return _emit(args, text, report)


def cmd_effcone(args) -> int:
    from .birational import effective_cone

    shape = _resolve_shape(args)
    cone = effective_cone(shape.r, shape.n, args.k)
    label = f"{shape.label} blown up at k={args.k} general points"
    if cone.status == "unknown":
        text = f"Eff of {label}: unknown"
    else:
        names = ", ".join(d.name for d in cone.generators)
        text = f"Eff of {label}: {names} [{cone.status}, {cone.provenance}]"
    if cone.note:
        text += f"\n{cone.note}"
    return _emit(args, text, cone, r=shape.r, n=shape.n, k=args.k)


def cmd_limit_hyperplane(args) -> int:
    from .bounds import limit_hyperplane_coeffs

    section = limit_hyperplane_coeffs(args.D, args.s, args.sbar, args.k1, args.k2)
    text = "coefficients: (" + ", ".join(str(c) for c in section.coeffs) + ")"
    if section.trivial:
        text += " [trivial]"
    return _emit(args, text, section)


# ---------------------------------------------------------------------------
# parser


def _add_shape_flags(parser, kinds: tuple[str, ...] = ("grass", "sv")) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    if "grass" in kinds:
        group.add_argument("--grass", nargs=2, type=int, metavar=("R", "N"))
    if "sv" in kinds:
        group.add_argument("--sv", metavar="N1,..:D1,..")
    if "quadric" in kinds:
        group.add_argument("--quadric", type=int, metavar="N")
    if "proj" in kinds:
        group.add_argument("--proj", type=int, metavar="N")


def _add_oracle_flags(parser) -> None:
    parser.add_argument("--prime", help="prime modulus in [2^31, 2^64), or 'rational'")
    parser.add_argument(
        "--trials", type=int, help="independent trials, in [1, 64]; projections stop at one of full rank"
    )
    parser.add_argument("--seed", help="integer seed, or 'random'; defaults to GRASSDEF_SEED")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassdef",
        description="secant defectivity bounds and blow-up classification "
        "for Grassmannians and Segre-Veronese varieties",
    )
    parser.add_argument("--json", action="store_true", help="machine readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="non-defectivity bounds")
    _add_shape_flags(p)
    p.add_argument("--rule", choices=("grass", "linear", "aop"), help="--grass only; default grass")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("secant", help="secant variety dimension oracle")
    _add_shape_flags(p)
    p.add_argument("--h", type=int, required=True, help="number of general points")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_secant)

    p = sub.add_parser("oscproj", help="finiteness of osculating projections")
    _add_shape_flags(p)
    p.add_argument(
        "--centers",
        required=True,
        help="Grassmannian: index tuples like 0,1,2;3,4,5 - "
        "Segre-Veronese: diagonal values like 0;1",
    )
    p.add_argument("--orders", required=True, help="osculating orders like 1,1")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_oscproj)

    p = sub.add_parser("tangproj", help="finiteness of tangential projections")
    _add_shape_flags(p)
    p.add_argument("--h", type=int, required=True, help="number of general tangent spaces")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_tangproj)

    p = sub.add_parser("schubert", help="Schubert variety computations")
    ssub = p.add_subparsers(dest="sub", required=True)
    for name, needs_lambda, needs_mu in (
        ("dim", True, False),
        ("contains", True, True),
        ("sing", True, False),
        ("mult", True, True),
        ("degree", False, False),
    ):
        q = ssub.add_parser(name)
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--n", type=int, required=True)
        if needs_lambda:
            q.add_argument("--lambda", dest="lam", required=True, metavar="A1,A2,..")
        if needs_mu:
            q.add_argument("--mu", required=True, metavar="B1,B2,..")
        q.set_defaults(func=cmd_schubert)

    p = sub.add_parser("classify", help="Fano, spherical and MDS classification")
    _add_shape_flags(p, kinds=("grass", "quadric", "proj"))
    p.add_argument("--k", type=int, required=True, help="number of blown up points")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("chambers", help="Mori chambers of one-point blow-ups of G(1,n)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("spherical", help="spherical status of blow-ups")
    _add_shape_flags(p, kinds=("grass", "proj"))
    p.add_argument("--k", type=int, required=True, help="number of blown up points")
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("effcone", help="known effective cones of blown up Grassmannians")
    _add_shape_flags(p, kinds=("grass",))
    p.add_argument("--k", type=int, required=True, help="number of blown up points")
    p.set_defaults(func=cmd_effcone)

    p = sub.add_parser("limit-hyperplane", help="limit hyperplane coefficients")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--sbar", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.set_defaults(func=cmd_limit_hyperplane)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """main's parser, built once per process: parse_args returns a fresh
    namespace and reports errors by SystemExit, so calls share it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CapExceeded, OverflowError) as exc:
        # an OverflowError is Python refusing a value too large for a float
        # or a machine-sized integer, such as the power of a huge dimension
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
