"""grassdef benchmark runner.

    python3 bench/run.py --workload secant --seed 1 --seconds 28 --trace 0

Runs one workload's case list through the package in-process, one pass at a
time, single-threaded, and checks every answer.  With ``--trace 0`` it
prints the end-to-end metrics: the median pass wall time, the median time of
the heaviest case, the set-up time of a fresh interpreter answering one
CLI call, and peak memory.  Times are rescaled to a nominal host speed by
the speed probe (see ``speed.py``).  With ``--trace 1`` it alternates
untraced and traced passes and prints per-layer self times and counts,
writing the aggregated spans to ``.bench_trace/`` under the checkout.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_STARTS = 9
SETUP_ARGV = ["--json", "bound", "--grass", "4", "29"]


class Pass:
    """Timings and failures of one pass over a workload's cases."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.case_s: dict[str, float] = {}
        self.failures: list[str] = []
        self.params_builds = 0
        self.peak_rss_mb = 0.0
        self.per_case: list[dict] = []
        # speed-probe slices taken during the pass and during each case
        self.slices: list[float] = []
        self.case_slices: dict[str, list[float]] = {}

    def normalized_wall_s(self) -> float:
        return speed.normalized(self.wall_s, self.slices)

    def normalized_slowest_s(self) -> float:
        return max(speed.normalized(s, self.case_slices.get(n) or self.slices) for n, s in self.case_s.items())


def run_pass(workload: str, seed: int, tracer=None, only=None, probe=None, pass_index: int = 0) -> Pass:
    """One pass with a cold parametrization cache before every case, as a
    fresh CLI call would have.  ``only`` restricts the pass to the named
    cases; the benchmark's own tests use it.  With a speed probe running,
    the pass keeps the slices it took."""
    import workloads

    result = Pass()
    todo = [c for c in workloads.cases(workload, seed, pass_index) if only is None or c.name in only]
    slices = probe.slices if probe is not None else []
    first = len(slices)
    clock = time.perf_counter
    start = clock()
    for case in todo:
        before = tracer.snapshot() if tracer is not None else None
        workloads.PARAMS_CACHE.cache_clear()
        case_first = len(slices)
        case_start = clock()
        try:
            value, error = case.run(), None
        except Exception:
            value, error = None, traceback.format_exc()
        result.case_s[case.name] = clock() - case_start
        result.case_slices[case.name] = slices[case_first:]
        if error is not None:
            result.failures.append(f"{case.name}: raised\n{error}")
        elif not _check(case, value):
            result.failures.append(f"{case.name}: wrong answer {json.dumps(value)[:400]}")
        # a result kept alive into the next case would raise the peak memory
        value = None
        result.params_builds += workloads.PARAMS_CACHE.cache_info().misses
        if tracer is not None:
            layers = _delta(before, tracer.snapshot())
            result.per_case.append({"case": case.name, "seconds": result.case_s[case.name], "layers": layers})
    result.wall_s = clock() - start
    result.slices = slices[first:]
    return result


def _check(case, value) -> bool:
    try:
        return bool(case.check(value))
    except Exception:
        return False


def _delta(before: dict, after: dict) -> dict:
    return {
        layer: {"calls": after["calls"][layer] - before["calls"][layer], "self_s": after["self_s"][layer] - before["self_s"][layer]}
        for layer in after["calls"]
        if after["calls"][layer] != before["calls"][layer]
    }


def setup_times(starts: int = SETUP_STARTS) -> tuple[list[float], list[str]]:
    """Times of fresh interpreters that import grassdef and answer one CLI
    call, started one after another and rescaled by the speed probe each
    one runs; also the starts that answered wrongly."""
    import references

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times, failures = [], []
    for i in range(starts):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "setup_child.py"), *SETUP_ARGV],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        took = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != references.BOUND_4_29_JSON:
            failures.append(f"set-up start {i}: exit {proc.returncode}, {proc.stdout.strip()[:200]!r}")
            times.append(took)
            continue
        times.append(speed.normalized(took, json.loads(proc.stderr.strip().splitlines()[-1])))
    return times, failures


def _passes(seconds: float, one_pass) -> list:
    """Call ``one_pass(k)`` for k = 0, 1, ..., which returns an item and its
    wall time, while another pass of median length still ends within
    ``seconds``; always at least once."""
    out, walls = [], []
    start = time.perf_counter()
    while True:
        item, wall = one_pass(len(out))
        out.append(item)
        walls.append(wall)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return out


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    with speed.SpeedProbe() as probe:

        def one_pass(k):
            p = run_pass(workload, seed, probe=probe, pass_index=k)
            p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            return p, p.wall_s

        passes = _passes(seconds, one_pass)
    setup, setup_failures = setup_times()
    failures = [f for p in passes for f in p.failures] + setup_failures
    attempted = sum(len(p.case_s) for p in passes) + len(setup)
    metrics = {
        "wall_s": (statistics.median(p.normalized_wall_s() for p in passes), "s"),
        "slowest_case_s": (statistics.median(p.normalized_slowest_s() for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        # the high-water mark after the first pass, so the pass count does not move it
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }
    walls = ", ".join(f"{p.wall_s:.3f}/{p.normalized_wall_s():.3f}" for p in passes)
    print(f"{workload}: {len(passes)} passes, wall raw/rescaled {walls} s; {len(setup)} set-up starts", file=sys.stderr)
    return metrics, attempted, failures


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    from tracer import Tracer

    # every pair repeats pass 0, so the traced counts must repeat exactly
    def pair(k):
        plain = run_pass(workload, seed)
        with Tracer() as tracer:
            start = time.perf_counter()
            with_trace = run_pass(workload, seed, tracer)
            wall = time.perf_counter() - start
        return (plain, with_trace, tracer, wall), plain.wall_s + wall

    pairs = _passes(seconds, pair)
    failures = [f for plain, tr, _, _ in pairs for f in plain.failures + tr.failures]
    attempted = sum(len(plain.case_s) + len(tr.case_s) for plain, tr, _, _ in pairs)
    layer_rows = [_layer_metrics(tr, tracer, wall) for _, tr, tracer, wall in pairs]
    counts = [{k: v for k, v in row.items() if v[1] == "count"} for row in layer_rows]
    if any(c != counts[0] for c in counts):
        failures.append("traced counts differ between passes with one seed")
    metrics = {}
    for name, (_, unit) in layer_rows[0].items():
        metrics[name] = (statistics.median(row[name][0] for row in layer_rows), unit)
    overhead = [wall - plain.wall_s for plain, _, _, wall in pairs]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    _write_trace(workload, seed, pairs[0][2], pairs[0][1], metrics)
    print(f"{workload}: {len(pairs)} untraced/traced pass pairs", file=sys.stderr)
    return metrics, attempted, failures


def _layer_metrics(p: Pass, tracer, wall: float) -> dict:
    snap = tracer.snapshot()
    calls, self_s, counts = snap["calls"], snap["self_s"], snap["counts"]
    modp_fed, exact_fed = calls["oracle.elim_modp"], calls["oracle.elim_exact"]
    modp_useful = counts["oracle.elim_modp.rows_useful"]
    rows = {
        "oracle.jets.self_s": (self_s["oracle.jets"], "s"),
        "oracle.elim_modp.self_s": (self_s["oracle.elim_modp"], "s"),
        "oracle.elim_modp.rows_fed": (modp_fed, "count"),
        "oracle.elim_modp.rows_useful": (modp_useful, "count"),
        "oracle.elim_modp.useful_ratio": (modp_useful / modp_fed if modp_fed else 0.0, "ratio"),
        "oracle.elim_exact.self_s": (self_s["oracle.elim_exact"], "s"),
        "oracle.elim_exact.rows_fed": (exact_fed, "count"),
        "oracle.elim_exact.rows_useful": (counts["oracle.elim_exact.rows_useful"], "count"),
        "oracle.params.self_s": (self_s["oracle.params"], "s"),
        "oracle.params.builds": (p.params_builds, "count"),
        "oracle.trials": (counts["oracle.trials"], "count"),
        "oracle.escalations": (counts["oracle.escalations"], "count"),
    }
    for layer in ("indices", "schubert", "cli", "bounds", "birational"):
        rows[f"{layer}.calls"] = (calls[layer], "count")
        rows[f"{layer}.self_s"] = (self_s[layer], "s")
    rows["trace.wall_s"] = (wall, "s")
    rows["bench.self_s"] = (wall - sum(self_s.values()), "s")
    return rows


def _write_trace(workload: str, seed: int, tracer, p: Pass, metrics: dict) -> None:
    out = ROOT / ".bench_trace"
    out.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "functions": tracer.function_table(),
        "cases": p.per_case,
    }
    (out / f"{workload}-seed{seed}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("secant", "osculating", "exact", "tables"))
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
    except ImportError as exc:
        print(f"cannot import grassdef from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    metrics, attempted, failures = measure(args.workload, args.seed, args.seconds)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
