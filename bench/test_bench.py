"""The benchmark's own tests.

    python3 -m pytest -q bench

They check that traced counts repeat for one seed, that the span
accounting adds up, that a wrong reference is counted as a failure, that
every workload is answered correctly at a second seed, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import references
import run
import speed
import workloads
from tracer import Tracer

import grassdef

SECOND_SEED = 7
# the heavy cases stay out of the repeated traced passes
HEAVY = {
    "secant G(4,9) h8",
    "secant G(2,14) h6",
    "secant G(3,9) h5",
    "sweep SV(1;299)",
    "exact SV(1;60) h31",
    "exact G(2,8) h4",
    "exact G(3,7) h3",
}


def traced_pass(workload: str, seed: int):
    only = {c.name for c in workloads.cases(workload, seed)} - HEAVY
    with Tracer() as tracer:
        p = run.run_pass(workload, seed, tracer, only)
    return p, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, tracer = traced_pass(workload, SECOND_SEED)
    second, again = traced_pass(workload, SECOND_SEED)
    assert first.failures == second.failures == []

    def counts(p, t):
        rows = run._layer_metrics(p, t, p.wall_s)
        return {name: value for name, (value, unit) in rows.items() if unit == "count"}

    assert counts(first, tracer) == counts(second, again)
    assert sum(counts(first, tracer).values()) > 0


def test_self_times_add_up_to_the_traced_spans():
    p, tracer = traced_pass("exact", SECOND_SEED)
    snap = tracer.snapshot()
    assert sum(snap["self_s"].values()) == pytest.approx(tracer.outside_s, rel=1e-9, abs=1e-9)
    assert 0 < tracer.outside_s <= p.wall_s
    assert snap["counts"]["oracle.elim_exact.rows_useful"] > 0


def test_tracer_restores_the_package():
    names = ("distance", "secant_dimension", "build_parametrization")
    before = [getattr(grassdef.oracle, name) for name in names]
    add_row = grassdef.oracle.RankAccumulator.add_row
    with Tracer():
        assert grassdef.oracle.distance is not before[0]
        assert grassdef.indices.distance is grassdef.oracle.distance
    assert [getattr(grassdef.oracle, name) for name in names] == before
    assert grassdef.oracle.RankAccumulator.add_row is add_row


def test_planted_wrong_reference_is_counted(monkeypatch):
    # claim that G(1,5) h2 is not defective, which the program rightly denies
    monkeypatch.delitem(references.DEFECTIVE, ("G(1,5)", 2))
    monkeypatch.setitem(references.FROZEN, "bounds aop_bound", "0" * 16)
    only = {"secant G(1,5) h2", "secant G(2,6) h3"}
    p = run.run_pass("secant", SECOND_SEED, only=only)
    assert len(p.case_s) == 2
    assert [f.split(":")[0] for f in p.failures] == ["secant G(1,5) h2"]
    p = run.run_pass("tables", SECOND_SEED, only={"bounds aop_bound", "bounds grass_bound"})
    assert [f.split(":")[0] for f in p.failures] == ["bounds aop_bound"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_is_correct_at_a_second_seed(workload):
    p = run.run_pass(workload, SECOND_SEED)
    assert p.failures == []
    assert len(p.case_s) == len(workloads.cases(workload, SECOND_SEED))


def test_refuses_to_run_without_the_sources(tmp_path):
    repo = Path(run.__file__).resolve().parent.parent
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    shutil.copytree(repo / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((repo / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.002) as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert probe.slices
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.normalized(1.0, []) == 1.0
    assert speed.normalized(1.0, [speed.NOMINAL_SLICE_S] * 4) == pytest.approx(1.0 - 4 * speed.NOMINAL_SLICE_S)
