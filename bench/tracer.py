"""Per-layer tracing of grassdef from outside the package.

The tracer replaces each layer's public entry points by timing wrappers,
everywhere a caller looks the name up: the modules import names from each
other directly, so ``grassdef.oracle.distance`` and
``grassdef.indices.distance`` are both rebound.  ``RankAccumulator.add_row``
is patched on the class.  Spans nest on one stack; a span's self time is its
duration minus the durations of the spans it encloses, so the self times of
all layers plus the root (the benchmark's own code) add up to the traced
wall time.  Spans are aggregated in memory per function and per case and
written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import workloads  # noqa: F401  (puts the checkout's src/ first on sys.path)

import grassdef
from grassdef.oracle import DEFAULT_TRIALS, RankAccumulator

MODULES = tuple(
    importlib.import_module(name)
    for name in (
        "grassdef",
        "grassdef.oracle",
        "grassdef.cli",
        "grassdef.indices",
        "grassdef.bounds",
        "grassdef.schubert",
        "grassdef.birational",
    )
)

ORACLE_JETS = (
    "secant_dimension",
    "tangential_projection_finite",
    "osculating_projection_finite",
    "osculating_rank_sweep",
    "jet_matrix",
)

ELIM_MODP = "oracle.elim_modp"
ELIM_EXACT = "oracle.elim_exact"


def _public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


def layer_entry_points() -> dict[str, tuple[object, list[str]]]:
    """Layer name -> (defining module, names of its traced entry points)."""
    oracle = grassdef.oracle
    entry = {
        "oracle.jets": (oracle, list(ORACLE_JETS)),
        "oracle.params": (oracle, ["build_parametrization"]),
        "cli": (grassdef.cli, ["main"]),
    }
    for layer in ("indices", "schubert", "bounds", "birational"):
        module = getattr(grassdef, layer)
        entry[layer] = (module, _public_functions(module))
    return entry


LAYERS = tuple(layer_entry_points()) + (ELIM_MODP, ELIM_EXACT)


class Tracer:
    """Installs the wrappers on entry and restores the package on exit."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: list[list[float]] = [[0.0]]
        # (layer, function) -> [calls, self seconds]
        self.functions: dict[tuple[str, str], list] = {}
        self.counts = {
            f"{ELIM_MODP}.rows_useful": 0,
            f"{ELIM_EXACT}.rows_useful": 0,
            "oracle.trials": 0,
            "oracle.escalations": 0,
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for layer, (module, names) in layer_entry_points().items():
            for name in names:
                original = getattr(module, name)
                after = self._after_hook(name)
                wrapped = self._wrap(original, layer, name, after)
                for target in MODULES:
                    if vars(target).get(name) is original:
                        self._patch(target, name, wrapped)
        self._patch(RankAccumulator, "add_row", self._wrap_add_row(RankAccumulator.add_row))
        return self

    def __exit__(self, *exc) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def _patch(self, target, name: str, value) -> None:
        self._restore.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def _stat(self, layer: str, name: str) -> list:
        return self.functions.setdefault((layer, name), [0, 0.0])

    def _wrap(self, fn, layer: str, name: str, after):
        stack, clock, stat = self._stack, self._clock, self._stat(layer, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                stat[0] += 1
                stat[1] += took - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _wrap_add_row(self, add_row):
        stack, clock, counts = self._stack, self._clock, self.counts
        modp, exact = self._stat(ELIM_MODP, "add_row"), self._stat(ELIM_EXACT, "add_row")

        @functools.wraps(add_row)
        def traced(acc, row):
            layer, stat = (ELIM_MODP, modp) if acc.field is not None else (ELIM_EXACT, exact)
            before = acc.rank
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                after = add_row(acc, row)
            finally:
                took = clock() - start
                stack.pop()
                stack[-1][0] += took
                stat[0] += 1
                stat[1] += took - frame[0]
            if after > before:
                counts[f"{layer}.rows_useful"] += 1
            return after

        return traced

    def _after_hook(self, name: str):
        counts = self.counts

        def requested(args, kwargs) -> int:
            return kwargs.get("trials", args[2] if len(args) > 2 else DEFAULT_TRIALS)

        if name == "secant_dimension":

            def after(args, kwargs, cert):
                counts["oracle.trials"] += len(cert.trials)
                if len(cert.trials) > requested(args, kwargs):
                    counts["oracle.escalations"] += 1

            return after
        if name in ("tangential_projection_finite", "osculating_projection_finite"):

            def after(args, kwargs, report):
                if report.restricted_rank is not None or report.center_rank is not None:
                    counts["oracle.trials"] += requested(args, kwargs)

            return after
        return None

    # -- readout ------------------------------------------------------------

    @property
    def outside_s(self) -> float:
        """Time spent in spans opened directly below the root so far."""
        return self._stack[0][0]

    def snapshot(self) -> dict:
        """Per-layer calls, self time and counts accumulated so far."""
        calls = {layer: 0 for layer in LAYERS}
        self_s = {layer: 0.0 for layer in LAYERS}
        for (layer, _), (n, seconds) in self.functions.items():
            calls[layer] += n
            self_s[layer] += seconds
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts)}

    def function_table(self) -> list[dict]:
        return [
            {"layer": layer, "function": name, "calls": n, "self_s": seconds}
            for (layer, name), (n, seconds) in sorted(self.functions.items())
            if n
        ]
