"""Host speed probe: rescales measured times to a nominal host speed.

The benchmark shares its host with other work, and the speed of a core
swings by tens of percent within seconds and over minutes: a fixed loop of
integer and dict work took between 12 and 20 ms per 3-second window on a
2-CPU Linux host.  No run is long enough to average that out.  So while a run
measures, a SIGALRM timer interrupts the measured code every ``interval``
seconds and times one fixed slice of the same kind of work (62-bit modular
products into a small dict).  A measured interval is then reported as the
time it would have taken at the speed where one slice takes
``NOMINAL_SLICE_S``, with the probe's own slices subtracted first.

The handler runs in the main thread between bytecodes and touches nothing
of the measured program.
"""

from __future__ import annotations

import signal
import time

NOMINAL_SLICE_S = 2.5e-4
_PRIME = 4611686018427387847


def _slice() -> float:
    start = time.perf_counter()
    acc: dict[int, int] = {}
    x = 123456789
    for i in range(400):
        x = (x * 6364136223846793005 + 1442695040888963407) % _PRIME
        acc[i & 255] = (acc.get(i & 255, 0) - 3 * x) % _PRIME
    return time.perf_counter() - start


class SpeedProbe:
    """Times one slice every ``interval`` seconds of wall time while active."""

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.slices: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.slices.append(_slice())


def normalized(seconds: float, slices: list[float]) -> float:
    """``seconds`` of wall time that contained ``slices``, rescaled to the
    nominal host speed.  Without slices the time is returned as measured."""
    if not slices:
        return seconds
    mean = sum(slices) / len(slices)
    return (seconds - sum(slices)) * NOMINAL_SLICE_S / mean
