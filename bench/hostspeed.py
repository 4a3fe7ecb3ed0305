"""Host speed, sampled inside a timed operation.

On a shared host the same operation's wall time moves by up to 2x: the host
flips between faster and slower states within seconds and drifts over
minutes.  Other tenants slow the cores the guest runs on, and the guest
counts that time as its own CPU time, so CPU time moves with wall time too.
A ``Sampler`` measures the host's speed while the operation runs.  Every
``TICK_INTERVAL_S`` of wall time a SIGALRM handler runs a fixed calibration
tick (a small interpreter loop and a few small numpy reductions, the two
kinds of work lpcompact does) in the operation's own thread.
``NOMINAL_TICK_S / tick`` is the host's speed at that instant relative to the
reference machine, and the mean over the operation is the speed the program
ran at.  The benchmark reports each operation in seconds at reference speed:
``(wall - time spent in ticks) * speed``.  Python runs the handler between
bytecodes, so a long C call (a large ``json.dump``) is sampled only at its end.

The tick touches 8 KiB, so it measures the core rather than the caches, and
a change to the program's memory use barely moves it.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

TICK_INTERVAL_S = 0.01
WARM_UP_TICKS = 3
# About one warm tick on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4).  It only sets the scale of the reported seconds.
NOMINAL_TICK_S = 2.0e-4

_VEC = np.linspace(-1.0, 1.0, 1024)


def _tick_work() -> None:
    s = 0
    for i in range(1500):
        s += i * i % 7
    for _ in range(4):
        float(np.sum(np.abs(_VEC - 0.5) ** 2))


class Sampler:
    """Context manager that ticks at entry, every interval and at exit."""

    def __init__(self):
        self.ticks: list[float] = []
        self._previous = None
        # the first ticks in a process run cold; construct before timing
        for _ in range(WARM_UP_TICKS):
            _tick_work()

    def _tick(self, *_signal) -> None:
        start = perf_counter()
        _tick_work()
        self.ticks.append(perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def tick_s(self) -> float:
        """Wall time spent in ticks, to be taken off the operation's time."""
        return sum(self.ticks)

    @property
    def speed(self) -> float:
        """Mean host speed over the operation, relative to the reference."""
        return statistics.fmean(NOMINAL_TICK_S / t for t in self.ticks)
