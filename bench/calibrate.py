"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core drifts with the load of its
neighbours: by up to 1.75x for minutes at a time, and by a quarter from
one second to the next.  Wall times drift with it.  While a pass of jobs
runs, a ``Sampler`` therefore interrupts it every ``INTERVAL_S`` to time a
small fixed unit of work that uses no fracdyn code, and every timing is
reported in *reference seconds*: its wall time, less the time the sampler
took, scaled by the reference time of the unit over its mean CPU time in
the same pass.  A change to fracdyn moves a timing in reference seconds
exactly as it moves the wall time; a change in the machine's speed moves
the job and the units interleaved with it alike, and cancels.  A unit
timed now and then between jobs does not: the speed changes within
seconds.

The unit has three parts, each timed on its own: a pure-Python ``math``
loop, operations on small numpy arrays, and adaptive ``scipy.integrate.quad``
over a Python integrand.  Kinds of code slow down by different amounts
when the machine does, so each workload is scaled by the parts that track
its jobs best (``workloads.py``).
"""

from __future__ import annotations

import math
import signal
import time
from typing import List, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

# Median CPU time of each part of the unit on the 2-core machine the
# baseline was taken on, at its usual speed; they only set the scale of
# reference seconds.
REFERENCE_PART_S = {"python": 0.0007, "numpy": 0.00065, "quad": 0.00065}
PARTS = tuple(REFERENCE_PART_S)
# Wall time between two units: the sampler adds about 4 % to a pass.
INTERVAL_S = 0.05

_GRID = np.linspace(0.0, 4.0, 64)


def _integrand(w: float, freq: float) -> float:
    return math.exp(-w) * math.cos(freq * w) / (1.0 + w * w)


def unit_seconds() -> Tuple[float, float, float]:
    """CPU time of each part of one calibration unit, in ``PARTS`` order.

    CPU time of the calling thread, so that a wait for the GIL while other
    threads run is not counted.
    """
    acc = 0.0
    t0 = time.thread_time()
    for k in range(1, 2000):
        acc += _integrand(k * 1e-4, 3.0)
    t1 = time.thread_time()
    for k in range(80):
        acc += float(np.sum(np.exp(-_GRID * (1.0 + k * 1e-4)) * _GRID))
    t2 = time.thread_time()
    for k in range(1, 7):
        acc += quad(_integrand, 0.0, 60.0, args=(0.5 * k,), limit=200)[0]
    t3 = time.thread_time()
    if not math.isfinite(acc):
        raise ArithmeticError("calibration unit produced a non-finite sum")
    return t1 - t0, t2 - t1, t3 - t2


def scaled(seconds: float, unit_s: float, parts: Sequence[str]) -> float:
    """``seconds`` of wall time in reference seconds, when ``parts`` of the
    unit took ``unit_s`` over the same stretch of time."""
    return seconds * sum(REFERENCE_PART_S[p] for p in parts) / unit_s


class Sampler:
    """Times a unit every ``INTERVAL_S`` of wall time while it is entered.

    The unit runs in a ``SIGALRM`` handler, so in the main thread between
    two bytecodes of whatever runs there, on the same core.  ``units``
    holds the unit times and ``busy_s`` the CPU time the handler took,
    which the timed code must not be charged for.
    """

    def __init__(self) -> None:
        self.units: List[Tuple[float, float, float]] = []
        self.busy_s = 0.0
        self._inside = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._inside:  # a unit ran late; its time is counted once
            return
        self._inside = True
        entered = time.thread_time()
        try:
            self.units.append(unit_seconds())
        finally:
            self.busy_s += time.thread_time() - entered
            self._inside = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_s(self, parts: Sequence[str] = PARTS) -> float:
        """Mean time of ``parts`` of the unit so far; one unit is timed now
        if none was."""
        if not self.units:
            self.units.append(unit_seconds())
        index = [PARTS.index(p) for p in parts]
        return sum(sum(u[i] for i in index)
                   for u in self.units) / len(self.units)
