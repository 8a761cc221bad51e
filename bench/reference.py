"""Host-speed reference: a fixed unit of interpreter work, timed beside the
program so that wall times can be rescaled to a steady host speed.

On a shared virtual machine the speed a process gets moves by a factor of
two within seconds, following the load other guests put on the host; CPU
time moves with it, so it is no steadier than wall time.  A fixed unit of
work run in the same process, in short samples interleaved with the work
measured, slows down with it.  A time divided by the mean duration of the
unit over the same stretch of time, and multiplied by UNIT_S, is that time
in reference seconds: what it would read on a host where the unit takes
UNIT_S.  Over sixteen 6 s passes of one computation on a shared 2-core
x86 virtual machine the quartile spread was 2.8% rescaled against 9.0% in
wall time.

The unit is pure Python (Fraction arithmetic and dict updates, the kind of
work exactlie does) and imports nothing from exactlie, so no change to the
program can change it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

UNIT_S = 0.002  # nominal duration of the unit: about its median on a shared 2-core x86 VM
INTERVAL_S = 0.05  # one sample every 50 ms of wall time during a pass


def unit() -> Fraction:
    """The unit of work: about UNIT_S."""
    x = Fraction(1, 3)
    table = {}
    for i in range(120):
        x = (x * Fraction(i % 7 + 1, 5) + Fraction(1, i % 11 + 1)) / (x + 1)
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return x


def sample() -> float:
    """Seconds one unit of work takes now.  The collector is off meanwhile,
    so that a collection of the program's objects is not timed as part of
    the unit."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def rescale(seconds: float, samples) -> float:
    """``seconds`` in reference seconds, given unit samples taken over the
    same stretch of time."""
    return seconds * UNIT_S * len(samples) / sum(samples)


class Sampler:
    """Takes a unit sample every INTERVAL_S seconds of wall time, from a
    timer signal in the main thread, while running; no thread is started.
    ``samples`` holds the sample durations and ``spent`` the whole time the
    handler took, to be taken off the measured wall time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples.append(sample())  # one sample even for a short pass
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
