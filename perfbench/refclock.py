"""Times scaled to a reference host speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed
shifts between phases that last minutes: on a 2-vCPU host a fixed
integer loop took 25 ms in one run and 45 ms in a run an hour later,
and the warm re-run of the canonical world 0.60 s and 1.3 s.
Runs that fall in different phases then differ by more than any
regression bound, whatever the program does.

:class:`RefClock` runs a fixed calibration :func:`kernel` (an integer
loop, none of it from the package under test) between the timed calls
of a run, and :attr:`RefClock.factor` turns the run's raw times into
times at the speed where the kernel takes :data:`REFERENCE_MS`::

    scaled = raw * REFERENCE_MS / median(every kernel time of the run)

A change to the package moves a scaled time exactly as it moves the raw
time; a host phase moves the kernel too, and mostly cancels.  The
factor is one per run, from all its probes: the kernel tracks the
phases, not the second-to-second jitter of single calls, which the
workloads absorb with medians over many calls.  The raw times and the
probe statistics go into each result's details.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["REFERENCE_MS", "RefClock", "kernel"]

#: The kernel's time at the reference speed, in milliseconds.
REFERENCE_MS = 40.0


def kernel() -> int:
    """Fixed interpreter work: an integer multiply-add loop.  Of the
    kernels tried (this loop; string-keyed dict updates; numpy sorts
    over a large array), it followed the warm re-run across host phases
    most closely."""
    total = 0
    for i in range(400_000):
        total += i * i
    return total


class RefClock:
    """Times calls, probes the host's speed around them, and scales."""

    def __init__(self, repeats: int = 2):
        self.repeats = repeats
        #: Every kernel time measured, in milliseconds.
        self.probes: List[float] = []
        #: Every raw call time measured, in seconds.
        self.raw: List[float] = []
        kernel()  # the first call pays for warming the interpreter

    def probe(self, repeats: Optional[int] = None) -> None:
        """Run the kernel ``repeats`` times and keep the times."""
        for _ in range(repeats or self.repeats):
            started = time.perf_counter()
            kernel()
            self.probes.append((time.perf_counter() - started) * 1000)

    def time(self, fn: Callable[[], Any],
             repeats: Optional[int] = None) -> Tuple[float, Any]:
        """``(raw seconds, fn())``, with a probe after the call; a call
        of many seconds wants more ``repeats``, so that its share of the
        probes matches its share of the run."""
        started = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - started
        self.raw.append(raw)
        self.probe(repeats)
        return raw, value

    @property
    def factor(self) -> float:
        """Raw to reference time, from every probe so far."""
        if not self.probes:
            self.probe()
        return REFERENCE_MS / statistics.median(self.probes)
