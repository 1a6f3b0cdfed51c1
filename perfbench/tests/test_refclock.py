"""Scaling of measured times to the reference host speed."""

import time

import pytest

import refclock
from refclock import REFERENCE_MS, RefClock


class ScriptedClock(RefClock):
    """Each kernel run takes the next scripted time instead of running."""

    def __init__(self, kernel_ms, repeats=2):
        super().__init__(repeats=repeats)
        self._script = list(kernel_ms)

    def probe(self, repeats=None):
        for _ in range(repeats or self.repeats):
            self.probes.append(self._script.pop(0))


def test_factor_is_reference_over_the_median_probe():
    clock = ScriptedClock([REFERENCE_MS / 2] * 3 + [1000.0, 1.0])
    clock.probe(5)
    assert clock.factor == 2.0


def test_a_slower_host_cancels():
    # The same work on a host twice as slow: twice the raw time and
    # twice the kernel time give the same scaled time.
    fast = ScriptedClock([REFERENCE_MS] * 2)
    slow = ScriptedClock([2 * REFERENCE_MS] * 2)
    fast_raw, _ = fast.time(lambda: time.sleep(0.02))
    slow_raw, _ = slow.time(lambda: time.sleep(0.04))
    assert slow_raw > fast_raw
    assert slow_raw * slow.factor == pytest.approx(slow_raw / 2)
    assert fast_raw * fast.factor == pytest.approx(fast_raw)


def test_time_keeps_the_raw_time_and_probes_after_the_call():
    clock = ScriptedClock([30.0] * 12)
    raw, value = clock.time(lambda: "done")
    assert value == "done" and clock.raw == [raw]
    assert len(clock.probes) == 2
    clock.time(lambda: None, repeats=10)
    assert len(clock.probes) == 12


def test_factor_probes_when_nothing_has():
    clock = ScriptedClock([REFERENCE_MS / 4] * 2)
    assert clock.factor == 4.0


def test_the_kernel_is_deterministic():
    assert refclock.kernel() == refclock.kernel()
