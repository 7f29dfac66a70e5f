"""The host clock's sliced timing of long calls.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostref  # noqa: E402


def _busy(seconds: float):
    def fn():
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return seconds

    return fn


def test_sliced_probes_inside_a_long_call_and_leaves_probes_out():
    clock = hostref.HostClock()
    clock.probe()
    result, slices = clock.sliced(_busy(0.2), 0.005)
    assert result == 0.2
    assert len(slices) >= 10
    assert [m for _, m in slices] == list(range(1, len(slices) + 1))
    # The call waits 0.2 s of wall time, the probes inside it included.
    inside = clock.ref_times[1 : len(slices)]
    assert abs(sum(dt for dt, _ in slices) + sum(inside) - 0.2) < 0.01


def test_no_timer_outlives_sliced():
    # A call that ends just as the timer fires must not leave it armed:
    # SIGALRM's default action would kill the process later.
    clock = hostref.HostClock()
    clock.probe()
    for i in range(3000):
        clock.sliced(_busy(0.0001 + 0.0009 * (i % 10) / 10), 0.0005)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
