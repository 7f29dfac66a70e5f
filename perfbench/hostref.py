"""Host-speed reference loop and the clock that normalises every timing.

The benchmark host is a small shared VM whose speed drifts by a factor of
two within a minute, so no raw wall-clock time repeats to within a tenth.
Between chunks of queries (about every ``CHUNK_SECONDS`` of measured
work) the clock times ``reference_loop``: fixed plain ``Fraction``/``int``
arithmetic, with the small-object creation and float formatting that
make up the rest of the library's cost, but without importing the
library.  A call longer than a chunk is interrupted by a timer signal
for the probe.  Every slice of work is then multiplied by
``REF_SECONDS`` over the mean of the two reference times that bracket
it, which reads it in units of a host on which the loop takes
``REF_SECONDS``.

The ``cli`` workload's queries are child processes, whose speed does not
follow the parent's, so its clock times a child interpreter that runs the
loop once (``python -S refloop.py``) and uses ``REF_CHILD_SECONDS``.

This cancels whole-host speed swings.  It does not cancel contention
that slows the library and the reference loop by different amounts, for
example memory-bandwidth pressure on a query with huge integers.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refloop import reference_loop

# About the median times of one reference probe, in this process and in a
# child interpreter, on the host where the constants were fixed (2-core x86-64
# VM, CPython 3.11.7).  Changing them rescales every reported time, so
# they stay fixed across commits.
REF_SECONDS = 0.002
REF_CHILD_SECONDS = 0.05

REFLOOP = str(Path(__file__).resolve().parent / "refloop.py")
CHUNK_SECONDS = 0.025
# Set-ups are short (``deep``: about 20 ms) or one long call, so they are
# probed more often than queries.
SETUP_CHUNK_SECONDS = 0.005
CHILD_CHUNK_SECONDS = 0.25  # a child probe costs about half a cli query


class HostClock:
    """Collects reference-loop times between chunks of measured work.

    A slice of work is tagged with ``mark()``, the index of the probe that
    ends it, and normalised by the mean of the two probes that bracket
    that chunk, so a slow phase of the host scales the work and the
    reference loop alike.  Wider windows tracked the host less well: over
    five runs on the development host, the spread of ``sweep``
    throughput was 1.4 % with the bracketing pair, 2.0 % with three
    probes a side and 6.3 % with the run's global median.
    """

    def __init__(self, in_child: bool = False) -> None:
        self.in_child = in_child
        self.ref_seconds = REF_CHILD_SECONDS if in_child else REF_SECONDS
        self.chunk_seconds = CHILD_CHUNK_SECONDS if in_child else CHUNK_SECONDS
        # A child's set-up is one fresh interpreter: probe after each.
        self.setup_chunk = 0.0 if in_child else SETUP_CHUNK_SECONDS
        self.ref_times: list[float] = []
        self._pending = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        if self.in_child:
            subprocess.run([sys.executable, "-S", REFLOOP], check=True)
        else:
            reference_loop()
        self.ref_times.append(time.perf_counter() - t0)
        self._pending = 0.0

    def charge(self, seconds: float, chunk: float) -> None:
        """Account measured work; probe the host once a chunk is full."""
        self._pending += seconds
        if self._pending >= chunk:
            self.probe()

    def sliced(self, fn, chunk: float, inside: bool = True) -> tuple[object, list[tuple[float, int]]]:
        """Call ``fn()``; return its result and its work as (seconds, mark)
        slices.  The host is probed once ``chunk`` seconds of work have gone
        by since the last probe.

        With ``inside``, in this process, a timer signal interrupts ``fn``
        for that probe and the probe's time is left out of the slices, so a
        long call (a ``tile`` warm-up of about 1.5 s, a ``tile_svg`` of
        0.2 s) is normalised slice by slice; probes only around it would
        miss the host's phases inside it.  Otherwise (traced rounds, whose
        spans would count the probe, and child processes) ``fn`` is one
        slice and the probe follows it.
        """
        if not inside or self.in_child:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
            slices = [(dt, self.mark())]
            self.charge(dt, chunk)
            return result, slices

        slices, done = [], False

        def tick(signum, frame):
            nonlocal start
            # A signal raised just before the timer is disarmed can be
            # handled just after; re-arming then would outlive this call.
            if done:
                return
            slices.append((time.perf_counter() - start, self.mark()))
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, chunk)
            start = time.perf_counter()

        previous = signal.signal(signal.SIGALRM, tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, max(chunk - self._pending, 1e-6))
        try:
            result = fn()
            end = time.perf_counter()
        finally:
            done = True
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        dt = max(0.0, end - start)  # below 0 if a probe ran after ``end``
        slices.append((dt, self.mark()))
        self.charge(dt, chunk)
        return result, slices

    def mark(self) -> int:
        return len(self.ref_times)

    def ref_median(self) -> float:
        return statistics.median(self.ref_times)

    def scales(self) -> list[float]:
        """Normalisation factor for each mark: the reference constant over
        the mean time of the probes before and after the chunk."""
        n = len(self.ref_times)
        return [
            self.ref_seconds / statistics.fmean(self.ref_times[max(0, m - 1) : min(n, m + 1)])
            for m in range(n + 1)
        ]
