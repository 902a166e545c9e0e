"""Timing corrected for the host's CPU speed.

The benchmark runs on shared virtual machines whose CPU speed moves with the
load other guests put on the same cores.  A fixed pure-Python loop, timed in
2 s windows for 40 s, ran anywhere from 2.3 to 3.8 ms per call, and
``ecf-cold`` passes of identical work took 4.9 to 6.2 s in successive
processes, so wall-clock figures spread further between runs of the same
code than any useful regression bound.  The hypervisor's steal counter stayed
near zero throughout: the guest keeps its CPUs, but they run slower.

:class:`SpeedClock` measures that speed while the workload runs.  A timer
signal interrupts the main thread every :data:`PROBE_INTERVAL` seconds to run
:func:`probe`, a fixed piece of interpreter, numpy and big-integer work of
the kinds the program does.  :meth:`SpeedClock.seconds` gives back the length
of an interval in *reference seconds*: its wall time, less the probes that
ran inside it, times the host's speed relative to the reference, which is
:data:`REFERENCE_PROBE_SECONDS` over the lower quartile of the probe times
in the :data:`SPEED_WINDOW` before the interval ends.  On a host running at
the reference speed a reference second is a wall second; on one running
30 % slower the same work still measures the same.

The lower quartile, not the mean, because the slow tail of the probe times
is mostly the probe being disturbed (by a worker thread taking the
interpreter lock mid-probe, or by the program's memory traffic), not the
host.  Over five 30 s runs of each gated workload, made with an earlier
version of the probe, throughput corrected by the mean probe speed ranged
over 5-9 % of its median, and by the lower quartile over one second
0.6-4.4 %.  Over ten runs of each, the spread
between the quartiles of the throughput was 0.19 and 0.10 of the median in
wall-clock seconds and 0.030 and 0.036 corrected (``README.md``,
Steadiness).

The probes add about 2 % to the wall time of a run.  They run only in
untraced runs: in a traced run their time would land in whichever span is
open, so traced runs time with the plain wall clock (:class:`WallClock`).
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy

#: Seconds between probes.
PROBE_INTERVAL = 0.02
#: The speed at a moment is read from the probes of this many seconds
#: before it, and from no fewer than MIN_PROBES probes.
SPEED_WINDOW, MIN_PROBES = 1.0, 3
#: Duration of one probe at the reference speed: the unit that turns probe
#: periods back into seconds.  It is about the lower-quartile probe time on
#: the 2-CPU Intel Xeon virtual machine the benchmark was built on (Python
#: 3.11, numpy 2.4), and must not change, or figures before and after the
#: change stop being comparable.
REFERENCE_PROBE_SECONDS = 0.0004

#: Below the 500 elements from which numpy's loops release the interpreter
#: lock: a probe that let the program's threads run would read slow.
_ARRAY = numpy.arange(256, dtype=numpy.float64)
_WORDS = [(1 << 2000) - 1 - 7919 * i for i in range(32)]


def probe() -> int:
    """A fixed mix of the program's kinds of work, about 0.4 ms of it: a
    dictionary-and-integer loop, numpy calls on a small array and
    big-integer mask algebra, in roughly equal shares.  Its data, under
    12 kB, stays in the core's caches, so the program's own memory traffic
    slows it as little as possible, and it holds the interpreter lock
    throughout."""
    total = 0
    table = {}
    for i in range(1000):
        table[i & 255] = total
        total += (i * i) % 7
    for _ in range(20):
        total += int((_ARRAY * 1.0001 + 0.5).sum())
    mask = 0
    for _ in range(15):
        for word in _WORDS:
            mask ^= (word & (word >> 3)) | mask
    return total + (mask & 1)


class WallClock:
    """Plain wall-clock intervals, for traced runs."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start

    def summary(self) -> str:
        return "wall clock, no speed correction"


class SpeedClock:
    """Wall-clock intervals in reference seconds (see the module doc).

    Intervals are ``time.perf_counter()`` readings taken by any thread; the
    probes run in the main thread, which Python's signal handling requires.
    A probe taken while a worker thread holds the interpreter lock waits
    for it, as the program's own threads do.
    """

    def __init__(self, interval: float = PROBE_INTERVAL) -> None:
        self.interval = interval
        self._starts: list = []
        self._ends: list = []
        self._previous = None
        self._probing = False

    def _probe(self, *_args) -> None:
        if self._probing:
            # The timer fired again inside a probe that waited on the
            # interpreter lock; nesting would break the starts' order.
            return
        self._probing = True
        started = time.perf_counter()
        probe()
        self._ends.append(time.perf_counter())
        self._starts.append(started)    # last: readers count the starts
        self._probing = False

    def start(self) -> None:
        for _ in range(MIN_PROBES):     # warm the probe, give a first speed
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _speed(self, end: float, count: int) -> float:
        """Reference seconds per wall second at time *end*."""
        first = bisect.bisect_left(self._starts, end - SPEED_WINDOW, 0, count)
        first = max(0, min(first, count - MIN_PROBES))
        durations = sorted(self._ends[i] - self._starts[i]
                           for i in range(first, count))
        return REFERENCE_PROBE_SECONDS / durations[len(durations) // 4]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``."""
        count = len(self._starts)       # a probe may land while this runs
        first = bisect.bisect_left(self._starts, start, 0, count)
        last = bisect.bisect_left(self._starts, end, first, count)
        probing = sum(min(self._ends[i], end) - self._starts[i]
                      for i in range(first, last))
        return (end - start - probing) * self._speed(end, count)

    def summary(self) -> str:
        durations = sorted(e - s for s, e in zip(self._starts, self._ends))
        quartile = durations[len(durations) // 4]
        return (f"{len(durations)} speed probes; host at "
                f"{REFERENCE_PROBE_SECONDS / quartile:.3f}x the reference "
                f"speed by their lower quartile")
