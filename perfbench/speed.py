"""Steady timing on a shared host: CPU time, normalised to a reference speed.

Two kinds of host noise were seen where the benchmark was written.

- The process is descheduled for tens of milliseconds at a time. Wall time
  counts that and CPU time does not: a 0.9 ms item read 35 ms on the wall
  clock. So the benchmark times work with ``cpu_ns``: this thread's CPU
  time plus the CPU time of finished child processes (the cold CLI calls).
  For this single-threaded library it equals the wall time on an idle host.
- The CPU itself runs 20% faster or slower from one second to the next.
  The drift stays correlated over seconds, so longer runs alone do not
  average it out. ``SpeedClock`` therefore samples the speed while work
  runs. About every ``PERIOD_S`` of CPU time it times a fixed probe, either
  between items or from a SIGPROF handler inside long items. A timed
  interval is reported as its CPU time, minus the probe time inside it,
  scaled by how fast the probe ran around it relative to
  ``REFERENCE_PROBE_NS``.

The result is in seconds at the reference speed. It moves when the measured
code does more or less work, and much less when the host gets busier. The
raw wall times are printed beside it.
"""

from __future__ import annotations

import random
import resource
import signal
import statistics
import time
from array import array
from bisect import bisect_left

PERIOD_S = 0.02
LONG_S = 0.1
# The probe's median time on the host the benchmark was calibrated on (2.1 GHz
# x86-64, CPython 3.11); it only sets the scale of the reported seconds.
REFERENCE_PROBE_NS = 600_000

# Set and dict traffic over a few thousand ints, like the library's inner
# loops; on this kind of host it tracks the library's speed more closely
# than a pure arithmetic loop does.
_DATA = tuple(random.Random(0).getrandbits(20) for _ in range(3000))


def probe() -> int:
    """Fixed pure-Python work whose duration tracks the interpreter's speed."""
    seen: set[int] = set()
    hits = 0
    for x in _DATA:
        if x & 0xFF in seen:
            hits += 1
        seen.add(x & 0x3FF)
    counts: dict[int, int] = {}
    for x in _DATA[:1000]:
        counts[x] = counts.get(x, 0) + 1
    return hits + len(counts)


def cpu_ns() -> int:
    """CPU time of this thread plus that of its finished child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time_ns() + round(
        (children.ru_utime + children.ru_stime) * 1e9
    )


def probe_factor(rounds: int = 10) -> float:
    """Reference-speed factor from ``rounds`` probes run back to back."""
    factors = []
    for _ in range(rounds):
        start = time.thread_time_ns()
        probe()
        factors.append(REFERENCE_PROBE_NS / (time.thread_time_ns() - start))
    return statistics.mean(factors)


class SpeedClock:
    """Context manager sampling the probe's speed while work runs.

    Call ``tick`` between items: it runs a probe when ``PERIOD_S`` has
    passed since the last one and re-arms the timer, so the SIGPROF
    sampler fires only inside work that runs longer than ``LONG_S``
    without a tick.  Short items then never contain a probe, whose cache
    disturbance would otherwise land in the slowest items' times.
    """

    def __init__(self) -> None:
        self.starts = array("q")  # cpu_ns() at each probe's start
        self.durations = array("q")
        self._last = 0

    def _sample(self, signum=None, frame=None) -> None:
        try:
            at = cpu_ns()
            start = time.thread_time_ns()
            probe()
            spent = time.thread_time_ns() - start
        except RecursionError:  # interrupted a call already at the limit
            return
        self.starts.append(at)
        self.durations.append(spent)
        self._last = at + spent

    def tick(self) -> None:
        if cpu_ns() - self._last >= PERIOD_S * 1e9:
            self._sample()
        signal.setitimer(signal.ITIMER_PROF, LONG_S, PERIOD_S)

    def __enter__(self) -> "SpeedClock":
        signal.signal(signal.SIGPROF, self._sample)
        self.tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Normalised seconds of the ``cpu_ns`` interval [start_ns, end_ns].

        Probes inside the interval are subtracted and set its speed; a
        short interval with none inside takes the speed of its neighbours.
        """
        lo = bisect_left(self.starts, start_ns)
        hi = bisect_left(self.starts, end_ns)
        spent = sum(self.durations[lo:hi])
        near = self.durations[max(0, lo - 1) : min(len(self.durations), hi + 1)]
        if not near:
            raise RuntimeError("no speed samples: the clock was not running")
        factor = statistics.mean(REFERENCE_PROBE_NS / d for d in near)
        return (end_ns - start_ns - spent) * factor / 1e9
