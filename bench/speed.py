"""Machine-speed meter: takes the host's drift out of the time metrics.

The shared host this benchmark was tuned on changes speed by up to 1.6x,
in stretches from a fraction of a second to minutes, whatever runs on it:
a fixed loop's 20-s medians spread by 20% from window to window, so no
wall time of a 20-s run can be steadier than that. So while a run
measures, a timer signal interrupts it every ``INTERVAL_S`` and times the
probe: a fixed pure-Python arithmetic loop that no change to the program
can touch. It works in the first-level cache only, so the program's own
memory use hardly changes it. Each timed stretch (a round, a set-up)
is scaled by ``REFERENCE_S`` over the median probe taken during it and
shortly around it: the result is the time the work would take on a machine
where the probe takes ``REFERENCE_S``. The probes' own time is subtracted from
every time measured; it is about 1-2% of the run. The wall times are
printed beside.
"""
from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

# Probe seconds at the reference speed: about the median probe on the
# 2-core Xeon KVM guest the bounds were set on.
REFERENCE_S = 0.0005
LOOP = 10_000
INTERVAL_S = 0.05
WINDOW_S = 0.25


def probe() -> float:
    t = perf_counter()
    x = 0
    for i in range(LOOP):
        x += i
    return perf_counter() - t


class SpeedMeter:
    """Runs the probe on a timer signal between ``start`` and ``stop``, and
    times stretches of work net of the probes.

    A timing is (net seconds, start, end). ``scaled`` turns it into seconds
    at the reference speed, by the probes taken from ``WINDOW_S`` before
    its start to ``WINDOW_S`` after its end: the host's speed changes within
    a second, so the probes nearest the work track it best.
    """

    def __init__(self):
        self.stamps: list[float] = []
        self.probes: list[float] = []
        self.overhead = 0.0
        self._previous = None
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        t = perf_counter()
        self.probes.append(probe())
        self.stamps.append(t)
        self.overhead += perf_counter() - t
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> tuple[float, float]:
        """Start of a timing."""
        return perf_counter(), self.overhead

    def timing(self, clock: tuple[float, float]) -> tuple[float, float, float]:
        """The timing from ``clock`` to now, less the probes in between."""
        end = perf_counter()
        return end - clock[0] - (self.overhead - clock[1]), clock[0], end

    def scaled(self, timing: tuple[float, float, float]) -> float:
        net, start, end = timing
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        near = self.probes[lo:hi] or self.probes
        return net * REFERENCE_S / statistics.median(near)
