"""The machine's momentary speed, measured by a fixed probe, to scale times by.

On a shared virtual machine the same computation can take twice as long
from one half minute to the next (see README.md), which would swamp any
difference between two versions of tame3.  So while the benchmark runs, a
fixed probe -- the shape of tame3's multiplication kernel: a convolution of
two packed-monomial maps with integer coefficients -- runs from a timer
signal every `INTERVAL` seconds, and once more before and after every item.
An interval's time is reported at the probe's reference speed:

    scaled = (elapsed − probe time inside it) · PROBE_S / mean probe time

where the mean runs over the probes that ended within `WINDOW` seconds of
the interval.  The machine's speed changes in phases of a second or more,
so the window reaches past short items without mixing phases.  The probe
does not touch tame3, so both versions of the program are scaled by the same
measurement of the machine.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.05
WINDOW = 0.25
# The probe's time on the machine the reference figures were taken on
# (2 vCPUs, Python 3.11.7) in its faster phase.  It fixes the scale only.
PROBE_S = 0.0005

_A = {(i * 7919) % 4093 << 21: (i + 1) * 1_000_003 for i in range(48)}
_B = {(i * 104729) % 8191: (i + 3) * 998_244_353 for i in range(48)}


def _probe() -> None:
    out: dict[int, int] = {}
    get = out.get
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = ea + eb
            out[e] = get(e, 0) + ca * cb


class Speed:
    """Probe samples of one process, in perf_counter time and end order."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the timer fired inside a probe
            return
        self._busy = True
        t0 = perf_counter()
        _probe()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn) -> tuple[float, float]:
        """Run fn between two probes; returns the interval (t0, t1) it ran in."""
        self.sample()
        t0 = perf_counter()
        try:
            fn()
        finally:
            t1 = perf_counter()
            self.sample()
        return t0, t1

    def scale(self, t0: float, t1: float, elapsed: float | None = None) -> float:
        """Time spent in [t0, t1] (by default all of it) at the reference speed.

        Call it once the probes up to t1 + WINDOW have run, or at the end.
        """
        if elapsed is None:
            elapsed = t1 - t0
        ends, durations = self.ends, self.durations
        lo = bisect.bisect_left(ends, t0 - WINDOW)
        hi = bisect.bisect_right(ends, t1 + WINDOW)
        inside = sum(
            d for e, d in zip(ends[lo:hi], durations[lo:hi]) if e - d >= t0 and e <= t1
        )
        return (elapsed - inside) * PROBE_S / statistics.fmean(durations[lo:hi])
