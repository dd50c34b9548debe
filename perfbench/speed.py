"""Host speed probe: fixed pure-Python work, timed between ops.

The shared host this benchmark was built on changes speed for seconds to
minutes at a time: the same pure-Python loop took anywhere from 13 to 21 ms,
in one process, on either core. Every run would then measure the host as much
as eclab. So the worker times this probe between ops (never inside one) and
reports each time measured inside eclab scaled by REF_S / (probe time around
it). Timings read as milliseconds at reference speed: on a host where the
probe takes REF_S. The probe is the benchmark's own code and the standard
library's, and touches nothing of eclab, so a change to eclab cannot move it.

The probe is the geometric mean of two kinds of work that eclab's ops do: a
bytecode loop over ints and a small dict, and Fraction sums (exact
big-integer arithmetic). Over 300 s of exact_small ops, in 15 s windows, this
host's speed moved the ops' mean log time with a standard deviation of
0.125; after scaling by the loop alone 0.034 was left, by the Fraction sums
alone 0.030. The probe must leave no cyclic garbage behind: a probe that
also built an argparse parser tracked the host a little better (0.019), but
made eclab's ops about 10 % slower, most likely because the collector then
cleared the parser's cycles during them.
"""

from __future__ import annotations

import bisect
import math
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0011  # the probe's time at reference speed, about its median on that host
EVERY_S = 0.2  # op time between two probes; a probe takes about 7 ms
REPEATS = 3  # each kind of work counts its fastest of this many runs, so one preemption does not


def _loop() -> None:
    d = {}
    s = 0
    for i in range(10000):
        s += i * i % 7
        d[i & 255] = s


def _fractions() -> None:
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i * i + 1)


_WORK = (_loop, _fractions)


class Speedometer:
    """Probes taken between ops, and the scale factors derived from them."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter when each probe ended
        self.probes: list[float] = []  # seconds each probe took (geometric mean)
        self.spent = 0.0  # wall time spent probing
        self._since = 0.0

    def probe(self) -> None:
        t0 = perf_counter()
        logs = 0.0
        for work in _WORK:
            best = float("inf")
            for _ in range(REPEATS):
                a = perf_counter()
                work()
                best = min(best, perf_counter() - a)
            logs += math.log(best)
        now = perf_counter()
        self.times.append(now)
        self.probes.append(math.exp(logs / len(_WORK)))
        self.spent += now - t0
        self._since = 0.0

    def after_op(self, dt: float) -> None:
        """Probe once EVERY_S of op time has passed since the last probe."""
        self._since += dt
        if self._since >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean probe from the last one before `start` to the first after `end`."""
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return REF_S / statistics.fmean(self.probes[lo:hi + 1])
