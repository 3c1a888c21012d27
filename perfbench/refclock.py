"""Reference seconds: a worker's CPU time corrected for the host CPU's drifting speed.

On a shared host the speed of one vCPU drifts by a quarter within seconds,
as other tenants come and go on the same physical core, and the drift on
one vCPU is unrelated to that on another. No clock taken at the start and
end of a pass can remove it. So a probe runs inside the measured thread
itself: every INTERVAL_S of process CPU time, SIGPROF runs a fixed
reference kernel and records its speed, NOMINAL_S / (its CPU time).

A stretch of program CPU time t measured at mean probe speed s is reported
as t * s reference seconds: the time the same work takes on a CPU that
runs the kernel in exactly NOMINAL_S. The probes' own CPU time is left
out. The kernel is an exact sparse addition of Fraction entries, the
package's own kind of work, so it slows with the host as the package does.
Both commits of a comparison run the same kernel, so a change in the
program moves reference seconds exactly as it moves CPU seconds.

Standard library only: worker.py starts a probe before it imports numpy.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02  # process CPU time between probes
NOMINAL_S = 0.0007  # kernel CPU time that defines one reference second

_TERMS = {(i, i * 7 % 97): Fraction(i % 13, 1 + i % 5) for i in range(300)}


def kernel() -> dict:
    """Add two sparse exact operators the way SiteOperator.__add__ does."""
    out = dict(_TERMS)
    for key, value in _TERMS.items():
        out[key] = out.get(key, 0) + value
    return out


def reference_seconds(cpu_s: float, speeds: list[float]) -> float:
    """CPU time scaled by the mean probe speed over it.

    Probes fire at equal steps of CPU time, so their plain mean is the
    time-weighted mean speed of the stretch.
    """
    if not speeds:
        raise ValueError("no probe samples")
    return cpu_s * statistics.fmean(speeds)


class Probe:
    """Samples the speed of the calling thread's CPU while the program runs."""

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.speeds: list[float] = []
        self.spent_s = 0.0
        self._mark = clock()
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a signal that lands inside a probe is dropped
            return
        self._busy = True
        start = self.clock()
        kernel()
        took = self.clock() - start
        self.spent_s += took
        self.speeds.append(NOMINAL_S / took)
        self._busy = False

    def start(self) -> "Probe":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def lap(self) -> dict:
        """CPU and reference seconds of the program since the last lap, probes excluded."""
        if not self.speeds:
            self.sample()  # a stretch shorter than one interval still gets a speed
        now = self.clock()
        cpu_s = now - self._mark - self.spent_s
        lap = {"cpu_s": cpu_s, "ref_s": reference_seconds(cpu_s, self.speeds),
               "probes": len(self.speeds), "probe_s": self.spent_s}
        self.speeds, self.spent_s, self._mark = [], 0.0, self.clock()
        return lap
