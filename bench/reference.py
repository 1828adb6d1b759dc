"""Gauge how fast the machine runs while a child process does its work.

A shared virtual machine drifts in speed: the same pure-Python work takes
up to 1.7 times its usual time, switching many times a second, and how
much of the time the slow phases take changes over minutes.  A pass timed
in seconds alone therefore measures the phase the machine was in as much
as the program.

So every child process samples its own speed while it works.  Every
``INTERVAL_S`` of the process's CPU time (``SIGPROF``), a signal handler
runs :func:`tick`, a fixed pure-Python step of about a tenth of a
millisecond, and records ``TICK_REFERENCE_S`` divided by the time the step
took: the share of the reference speed the machine had at that moment.
The driver multiplies each time by the mean speed sampled in and around
it, and so reports *reference seconds*: seconds on a machine that runs one
tick in ``TICK_REFERENCE_S``.

The samples fall in the same thread and on the same core as the work they
gauge; a 50 ms gauge run between passes instead spread twice as widely as
the passes themselves.  The tick uses no part of cohodist, so a change to
the program cannot move it.  The time the samples take is counted in
``Sampler.spent_s``, and the driver subtracts it from every time.
"""

import math
import signal
import statistics
import time

# CPU time between two samples
INTERVAL_S = 0.005
# the mean time of a tick in a child on the 2-vCPU Xeon the baseline was
# measured on (Python 3.11.7), so that reference seconds read about as
# seconds there; it fixes the unit, not the spread
TICK_REFERENCE_S = 0.00017
TICK_STEPS = 200
# a child that lived too short a time for this many samples tops them up
# with ticks run back to back before it reports
MIN_SAMPLES = 20

_TABLE = list(range(256))
_INDEX = {i: i * 7 % 256 for i in range(256)}


def _pair(a, b):
    return (a, b) if a < b else (b, a)


def tick():
    """A fixed step of the kinds of work cohodist does in pure Python.

    Integer arithmetic with list and dict access, then small tuples as dict
    keys, a sort and a set, as simplices are handled.  Every object it makes
    is freed before it returns.
    """
    table = _TABLE
    index = _INDEX
    x = 12345
    acc = 0
    for _ in range(TICK_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = index[x & 255]
        table[k] = (table[k] + x) % 65521
        acc ^= table[(k + 1) & 255]
    counts = {}
    for i in range(60):
        key = _pair(i * 7 % 13, i * 5 % 11)
        counts[key] = counts.get(key, 0) + 1
    ranked = [v * 3 % 7 for _, v in sorted(counts.items())]
    return acc + sum(ranked) + len(set(counts))


class Sampler:
    """Samples the speed of this process every ``INTERVAL_S`` of its CPU time."""

    def __init__(self):
        self.speeds = []
        self.spent_s = 0.0   # time taken by the samples themselves
        self._busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrived while a tick ran
            return
        self._busy = True
        t = time.perf_counter()
        tick()
        took = time.perf_counter() - t
        self.speeds.append(TICK_REFERENCE_S / took)
        self.spent_s += time.perf_counter() - t
        self._busy = False

    def since(self, n):
        """(sum, count) of the speeds sampled after the first ``n``."""
        return math.fsum(self.speeds[n:]), len(self.speeds) - n

    def speed(self):
        """Mean sampled speed, as a share of the reference machine's."""
        self.stop()
        while len(self.speeds) < MIN_SAMPLES:
            self._sample()
        return statistics.fmean(self.speeds)
