"""Host-speed correction for the benchmark's timings.

On a shared virtual machine the same work runs at different speeds from one
minute to the next: a vCPU runs either at full speed or about 1.45 times
slower, in phases that last from a fraction of a second to minutes, and each
vCPU has its own phases.  A 30-second run falls mostly in one state, so the
median of raw times spreads widely between runs of the same code.

The benchmark therefore pins itself and its children to one CPU and runs a
Sampler thread beside the timed work.  Every PERIOD_S the sampler times a
fixed pure-Python snippet (Fraction arithmetic, tuples and a dict, the same
kind of work as the library's) by its own thread CPU time, so time spent
waiting for the child does not count.  The mean over a timed interval says
how fast the CPU was during it; a timing is scaled by
REFERENCE_S / that mean.  Timings are thus reported in "reference seconds":
the time the work would take on a host where the snippet costs REFERENCE_S
of CPU.  The snippet is the benchmark's own code, so a change to the program
moves the scaled timings exactly as it moves the raw ones.
"""

import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.15
REFERENCE_S = 0.005
NEAREST = 8


def snippet():
    acc = Fraction(0)
    table = {}
    for i in range(1, 700):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        acc += f * f
        table[(i % 13, i % 11)] = acc
    return acc, len(table)


def pin_to_one_cpu():
    """Pin this process, and so its later threads and children, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Times `snippet` every PERIOD_S on a daemon thread; samples are
    (time.monotonic() at the middle, thread CPU seconds)."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)

    def _loop(self):
        while not self._stop.wait(self.period):
            t0, c0 = time.monotonic(), time.thread_time()
            snippet()
            c1, t1 = time.thread_time(), time.monotonic()
            self.samples.append(((t0 + t1) / 2, c1 - c0))

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def factor(self, t0, t1):
        return factor(list(self.samples), t0, t1)


def factor(samples, t0, t1):
    """REFERENCE_S over the mean sample in [t0, t1].

    An interval with fewer than NEAREST samples uses the NEAREST samples
    closest to its middle.  With no samples at all the factor is 1.
    """
    inside = [c for t, c in samples if t0 <= t <= t1]
    if len(inside) < NEAREST:
        mid = (t0 + t1) / 2
        inside = [c for _, c in sorted(samples, key=lambda s: abs(s[0] - mid))[:NEAREST]]
    if not inside:
        return 1.0
    return REFERENCE_S / statistics.fmean(inside)
