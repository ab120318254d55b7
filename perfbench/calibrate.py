"""A fixed piece of pure-Python work that measures the machine's speed now.

On a shared machine the same code runs up to 1.5-1.8x slower for seconds
to minutes at a time, on every CPU at once, with no steal time: the
instructions themselves run slower.  A whole run can fall into a slow
phase, so no estimator over one run's raw latencies removes it.  The
benchmark therefore times this reference next to every op and reports
calibrated seconds: a latency times REF_S over the reference's time
around that op, that is, the latency the op would have had at the speed
at which the reference takes REF_S.

The reference builds tuples and frozensets and sorts them, the kind of
allocation-heavy work the library does.  Measured against ops of all four
workloads over 100 s, it tracks their slowdown better than an integer
loop, a dict loop or small numpy products: 10-s windows of calibrated
latency stayed within 1.04-1.11x of each other where raw latency moved
by 1.2-1.4x.  It never imports closuretop, so a change to the library
cannot change it.
"""
from __future__ import annotations

import gc
import statistics
import time

# the reference's time on the baseline machine in a quiet phase
REF_S = 0.00021
# ops on each side of an op whose reference times are pooled for it
WINDOW = 3


def reference():
    out = []
    for i in range(400):
        out.append(frozenset(tuple(range(i % 9))))
    out.sort(key=len)
    return len(set(out))


def time_reference():
    """Seconds the reference takes now.

    The reference runs once untimed, so the timed run finds its code and
    its memory blocks warm whatever ran before, and the garbage collector
    is off, so the size of the caller's heap does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factors(refs):
    """REF_S over the median reference time around each position."""
    n = len(refs)
    return [REF_S / statistics.median(refs[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]
