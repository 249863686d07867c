"""Host speed probe: scales wall times to a reference host speed.

On the reference host, a 2-core x86_64 Xeon virtual machine whose cores
other tenants share, interpreter-bound code runs up to 1.6x slower for tens
of seconds at a time, longer than one benchmark run, so medians within a
run do not settle: over ten runs of unscaled wall times the quartile spread
of the planted-dp train time was 28% and of its predict rate 48%.

``measure`` runs a fixed kernel that does what the package's hot loop does
(a suffix running-max recurrence over Python lists plus small numpy calls)
but touches nothing of lomo: ``BRACKET`` times before a timed unit, every
``PROBE_INTERVAL_S`` during it from a SIGALRM handler, and ``BRACKET`` times
after it. The unit's scaled time is its wall time, less the probe's own
time, multiplied by ``REFERENCE_KERNEL_S`` over the median kernel time.
A slow host slows kernel and unit alike and cancels; a change to the
package leaves the kernel alone and so moves scaled times exactly as it
moves wall times.
"""

from __future__ import annotations

import itertools
import signal
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference host (2-core x86_64 Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4) in a quiet period.
REFERENCE_KERNEL_S = 0.0008
PROBE_INTERVAL_S = 0.025
BRACKET = 3

_rng = np.random.default_rng(1608)
# As many frames as a planted-dp training set, visited eight per call, so
# the kernel's memory traffic resembles the package's.
_FRAMES = [_rng.standard_normal((30, 16)) for _ in range(400)]
_TEMPLATES = _rng.standard_normal((3, 16))
_cursor = itertools.cycle(range(0, 400, 8))


def kernel():
    """One fixed unit of interpreter and numpy work; returns its wall time."""
    started = perf_counter()
    first = next(_cursor)
    for frames in _FRAMES[first:first + 8]:
        responses = (_TEMPLATES @ frames.T).tolist()
        for order in itertools.permutations(range(3)):
            rows = [responses[i] for i in order]
            stage = rows[-1]
            for row in rows[-2::-1]:
                out = [0.0] * 30
                best = -np.inf
                for p in range(29, -1, -1):
                    if p + 4 < 30 and stage[p + 4] > best:
                        best = stage[p + 4]
                    out[p] = row[p] + best
                stage = out
            np.asarray(stage).max()
    return perf_counter() - started


def measure(fn, *args):
    """Call ``fn(*args)``; returns (result, wall seconds, scaled seconds)."""
    samples = [kernel() for _ in range(BRACKET)]
    during = []

    def probe(signum, frame):
        during.append(kernel())

    previous = signal.signal(signal.SIGALRM, probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    started = perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - started - sum(during)
        signal.signal(signal.SIGALRM, previous)
    samples += during + [kernel() for _ in range(BRACKET)]
    return result, elapsed, elapsed * REFERENCE_KERNEL_S / statistics.median(samples)
