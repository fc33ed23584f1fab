"""Host-speed probe: scales measured times to a reference host speed.

The benchmark host is a shared machine whose cores slow down by up to 2x
for seconds or minutes at a time while other tenants load them.  The
slowdown shows in CPU time as much as in wall time (the process is not
waiting for a core; the core itself runs slower, its caches and memory
shared with the neighbours), so neither clock alone gives figures that
repeat from one run to the next.

:func:`probe` runs a fixed piece of work that does not depend on the
program under test, and returns the thread CPU seconds it took.  It has
three parts, one for each kind of work the program does: small NumPy
kernels, NumPy calls on tiny arrays (call overhead), and pure
interpreter work on dicts and lists.  A run samples it between jobs and between serial runs,
and for the service on a timer on its event loop, and
:class:`SpeedLog` turns the samples nearest an interval into a factor,
``REFERENCE_S`` over their median.  A time multiplied by that factor is
the time the same work would take on the host at its reference speed.
A change to the program moves the scaled times as it moves the raw ones;
a change of host speed moves the probe too and largely cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Tuple

import numpy as np

#: Probe seconds at the reference speed: about the median of the probe on
#: a two-core x86_64 host over four minutes of varying load, with 1
#: thread per BLAS pool.
REFERENCE_S = 0.0035
#: The factor of an interval is the median of this many samples nearest it
#: (samples inside the interval count as nearest).
NEAREST = 7
#: Longer intervals are scaled piece by piece, each by its own samples.
PIECE_S = 1.0

_RNG = np.random.default_rng(20240607)
_MATRIX = _RNG.random((256, 256)) / 256.0
_GAINS = _RNG.random((256, 8))
_START = _RNG.random(256)
_RECORDS = [{"a": i, "b": [i, i + 1]} for i in range(6000)]
_TINY = [_RNG.random(16) for _ in range(64)]


def probe() -> float:
    """Thread CPU seconds of one fixed piece of work.

    Three parts of about a millisecond each.  Against jobs of the kinds
    the benchmark runs (a serial run, a batched suite, a batched sweep, a
    service round) timed alternately with the probe on a loaded host, the
    log of their time grew with the log of this probe's with a slope of
    0.8 to 0.95.  A fourth part streaming arrays larger than the caches
    brought the slope to 1, but run every 0.25 s beside the service it
    slowed the service by half.
    """
    start = time.thread_time()
    acc = 0.0
    # small NumPy kernels with dict work, as in the controllers' decides
    v = _START.copy()
    for i in range(24):
        v = _MATRIX @ v
        v /= v.sum()
        q = _GAINS * v[:, None]
        best = q.argmax(axis=1)
        v = np.clip(v + 1e-3 * np.take_along_axis(q, best[:, None], 1)[:, 0], 0.0, 1.0)
        table = {k: k * 3 + i for k in range(96)}
        acc += sum(x for x in table.values() if x & 1)
    # the interpreter alone
    for _ in range(3):
        for record in _RECORDS:
            acc += record["a"] + record["b"][1]
    # per-call overhead of NumPy on tiny arrays
    for a in _TINY:
        for _ in range(6):
            b = np.maximum(a, 0.5)
            acc += float(np.dot(b, a))
            a = np.where(b > 0.7, a, b)
    return time.thread_time() - start


class SpeedLog:
    """Timed probe samples of one run, and the scale factors they give."""

    def __init__(self, nearest: int = NEAREST) -> None:
        #: (clock reading when the sample ended, probe seconds), in time order
        self.samples: List[Tuple[float, float]] = []
        self.nearest = nearest

    def sample(self, n: int = 1) -> None:
        """Take ``n`` probe samples now."""
        for _ in range(n):
            seconds = probe()
            self.samples.append((time.perf_counter(), seconds))

    def factor(self, start: float, end: float, nearest: int = 0) -> float:
        """``REFERENCE_S`` over the median of the ``nearest`` samples
        (``self.nearest`` by default) nearest to ``[start, end]``."""
        if not self.samples:
            raise RuntimeError("no host-speed sample was taken")
        nearest = nearest or self.nearest
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        # widen to the nearer neighbour on either side until enough
        while hi - lo < nearest and (lo > 0 or hi < len(times)):
            before = start - times[lo - 1] if lo > 0 else float("inf")
            after = times[hi] - end if hi < len(times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(s for _, s in self.samples[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the reference speed."""
        total = 0.0
        lo = start
        while lo < end:
            hi = min(end, lo + PIECE_S)
            total += (hi - lo) * self.factor(lo, hi)
            lo = hi
        return total
