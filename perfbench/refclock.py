"""A reference clock that runs beside the measured code, so that timings
can be read in units of what the same core did at the same moments.

On a shared host the speed of a core swings by tens of percent for
seconds to minutes, and a slowdown hits every Python program on the core.
While a ``RefClock`` is started, SIGALRM interrupts the measured code every
``INTERVAL`` seconds and times one call of ``reference_loop``: a fixed
breadth-first girth computation on the bitmask rows of a 16-vertex cubic
graph, written here so that it does not change with girthlab but runs the
same kind of Python (bit tricks on small ints, list indexing, a
generator).  A timing divided by the mean duration of the reference calls
taken around it is in "ref" units: how many reference calls the same time
would have held.  The reference calls' own time is kept in ``spent`` and
is subtracted from every timing by the caller.

Why this loop: over 13 rounds of the three workloads on a 2-core Xeon VM
whose speed swung by 20-25 % meanwhile, the logarithm of an operation's
time against that of the mean reference call had a slope of 0.9 to 1.1
for this loop, 1.1 to 1.3 for a bare loop of bit operations, and about
0.5 for a walk through a large list; per-operation spread in ref units
was 0.045-0.057 with this loop, 0.064-0.071 with the bit-operation loop.
"""
from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.04       # seconds between two reference samples
ROUNDS = 3            # girth computations per call: about 1 ms on a 2-core Xeon VM

# A cycle on 16 vertices plus the chords {i, i + 5} for even i: cubic.
_N = 16
_ROWS = [0] * _N
for _i in range(_N):
    for _j in (_i + 1, _i - 1, _i + 5 if _i % 2 == 0 else _i - 5):
        _ROWS[_i] |= 1 << (_j % _N)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_loop(rounds: int = ROUNDS) -> int:
    best = 0
    for _ in range(rounds):
        best = _N + 1
        for root in range(_N):
            depth = [-1] * _N
            parent = [-1] * _N
            depth[root] = 0
            queue = [root]
            head = 0
            while head < len(queue):
                v = queue[head]
                head += 1
                for w in _bits(_ROWS[v]):
                    if depth[w] < 0:
                        depth[w] = depth[v] + 1
                        parent[w] = v
                        queue.append(w)
                    elif w != parent[v]:
                        best = min(best, depth[v] + depth[w] + 1)
    return best


class RefClock:
    def __init__(self):
        self.times: list[float] = []       # start of each sample (perf_counter)
        self.durations: list[float] = []
        self.spent = 0.0                   # seconds spent in reference calls
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # A short untimed call first brings the loop back into the caches
        # the measured code had taken over; the sample is the speed of the
        # core, not of refilling its caches.
        entered = time.perf_counter()
        reference_loop(1)
        started = time.perf_counter()
        reference_loop()
        ended = time.perf_counter()
        self.times.append(started)
        self.durations.append(ended - started)
        self.spent += ended - entered

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def unit(self, start: float, end: float, pad: float = 0.0) -> float:
        """Mean duration of the samples taken in [start - pad, end + pad];
        the window is widened until it holds at least 8 samples."""
        if not self.times:
            raise RuntimeError("the reference clock took no samples")
        while True:
            lo = bisect.bisect_left(self.times, start - pad)
            hi = bisect.bisect_right(self.times, end + pad)
            if hi - lo >= min(8, len(self.times)):
                window = self.durations[lo:hi]
                return sum(window) / len(window)
            pad = max(2 * pad, INTERVAL)
