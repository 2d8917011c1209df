"""The machine's speed, read from a fixed reference kernel run between timings.

A shared host runs the same code at speeds up to about 2x apart, changing
over seconds, so the mean speed over a 30-second run differs from run to
run by 10 to 20%, and every timing of a run moves with it. A pure-Python
kernel that never touches ``lcs_enum``, timed every ``EVERY_S`` seconds
between the program's timed calls, moves the same way: over 3-second
windows the program's mean time divided by the kernel's spread 0.03 where
the program's time alone spread 0.12 to 0.15.

So a timing is reported at a nominal speed: its wall-clock seconds times
``NOMINAL_S`` over the kernel's time measured around it, the mean of the
kernel samples from ``AROUND_S`` before its start to ``AROUND_S`` after
its end, and at least the two nearest on each side. The window matters
for child processes: scaled by the kernel samples at the very edges of
a 3-second CLI run, twelve runs spread 0.16, no better than unscaled;
with the mean over 0.5 s on each side they spread 0.08, while the 4 ms
first outputs kept their 0.02. Wider windows helped the CLI little and
let the first outputs spread 0.04 to 0.06. On a machine where the
kernel takes ``NOMINAL_S``, a scaled timing equals the wall clock. A
change to the program moves its timings and not the kernel's, so it
shows in full.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right

Sample = tuple[float, float]   # (perf_counter at start, seconds)

NOMINAL_S = 300e-6   # the kernel's time at the speed timings are reported at
EVERY_S = 0.05       # least time between two kernel samples
AROUND_S = 0.5       # kernel samples this close to a timing scale it
_REPS = 3            # kernel calls per sample

_X = "abcd" * 160
_Y = "dcba" * 160


def kernel() -> int:
    """String scans, tuple building and dict updates, as the enumerator does."""
    acc = 0
    found = []
    for i in range(len(_X)):
        j = _Y.find(_X[i], i // 2)
        if j >= 0:
            acc += j
            found.append((i, j))
    counts: dict = {}
    for i, j in found:
        counts[i] = counts.get(j, 0) + 1
    return acc + len(counts)


class Speedometer:
    """Kernel samples over a run, and timings scaled by them."""

    def __init__(self):
        self.at: list[float] = []       # midpoint of each kernel sample
        self.kernel_s: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        clock = time.perf_counter
        t0 = clock()
        for _ in range(_REPS):
            kernel()
        t1 = clock()
        self.at.append((t0 + t1) / 2)
        self.kernel_s.append((t1 - t0) / _REPS)
        self._last = t1

    def maybe_tick(self) -> None:
        """Take a kernel sample if ``EVERY_S`` has passed since the last."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.tick()

    def scaled(self, sample: Sample) -> float:
        """The sample's seconds at the nominal speed."""
        start, seconds = sample
        end = start + seconds
        lo = min(bisect_left(self.at, start - AROUND_S),
                 bisect_left(self.at, start) - 2)
        hi = max(bisect_right(self.at, end + AROUND_S),
                 bisect_right(self.at, end) + 2)
        near = self.kernel_s[max(lo, 0):hi]
        return seconds * NOMINAL_S * len(near) / sum(near)


def wall(sample: Sample) -> float:
    """The sample's wall-clock seconds, unscaled."""
    return sample[1]
