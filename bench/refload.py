"""A fixed reference load, timed between operations to track the CPU rate.

The machine's speed drifts by 15-20% over tens of seconds, more than the
differences the benchmark must resolve.  Every raw time is therefore
rescaled by the ratio of the reference load's nominal time to its time
measured around that moment.  The load is pure-Python integer arithmetic
and small-object work, like the program's own work, but it never calls
into `taut`, so no change to the program can make it faster or slower.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# Seconds one reference load takes at reference speed.  Fixed once, on the
# machine the README names; it only sets the unit of the scaled figures.
NOMINAL_S = 0.0035

# Reference samples within this many seconds of an operation set its scale.
WINDOW_S = 0.25


class _Pair:
    """A pair of integers read as a + b*phi, phi the golden ratio's conjugate."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def minus(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a - other.a, self.b - other.b)

    def sign(self) -> int:
        u, v = 2 * self.a - self.b, self.b      # 2(a + b*phi) = u + v*sqrt(5)
        if (u >= 0) == (v >= 0):
            return (u > 0 or v > 0) - (u < 0 or v < 0)
        if u * u > 5 * v * v:
            return 1 if u > 0 else -1
        return 1 if v > 0 else -1


def _integer_walk() -> int:
    acc = 0
    for _ in range(10):
        a, b = 1, 0
        for i in range(300):
            a, b = b, a - b                   # big-integer Fibonacci walk
            if i % 4 == 0:
                acc ^= (a * a - a * b - b * b) & 0xFFFF
        items = [((i * 7919) % 1009, i, str(i)) for i in range(200)]
        items.sort()
        table = {key: name for key, _, name in items}
        acc += len(table)
    return acc


def _merge() -> int:
    """Merge two sorted lists of 500 pairs with exact sign tests."""
    xs = []
    a, b = 3, 1
    for i in range(500):
        if i % 200 == 0:
            a, b = 3 + i, 1
        a, b = a + b, a
        xs.append(_Pair(a * (i + 1), -b * i))
    ys = [_Pair(p.a + 7, p.b - 3) for p in xs]
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        if xs[i].minus(ys[j]).sign() <= 0:
            out.append(xs[i])
            i += 1
        else:
            out.append(ys[j])
            j += 1
    return len(out)


def reference_load() -> int:
    """Small-object and big-integer work in two shapes: a cache-resident
    integer walk and a table merge, whose sum tracks both the program's
    small-table and its large-table work better than either alone."""
    return _integer_walk() + _merge()


class Gauge:
    """Reference samples (time stamp, seconds) and the scale derived from them."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.stamps: list[float] = []
        self.times: list[float] = []
        self._last = -1e9

    def sample(self) -> None:
        t0 = perf_counter()
        reference_load()
        t1 = perf_counter()
        self.stamps.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample when at least every_s seconds passed since the last one."""
        if perf_counter() - self._last >= self.every_s:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """nominal / measured reference time around the interval [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + WINDOW_S)
        near = self.times[lo:hi]
        if len(near) < 3:
            mid = (t0 + t1) / 2
            i = bisect.bisect_left(self.stamps, mid)
            near = self.times[max(0, i - 2):i + 2]
        return NOMINAL_S / statistics.median(near)

    def speed(self) -> float:
        """Median nominal/measured ratio over the whole run (1.0 = reference)."""
        return NOMINAL_S / statistics.median(self.times)
