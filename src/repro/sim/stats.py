"""Measurement primitives: gauges, histograms, rate meters.

Counts (packets, bytes, misses...) are not here: a counter is a plain
float attribute on the component that owns it, initialised to ``0.0`` and
incremented in place (``self.rx_packets += 1``), which the audit ledger
reads as an ``(owner, "field")`` source. This module holds the metrics
that need more than a sum: time-weighted levels, windowed rates and
latency percentiles. Percentiles use an HDR-style log-linear-bucket
histogram: exact enough for P99.9 reporting at a bounded memory cost,
insensitive to sample count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

__all__ = [
    "TimeWeightedGauge",
    "Histogram",
    "HistogramSnapshot",
    "RateMeter",
    "percentile_from_counts",
]


class TimeWeightedGauge:
    """Tracks a level over time, yielding its time-weighted average and max.

    Typical use: IIO buffer occupancy, ring depth, credit level. Call
    :meth:`update` whenever the level changes.
    """

    def __init__(self, name: str = "", initial: float = 0.0, t0: float = 0.0):
        self.name = name
        self._level = initial
        self._t_last = t0
        self._t_start = t0
        self._area = 0.0
        self._max = initial
        self._min = initial

    @property
    def level(self) -> float:
        return self._level

    @property
    def max(self) -> float:
        return self._max

    @property
    def min(self) -> float:
        return self._min

    def update(self, now: float, level: float) -> None:
        if now < self._t_last:
            raise ValueError("TimeWeightedGauge updated backwards in time")
        self._area += self._level * (now - self._t_last)
        self._t_last = now
        self._level = level
        # Comparisons, not max()/min(): the same values (NaN included)
        # without two builtin calls per update.
        if level > self._max:
            self._max = level
        if level < self._min:
            self._min = level

    def adjust(self, now: float, delta: float) -> None:
        self.update(now, self._level + delta)

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean from construction until ``now``."""
        t_end = self._t_last if now is None else now
        span = t_end - self._t_start
        if span <= 0:
            return self._level
        area = self._area + self._level * (t_end - self._t_last)
        return area / span

    def __repr__(self) -> str:
        return f"TimeWeightedGauge({self.name!r}, level={self._level})"


class HistogramSnapshot:
    """A frozen copy of a histogram's bucket counts at one instant.

    Lets windowed samplers (repro.workloads.slo) compute percentiles over
    the *delta* since the last sample without resetting the histogram the
    measurement window owns.
    """

    __slots__ = ("counts", "count")

    def __init__(self, counts: List[int], count: int):
        self.counts = counts
        self.count = count


def percentile_from_counts(bounds: Sequence[float], counts: Sequence[int],
                           p: float) -> float:
    """Percentile over raw bucket counts (e.g. a snapshot delta).

    Returns the upper bound of the bucket holding the p-th percentile —
    without a per-window max to clamp to, this is a (tight) upper bound,
    which is the conservative direction for SLO checks. 0 when empty.
    """
    if not 0 <= p <= 100:
        raise ValueError("percentile p must be in [0, 100]")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = max(math.ceil(total * p / 100.0), 1)
    cum = 0
    for bound, n in zip(bounds, counts):
        cum += n
        if cum >= target:
            return bound
    return float(bounds[-1])


class Histogram:
    """Log-linear bucket histogram with percentile queries.

    Buckets are exact integers up to ``linear_limit`` then geometric with
    ``growth`` ratio. Values below ``lo`` clamp to the first bucket. Designed
    for latency samples in nanoseconds.
    """

    def __init__(self, name: str = "", lo: float = 1.0,
                 hi: float = 1e10, linear_limit: int = 128,
                 growth: float = 1.03):
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi")
        self.name = name
        bounds: List[float] = [float(i) for i in range(1, linear_limit + 1)]
        x = float(linear_limit)
        while x < hi:
            x *= growth
            bounds.append(x)
        self._bounds = bounds  # bucket i covers (bounds[i-1], bounds[i]]
        self._counts = [0] * len(bounds)
        self.count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def record(self, value: float, n: int = 1) -> None:
        if n <= 0:
            raise ValueError("record() needs n >= 1")
        idx = bisect_left(self._bounds, value)
        if idx >= len(self._counts):
            idx = len(self._counts) - 1
        self._counts[idx] += n
        self.count += n
        self._sum += value * n
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Return the upper bound of the bucket holding the p-th percentile.

        ``p`` is in [0, 100]. Returns 0 for an empty histogram.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile p must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100.0)
        target = max(target, 1)
        cum = 0
        for bound, n in zip(self._bounds, self._counts):
            cum += n
            if cum >= target:
                return min(bound, self._max)
        return self._max

    def percentiles(self, ps: Sequence[float]) -> Dict[float, float]:
        return {p: self.percentile(p) for p in ps}

    @property
    def bounds(self) -> List[float]:
        """Bucket upper bounds (shared by all default-built histograms)."""
        return self._bounds

    def snapshot(self) -> HistogramSnapshot:
        """Freeze current bucket counts for later delta queries."""
        return HistogramSnapshot(list(self._counts), self.count)

    def delta_counts(self, since: Optional[HistogramSnapshot]) -> List[int]:
        """Bucket counts accumulated since ``since`` (None = all)."""
        if since is None:
            return list(self._counts)
        return [c - s for c, s in zip(self._counts, since.counts)]

    def merge(self, other: "Histogram") -> None:
        if len(other._counts) != len(self._counts):
            raise ValueError("cannot merge histograms with different buckets")
        for i, n in enumerate(other._counts):
            self._counts[i] += n
        self.count += other.count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, n={self.count}, "
                f"mean={self.mean:.1f})")


class RateMeter:
    """Windowed rate estimator (events or bytes per nanosecond).

    Keeps per-window sums; :meth:`rate` reports the average over the most
    recent complete windows. Used for NIC-core throughput monitoring and
    the HostCC PCIe-bandwidth signal.
    """

    def __init__(self, name: str = "", window: float = 10_000.0,
                 keep: int = 8):
        if window <= 0 or keep < 1:
            raise ValueError("window must be > 0 and keep >= 1")
        self.name = name
        self.window = window
        self.keep = keep
        self._cur_start = 0.0
        self._cur_sum = 0.0
        self._history: Deque[float] = deque(maxlen=keep)
        self.total = 0.0

    def _roll(self, now: float) -> None:
        """Close every complete window before ``now``.

        The advance is arithmetic, not a per-window loop: a meter first
        queried after a long idle gap (e.g. a drained link probed at the
        end of a run) pays O(keep), not O(gap / window).
        """
        gap = int((now - self._cur_start) // self.window)
        if gap <= 0:
            return
        history = self._history
        if gap > self.keep:
            # The current sum and everything retained would be pushed out
            # by the empty windows in between.
            history.clear()
            history.extend([0.0] * self.keep)
        else:
            history.append(self._cur_sum)
            if gap > 1:
                history.extend([0.0] * (gap - 1))
        self._cur_sum = 0.0
        self._cur_start += gap * self.window

    def record(self, now: float, amount: float = 1.0) -> None:
        self._roll(now)
        self._cur_sum += amount
        self.total += amount

    def rate(self, now: float) -> float:
        """Average rate per ns over retained complete windows."""
        self._roll(now)
        if not self._history:
            elapsed = now - self._cur_start
            return self._cur_sum / elapsed if elapsed > 0 else 0.0
        return sum(self._history) / (len(self._history) * self.window)

    def mean_rate(self, now: float) -> float:
        return self.total / now if now > 0 else 0.0

