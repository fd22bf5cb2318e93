"""Workload generators: message-size distributions and arrival processes.

Used by the open-loop scenarios and the thousand-flow churn experiment.
The long-tail size distribution follows the datacenter assumption the
paper's §4.1 design discussion leans on (most flows short, a few huge).
"""

from __future__ import annotations

import math
import random
from typing import Iterator, List

__all__ = ["FixedSize", "UniformSize", "LognormalSize", "LongTailSize",
           "poisson_arrival_times", "poisson_arrivals",
           "pareto_burst_lengths"]


class FixedSize:
    """Every message has the same payload."""

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size

    def sample(self, rng: random.Random) -> int:
        return self.size

    def mean(self) -> float:
        return float(self.size)


class UniformSize:
    def __init__(self, lo: int, hi: int):
        if not 0 < lo <= hi:
            raise ValueError("need 0 < lo <= hi")
        self.lo = lo
        self.hi = hi

    def sample(self, rng: random.Random) -> int:
        return rng.randint(self.lo, self.hi)

    def mean(self) -> float:
        return (self.lo + self.hi) / 2


class LognormalSize:
    """Log-normal payloads clamped to [lo, hi] (RPC-ish)."""

    def __init__(self, median: float, sigma: float = 0.8,
                 lo: int = 64, hi: int = 9000):
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        self.mu = math.log(median)
        self.sigma = sigma
        self.lo = lo
        self.hi = hi

    def sample(self, rng: random.Random) -> int:
        value = int(rng.lognormvariate(self.mu, self.sigma))
        return max(self.lo, min(self.hi, value))

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma ** 2 / 2)


class LongTailSize:
    """Two-point long-tail mix: mostly small, occasionally huge.

    ``p_large`` of messages are ``large`` bytes; the rest are ``small``.
    A crude but controllable stand-in for the pFabric web-search CDF.
    """

    def __init__(self, small: int = 512, large: int = 1 << 20,
                 p_large: float = 0.05):
        if not 0 <= p_large <= 1:
            raise ValueError("p_large must be a probability")
        self.small = small
        self.large = large
        self.p_large = p_large

    def sample(self, rng: random.Random) -> int:
        return self.large if rng.random() < self.p_large else self.small

    def mean(self) -> float:
        return self.p_large * self.large + (1 - self.p_large) * self.small


def poisson_arrival_times(rng: random.Random, rate_per_ns: float,
                          horizon: float) -> Iterator[float]:
    """Lazily yield the arrival timestamps of a Poisson process on
    [0, horizon).

    One ``expovariate`` draw per arrival, in timestamp order — the exact
    draw sequence the old list-building implementation used, so existing
    seeds reproduce identical schedules. Being a generator, a
    million-event horizon costs O(1) memory instead of materialising the
    whole list up front (the :mod:`repro.demand` layer builds on the
    same idiom with time-varying rates).
    """
    if rate_per_ns <= 0:
        raise ValueError("rate must be positive")
    t = rng.expovariate(rate_per_ns)
    while t < horizon:
        yield t
        t += rng.expovariate(rate_per_ns)


def poisson_arrivals(rng: random.Random, rate_per_ns: float,
                     horizon: float) -> List[float]:
    """Arrival timestamps of a Poisson process on [0, horizon).

    List-returning shim over :func:`poisson_arrival_times` for call
    sites that index or len() the schedule; new code should iterate the
    lazy form directly.
    """
    return list(poisson_arrival_times(rng, rate_per_ns, horizon))


def pareto_burst_lengths(rng: random.Random, count: int,
                         mean_packets: float = 32.0,
                         shape: float = 1.5) -> List[int]:
    """Heavy-tailed burst lengths (packets per burst) with a given mean."""
    if shape <= 1:
        raise ValueError("shape must exceed 1 for a finite mean")
    scale = mean_packets * (shape - 1) / shape
    return [max(1, int(scale / (rng.random() ** (1 / shape))))
            for _ in range(count)]
