"""Traffic sources driving DCTCP senders.

Sources model the client side of the testbed: client threads that keep the
server saturated (closed loop) or offer load at a given rate (open loop).
Both support ``start``/``stop`` so scenario scripts (§2.3's dynamic flow
distribution and network burst) can swap flows at runtime.
"""

from __future__ import annotations

from ..sim import Interrupt, Simulator
from .dctcp import DctcpSender
from .packet import Flow

__all__ = ["SaturatingSource", "OpenLoopSource"]


class SaturatingSource:
    """Closed-loop: keeps ``outstanding`` messages in flight per flow.

    A new message is submitted the moment one completes (all packets
    ACKed), which keeps the sender window-limited — the behaviour of a
    saturating benchmark client (dperf / perftest / eRPC load generator).
    """

    def __init__(self, sim: Simulator, sender: DctcpSender,
                 outstanding: int = 8):
        self.sim = sim
        self.sender = sender
        self.outstanding = outstanding
        self.messages_completed = 0.0
        self._running = False
        self._loops = []

    @property
    def flow(self) -> Flow:
        return self.sender.flow

    def start(self, delay: float = 0.0) -> None:
        """Begin issuing messages, optionally after ``delay`` ns.

        Real benchmark client threads do not start in lockstep; scenario
        builders stagger their sources to avoid artificial synchronised
        slow-start bursts.
        """
        if self._running:
            return
        self._running = True
        for i in range(self.outstanding):
            self._loops.append(
                self.sim.process(self._loop(delay), name="sat-src"))

    def stop(self) -> None:
        self._running = False

    def _loop(self, delay: float = 0.0):
        if delay > 0:
            yield delay
        while self._running:
            done = self.sender.submit_message(self.flow.make_message())
            yield done
            self.messages_completed += 1


class OpenLoopSource:
    """Open-loop: submits messages at exponential (Poisson) intervals."""

    def __init__(self, sim: Simulator, sender: DctcpSender,
                 rate_msgs_per_ns: float, rng,
                 jitter: bool = True):
        if rate_msgs_per_ns <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.sender = sender
        self.rate = rate_msgs_per_ns
        self.rng = rng
        self.jitter = jitter
        self.messages_submitted = 0.0
        self._running = False
        self._proc = None

    @property
    def flow(self) -> Flow:
        return self.sender.flow

    def start(self, delay: float = 0.0) -> None:
        if self._running:
            return
        self._running = True
        self._proc = self.sim.process(self._loop(delay), name="openloop-src")

    def stop(self) -> None:
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def _interval(self) -> float:
        mean = 1.0 / self.rate
        if not self.jitter:
            return mean
        return self.rng.expovariate(self.rate)

    def _loop(self, delay: float = 0.0):
        try:
            if delay > 0:
                yield delay
            while self._running:
                yield self._interval()
                if not self._running:
                    return
                self.sender.submit_message(self.flow.make_message())
                self.messages_submitted += 1
        except Interrupt:
            return
