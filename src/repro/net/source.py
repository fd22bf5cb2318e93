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
    Each of the ``outstanding`` slots is a callback chain: the sender
    calls :meth:`_completed` at completion, which submits the next.
    """

    def __init__(self, sim: Simulator, sender: DctcpSender,
                 outstanding: int = 8):
        self.sim = sim
        self.sender = sender
        self.outstanding = outstanding
        self.messages_completed = 0.0
        self._running = False
        # Bound once: every submission hands it to the sender.
        self._completed = self._completed  # type: ignore[method-assign]

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
        for _ in range(self.outstanding):
            self.sim.call_later(0.0, self._begin, delay)

    def stop(self) -> None:
        self._running = False

    def _begin(self, delay: float) -> None:
        if delay > 0:
            self.sim.call_later(delay, self._submit)
        else:
            self._submit()

    def _submit(self) -> None:
        if self._running:
            sender = self.sender
            sender.submit_message(sender.flow.make_message(),
                                  self._completed)

    def _completed(self, _message) -> None:
        self.messages_completed += 1
        self._submit()


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
