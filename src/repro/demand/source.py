"""The open-loop demand source: drives a transport sender from a lazy
arrival-timestamp iterator.

Where :class:`repro.net.source.OpenLoopSource` offers a fixed Poisson
rate, :class:`DemandSource` follows any arrival process from
:mod:`repro.demand.arrivals` — time-varying profiles, heavy-tailed
sessions — submitting one application message per arrival timestamp.
Timestamps are interpreted relative to the source's start (plus the
scenario's stagger delay), mirroring how a real load generator replays a
trace from its own t=0.

Open-loop semantics: submission never waits for completions. Under
overload the sender-side backlog grows, and because latency for
demand-driven flows is measured from *submission* (see
``FlowRx.latency_from_submit``), that queueing is visible in the tail
instead of being coordinated-omission'd away.
"""

from __future__ import annotations

from typing import Iterator

from ..net.dctcp import DctcpSender
from ..net.packet import Flow
from ..sim import Interrupt, Simulator

__all__ = ["DemandSource"]


class DemandSource:
    """Submit one message per timestamp of a lazy arrival iterator."""

    def __init__(self, sim: Simulator, sender: DctcpSender,
                 arrivals: Iterator[float]):
        self.sim = sim
        self.sender = sender
        self.arrivals = arrivals
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
        self._proc = self.sim.process(self._loop(delay), name="demand-src")

    def stop(self) -> None:
        self._running = False
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stop")

    def _loop(self, delay: float = 0.0):
        try:
            if delay > 0:
                yield delay
            origin = self.sim.now
            for t in self.arrivals:
                due = origin + t
                wait = due - self.sim.now
                if wait > 0:
                    yield wait
                if not self._running:
                    return
                self.sender.submit_message(self.flow.make_message())
                self.messages_submitted += 1
        except Interrupt:
            return
