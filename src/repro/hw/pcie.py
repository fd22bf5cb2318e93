"""PCIe interconnect between the NIC and the host uncore.

Models the three properties the paper's data path depends on:

- **serialisation** — payload plus TLP framing crosses the wire at link
  bandwidth (shared by writes and read completions);
- **posted-write flow control** — writes consume credits returned only when
  the memory controller drains the IIO buffer, so a slow host back-pressures
  the NIC's DMA engine (the §2.2 CPU-bypass degradation mechanism);
- **read round-trips** — host-issued DMA reads of on-NIC memory pay the full
  round-trip latency (~1 µs, §3), the cost CEIO's slow path must amortise.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..sim import Simulator, TokenBucket
from ..sim.stats import RateMeter
from .config import PcieConfig

__all__ = ["PcieLink"]


class PcieLink:
    def __init__(self, sim: Simulator, config: PcieConfig):
        self.sim = sim
        self.config = config
        # Wire serialisation shared by all transactions.
        self._wire = TokenBucket(sim, rate=config.bandwidth,
                                 burst=max(128 * 1024, config.max_payload * 8),
                                 name="pcie.wire")
        #: Posted-write credits in payload bytes, and the writers waiting
        #: for credits in arrival order, as ``(event, amount)``.
        self.credits_available: float = config.posted_credits
        self._credit_waiters: Deque[tuple] = deque()
        self.bytes_written = 0.0
        self.bytes_read = 0.0
        self.bandwidth_meter = RateMeter("pcie.bw", window=10_000.0)
        # Conservation meters (repro.audit): acquired = released +
        # (capacity - level), i.e. no credit is ever minted or destroyed.
        self.credits_acquired = 0.0
        self.credits_released = 0.0
        #: Fault seam (repro.faults hw.pcie "latency"): extra in-flight
        #: nanoseconds added to every transaction; 0.0 when healthy.
        self.extra_latency = 0.0

    def utilization(self, now: float) -> float:
        """Recent wire utilisation (HostCC samples this)."""
        return min(1.0, self.bandwidth_meter.rate(now) / self.config.bandwidth)

    def acquire_write_credits(self, payload: int):
        """Process: wait for posted-write credits for ``payload`` bytes.

        Taken now only when nobody waits; otherwise the writer queues
        FIFO, so a large request at the head holds back smaller ones."""
        amount = min(payload, self.config.posted_credits)
        if self._credit_waiters or self.credits_available < amount:
            granted = self.sim.event()
            self._credit_waiters.append((granted, amount))
            yield granted
        else:
            self.credits_available -= amount
        self.credits_acquired += amount

    def release_write_credits(self, payload: int) -> None:
        """Credits return when the IIO entry drains (memctrl calls this).

        A release that would overflow the pool is refused; otherwise the
        waiters at the head are granted while the level covers them."""
        posted = self.config.posted_credits
        amount = payload if payload <= posted else posted
        level = self.credits_available + amount
        if level > posted:
            return
        waiters = self._credit_waiters
        if waiters:
            while waiters and level >= waiters[0][1]:
                granted, take = waiters.popleft()
                level -= take
                granted.succeed()
        self.credits_available = level
        self.credits_released += amount

    def try_write(self, payload: int) -> bool:
        """Take the posted credits and the wire for a ``payload``-byte
        write now, if both are free without waiting; True when taken.

        The credit test has no side effect, and the wire is looked at
        only once the credits are known to be free: exactly where
        :meth:`acquire_write_credits` followed by :meth:`write_issue`
        would settle the wire bucket, so a False leaves every float as
        those two would leave it at their first wait (settling the
        bucket again at the same instant is a no-op)."""
        posted = self.config.posted_credits
        amount = payload if payload <= posted else posted
        if self._credit_waiters or self.credits_available < amount:
            return False
        wire = self.config.wire_bytes(payload)
        if not self._wire.try_take(wire):
            return False
        self.credits_available -= amount
        self.credits_acquired += amount
        self.bytes_written += payload
        self.bandwidth_meter.record(self.sim.now, wire)
        return True

    def write_issue(self, payload: int):
        """Process: serialise a posted write onto the wire.

        Returns once the TLPs have been *issued*; the in-flight latency
        (:attr:`PcieConfig.write_latency`) is pipelined and paid by the
        caller via :meth:`write_latency_event`. Credit acquisition is not
        included — the DMA engine acquires credits before committing so a
        stalled host stalls the NIC visibly.
        """
        wire = self.config.wire_bytes(payload)
        if not self._wire.try_take(wire):
            yield self._wire.take(wire)
        self.bytes_written += payload
        self.bandwidth_meter.record(self.sim.now, wire)

    def write_latency_event(self):
        """One-way in-flight latency of a posted write, ns: a yieldable
        bare delay, or the ``call_later`` delay of the landing."""
        return self.config.write_latency + self.extra_latency

    def set_wire_rate(self, rate: float) -> None:
        """Fault seam (hw.pcie "stall"): retrain the link to ``rate``
        bytes/ns; restored to ``config.bandwidth`` when the window closes."""
        self._wire.set_rate(max(rate, 1e-9))

    def wire_take(self, payload: int):
        """Wire-serialisation event for an overlapped streaming transfer."""
        return self._wire.take(self.config.wire_bytes(payload))

    def account_read(self, payload: int) -> None:
        self.bytes_read += payload
        self.bandwidth_meter.record(self.sim.now,
                                    self.config.wire_bytes(payload))
