"""Rate limiting built on the DES kernel.

:class:`TokenBucket` is a rate limiter replenishing tokens continuously
(PCIe wire serialisation, on-NIC memory bandwidth, HostCC's pacer).
The model's other waits — DRAM channels, PCIe posted-write credits,
completion queues — are private FIFO code next to their one user.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .engine import Event, Simulator, SimulationError

__all__ = ["TokenBucket"]


class TokenBucket:
    """A continuously-replenished token bucket used for rate limiting.

    Tokens accrue at ``rate`` units per nanosecond up to ``burst``. ``take``
    returns an event that fires once the requested tokens are available;
    requests are served FIFO so heavy askers cannot starve light ones.
    ``rate`` may be changed at any time (congestion control does this).

    Serving uses a small epsilon and the re-arm delay has a floor: without
    them, floating-point residue (a deficit of ~1e-13 tokens whose refill
    delay underflows below the clock's ULP at large timestamps) livelocks
    the simulation at a single instant.
    """

    #: Token comparison tolerance.
    EPSILON = 1e-6
    #: Minimum re-arm delay, ns.
    MIN_DELAY = 1e-3

    def __init__(self, sim: Simulator, rate: float, burst: float,
                 init: Optional[float] = None, name: str = ""):
        if rate < 0 or burst <= 0:
            raise SimulationError("TokenBucket needs rate >= 0 and burst > 0")
        self.sim = sim
        self._rate = rate
        self.burst = burst
        self.name = name
        self._tokens = burst if init is None else min(init, burst)
        self._stamp = sim.now
        self._waiters: Deque[tuple] = deque()  # (event, amount)
        #: Pending ``call_later`` handle for the armed wake-up, if any.
        self._wakeup: Optional[list] = None
        self._drain_cb = self._drain

    @property
    def rate(self) -> float:
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Change the replenish rate, settling accrued tokens first."""
        if rate < 0:
            raise SimulationError("rate must be non-negative")
        self._settle()
        self._rate = rate
        self._reschedule()

    @property
    def tokens(self) -> float:
        self._settle()
        return self._tokens

    def _settle(self) -> None:
        now = self.sim.now
        if now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self._rate)
            self._stamp = now

    def take(self, amount: float) -> Event:
        if amount <= 0:
            raise SimulationError("take() needs a positive amount")
        if amount > self.burst:
            raise SimulationError(
                f"cannot take {amount} from bucket with burst {self.burst}")
        ev = self.sim.event()
        self._settle()
        if not self._waiters and self._tokens + self.EPSILON >= amount:
            self._serve(amount)
            ev.succeed()
        else:
            self._waiters.append((ev, amount))
            self._reschedule()
        return ev

    def try_take(self, amount: float) -> bool:
        # _settle and _serve, inline: this is every posted write's wire.
        now = self.sim.now
        if now > self._stamp:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self._rate)
            self._stamp = now
        if self._waiters or self._tokens + self.EPSILON < amount:
            return False
        self._tokens = max(0.0, self._tokens - amount)
        return True

    def _serve(self, amount: float) -> None:
        self._tokens = max(0.0, self._tokens - amount)

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the head waiter."""
        if not self._waiters:
            return
        self._settle()
        _ev, amount = self._waiters[0]
        deficit = amount - self._tokens
        if deficit <= 0:
            delay = 0.0
        elif self._rate == 0:
            return  # paused; set_rate() will re-arm
        else:
            delay = max(deficit / self._rate, self.MIN_DELAY)
        if self._wakeup is not None:
            # Supersede the armed wake-up: O(1) in-place cancellation.
            self.sim.cancel(self._wakeup)
        self._wakeup = self.sim.call_later(delay, self._drain_cb)

    def _drain(self) -> None:
        self._wakeup = None
        self._settle()
        while self._waiters and self._tokens + self.EPSILON >= self._waiters[0][1]:
            ev, amount = self._waiters.popleft()
            self._serve(amount)
            ev.succeed()
        if self._waiters:
            self._reschedule()
