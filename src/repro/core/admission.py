"""Admission control / load shedding for open-loop overload (robustness).

Closed-loop clients self-limit: each outstanding request gates the next,
so queues are bounded by the window. Open-loop demand (repro.demand) keeps
arriving regardless of service rate, and any queue past the knee grows
without bound — along with the tail latency measured from submission.

The guardrail is deliberately simple (and deliberately *early*): before a
packet is steered, the NIC checks the flow's application-facing SW-ring
depth and its elastic slow-path backlog. Past either limit the packet is
**shed** — ACKed unmarked so the transport retires the message without
retransmitting or backing off; the loss is surfaced to the *application*
layer (goodput), not hidden in the congestion controller. That keeps the
standing queues (and p99.9+) bounded while the unguarded ablation's tail
diverges, at the cost of explicitly metered shed work.

Every decision is conserved by construction: ``offered == admitted +
shed`` at any instant, which the ``arch.admission`` ledger account checks
alongside the architecture-level ``offered == accepted + dropped + shed +
duplicates`` equation.
"""

from __future__ import annotations


__all__ = ["AdmissionController"]


class AdmissionController:
    """Per-packet admit/shed decisions driven by queue-depth signals."""

    def __init__(self, ring_limit: int, slow_bytes_limit: int):
        if ring_limit <= 0:
            raise ValueError("admission ring_limit must be positive")
        if slow_bytes_limit <= 0:
            raise ValueError("admission slow_bytes_limit must be positive")
        self.ring_limit = ring_limit
        self.slow_bytes_limit = slow_bytes_limit
        self.offered = 0.0
        self.admitted = 0.0
        self.shed = 0.0

    def admit(self, queue_depth: int, slow_bytes: int) -> bool:
        """Decide one packet. Counts the decision either way."""
        self.offered += 1
        if queue_depth >= self.ring_limit or slow_bytes >= self.slow_bytes_limit:
            self.shed += 1
            return False
        self.admitted += 1
        return True
