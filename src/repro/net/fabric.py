"""The paper's testbed link: two directly-attached 200 Gbps servers
through one ToR.

These are the default attributes of every :class:`repro.topo.LinkSpec`,
so :func:`repro.topo.two_host` compiles to the paper's testbed: the
forward path (client data toward the server under test) is one
contended ToR egress, and the reverse path carries only ACKs as a fixed
delay.
"""

from __future__ import annotations

from ..sim.units import US, gbps

__all__ = ["DEFAULT_RATE", "DEFAULT_DELAY", "DEFAULT_BUFFER",
           "DEFAULT_ECN_THRESHOLD"]

#: Link bandwidth, bytes/ns (200 Gbps).
DEFAULT_RATE = gbps(200)
#: One-way propagation+switching delay, ns (calibrated against
#: perftest's ~1.5 µs RTT).
DEFAULT_DELAY = 0.6 * US
#: Switch egress buffer, bytes.
DEFAULT_BUFFER = 2_000_000
#: DCTCP marking threshold K, bytes.
DEFAULT_ECN_THRESHOLD = 300_000
