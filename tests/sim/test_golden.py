"""Golden-trace determinism tests for the DES kernel.

The hot-path refactor (allocation-free scheduling, ``yield <float>``,
``call_later``) must not change simulation *results*: identical seeds must
produce identical event ordering, end to end. These tests pin that down
with digests captured on the pre-refactor kernel:

- a packet-level dctcp/link trace (every delivery at the switch egress,
  timestamped), exercising processes, timeouts, stores, and ``schedule``;
- a reduced fig09 simulation point (the full NIC-PCIe-LLC-CPU stack),
  executed through the runner at ``--jobs 1`` and ``--jobs 4``.

If an engine change breaks one of these on purpose (a deliberate
semantics change), recapture with::

    PYTHONPATH=src python tests/sim/test_golden.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.net import (DctcpConfig, DctcpSender, Flow, FlowKind, Message,
                       SwitchPort)
from repro.runner import RunnerOptions, execute_points
from repro.runner.sweep import make_point, run_points_serial
from repro.sim import Simulator
from repro.sim.units import US, gbps

# Digests captured on the pre-refactor kernel (commit 7ba11d2). The
# refactored kernel must reproduce them byte for byte.
#
# Verified unchanged by the RNG-discipline migration (HostCC/ShRing now
# draw from RngRegistry named streams instead of the module-level
# ``random``): the dctcp/link trace never touches an architecture, and
# the pinned fig09 point runs CEIO — whose quick configuration never
# draws the ``ceio.mark`` stream and runs a single flow, so the sorted
# set-iteration fixes are order-equivalent there too. Re-pin only for a
# deliberate semantics change.
GOLDEN_DCTCP_LINK = \
    "7b578ae85eab4505fe3dd1c9a3624ee49d3a576b7b2dc889175b7b4b04698914"
GOLDEN_FIG09_POINT = \
    "d37fb2b8d9da080ec63e75bb6149d6226a2901e9b052b8c18f189b39c7e5fb07"

#: The reduced fig09 point: one panel, one arch, one size, quick mode.
FIG09_PARAMS = {"panel": "erpc-dpdk", "transport": "dpdk", "bypass": False,
                "arch": "ceio", "size": 144, "quick": True}
FIG09_SEED = 7
FIG09_FN = "repro.experiments.fig09:run_point"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def dctcp_link_trace_digest() -> str:
    """Two DCTCP senders through an ECN-marking switch port; digest every
    delivery and every ACK-driven cwnd change."""
    sim = Simulator()
    trace = []

    config = DctcpConfig()
    # Explicit flow ids: the global flow-id counter depends on what ran
    # earlier in the process, and the digest must not.
    flows = [Flow(FlowKind.CPU_INVOLVED, message_payload=1000,
                  flow_id=990_001 + i) for i in range(2)]
    senders = {}

    def deliver(packet):
        trace.append(f"rx t={sim.now!r} f={packet.flow.flow_id} "
                     f"seq={packet.seq} size={packet.size} "
                     f"ecn={packet.ecn_marked}")
        sender = senders[packet.flow.flow_id]
        seq, marked = packet.seq, packet.ecn_marked
        # Reverse path: fixed-delay ACK, like HostEndpoint.ack().
        sim.schedule(600.0, lambda: sender.on_ack(seq, marked))

    port = SwitchPort(sim, rate=gbps(200), propagation=0.6 * US,
                      deliver=deliver, buffer_bytes=60_000,
                      ecn_threshold=15_000, name="tor")
    for flow in flows:
        sender = DctcpSender(sim, flow, port.send, config)
        senders[flow.flow_id] = sender
        sender.submit_message(Message(1000, count=200))
    sim.run(until=200 * US)
    trace.append(f"end now={sim.now!r} "
                 f"tx={port.tx_packets.value!r} "
                 f"marked={port.marked_packets.value!r} "
                 f"dropped={port.dropped_packets.value!r}")
    for fid, sender in sorted(senders.items()):
        trace.append(f"sender f={fid} cwnd={sender.cwnd!r} "
                     f"alpha={sender.alpha!r}")
    return _digest(trace)


def _fig09_point() -> "Point":
    return make_point("fig09", FIG09_FN, FIG09_PARAMS, FIG09_SEED,
                      FIG09_SEED, label="golden")


def fig09_point_digest(jobs: int = 0) -> str:
    """Digest of the reduced fig09 point's full metric dict.

    ``jobs=0`` runs in-process; otherwise through the worker pool.
    """
    if jobs == 0:
        results = run_points_serial([_fig09_point()])
    else:
        options = RunnerOptions(jobs=jobs, use_cache=False, quiet=True)
        results, failures = execute_points([_fig09_point()], options)
        assert not failures
    payload = json.dumps(results["fig09/golden"], sort_keys=True)
    return _digest([payload])


def test_dctcp_link_trace_matches_golden():
    assert dctcp_link_trace_digest() == GOLDEN_DCTCP_LINK


@pytest.mark.slow
def test_fig09_point_matches_golden_jobs_1():
    assert fig09_point_digest(jobs=1) == GOLDEN_FIG09_POINT


@pytest.mark.slow
def test_fig09_point_matches_golden_jobs_4():
    assert fig09_point_digest(jobs=4) == GOLDEN_FIG09_POINT


if __name__ == "__main__":  # recapture helper
    print(f"GOLDEN_DCTCP_LINK = \"{dctcp_link_trace_digest()}\"")
    print(f"GOLDEN_FIG09_POINT = \"{fig09_point_digest()}\"")
