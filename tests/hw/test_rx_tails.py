"""The NIC receive path's waiting tails.

``on_packet`` is a plain call: it returns None when a packet is placed
without waiting and otherwise the generator of the wait, which the NIC
firmware drives. Each seam that makes a packet wait — exhausted posted
credits, a busy PCIe wire, an armed ``dma_stall`` — must take that tail,
and every one of them, like a ``descriptor_drop`` (decided in the plain
call), must leave the counters, delivery times and calendar entries the
all-generator receive path left. The pinned values were captured on it.
"""

from __future__ import annotations

import pytest

from repro.hw import Host, HostConfig, PcieConfig
from repro.io_arch import LegacyDdioArch
from repro.net import Flow, FlowKind
from repro.net.packet import Packet
from repro.sim import Simulator


def _run(case: str):
    """Two flows, packets alternating between them 100 ns apart, into a
    baseline receiver; returns its counters and the number of packets
    whose ``on_packet`` returned a waiting tail."""
    sim = Simulator()
    if case == "credits":
        # Posted credits for one 1066 B write: the next waits for them.
        cfg = HostConfig(pcie=PcieConfig(posted_credits=2048))
        payload, n = 1024, 6
    elif case == "wire":
        # A 0.5 B/ns wire: the 128 KiB burst covers 13 jumbo writes.
        cfg = HostConfig(pcie=PcieConfig(bandwidth=0.5,
                                         posted_credits=1 << 20))
        payload, n = 8958, 20
    else:
        cfg = HostConfig()
        payload, n = 1024, 6
    host = Host(sim, cfg)
    arch = LegacyDdioArch(host)
    host.nic.install_handler(arch)
    flows = [Flow(FlowKind.CPU_INVOLVED, message_payload=payload)
             for _ in range(2)]
    for flow in flows:
        arch.register_flow(flow)
    if case == "stall":
        host.nic.dma.stall_until = 5_000.0
    if case == "drop":
        victim = flows[1].flow_id
        host.nic.dma.drop_filter = lambda write: write.flow_id == victim
    tails = []
    drive = sim.drive

    def counting_drive(generator, done, *args):
        tails.append(args)
        drive(generator, done, *args)

    sim.drive = counting_drive
    for i in range(n):
        sim.call_at(100.0 * i, host.nic.receive,
                    Packet(flows[i % 2], i // 2, payload))
    sim.run()
    dma, pcie = host.nic.dma, host.pcie
    return len(tails), {
        "handled": host.nic.handled_packets, "requests": dma.requests,
        "issued": dma.writes_issued, "dropped_writes": dma.dropped_writes,
        "pending": dma.pending_writes, "acquired": pcie.credits_acquired,
        "released": pcie.credits_released, "accepted": arch.rx_accepted,
        "dma_write_drops": arch.dma_write_drops,
        "delivered": [rx.delivered for rx in arch.flows.values()],
        "deliver_times": [record.deliver_time
                          for rx in arch.flows.values()
                          for record in rx.ring],
        "events": sim.events_executed, "now": sim.now,
    }


#: case -> (packets that took the waiting tail, the all-generator
#: path's counters).
EXPECTED = {
    "credits": (5, {
        "handled": 6.0, "requests": 6.0, "issued": 6.0,
        "dropped_writes": 0.0, "pending": 0, "acquired": 6396.0,
        "released": 6396.0, "accepted": 6.0, "dma_write_drops": 0.0,
        "delivered": [3.0, 3.0],
        "deliver_times": [315.66, 936.98, 1558.3000000000002, 626.32,
                          1247.64, 1868.9600000000003],
        "events": 31, "now": 1868.9600000000003}),
    "wire": (7, {
        "handled": 20.0, "requests": 20.0, "issued": 20.0,
        "dropped_writes": 0.0, "pending": 0, "acquired": 180000.0,
        "released": 180000.0, "accepted": 20.0, "dma_write_drops": 0.0,
        "delivered": [10.0, 10.0],
        "deliver_times": [395.0, 595.0, 795.0, 995.0, 1195.0, 1395.0,
                          1595.0, 34171.0, 73627.0, 113083.0, 495.0, 695.0,
                          895.0, 1095.0, 1295.0, 1495.0, 14443.0, 53899.0,
                          93355.0, 132811.0],
        "events": 96, "now": 132811.0}),
    # The stalled packet holds the one firmware pipeline until the
    # stall ends; the packets queued behind it then issue at once.
    "stall": (1, {
        "handled": 6.0, "requests": 6.0, "issued": 6.0,
        "dropped_writes": 0.0, "pending": 0, "acquired": 6396.0,
        "released": 6396.0, "accepted": 6.0, "dma_write_drops": 0.0,
        "delivered": [3.0, 3.0],
        "deliver_times": [5310.66, 5331.98, 5353.299999999999, 5321.32,
                          5342.639999999999, 5363.959999999999],
        "events": 27, "now": 5363.959999999999}),
    # A descriptor drop is decided in the plain call: no tail, and the
    # dropped writes never reach the wire.
    "drop": (0, {
        "handled": 6.0, "requests": 6.0, "issued": 3.0,
        "dropped_writes": 3.0, "pending": 0, "acquired": 3198.0,
        "released": 3198.0, "accepted": 6.0, "dma_write_drops": 3.0,
        "delivered": [3.0, 0.0],
        "deliver_times": [315.66, 515.66, 715.66],
        "events": 20, "now": 715.66}),
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_waiting_tail_keeps_the_generator_counters(case):
    assert _run(case) == EXPECTED[case]


def test_uncontended_packets_take_no_tail():
    """Free credits and a free wire: every packet is placed in the plain
    call, with no generator at all."""
    sim = Simulator()
    host = Host(sim)
    arch = LegacyDdioArch(host)
    host.nic.install_handler(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1024)
    arch.register_flow(flow)
    assert arch.on_packet(Packet(flow, 0, 1024)) is None
    assert host.nic.dma.writes_issued == 1
    assert arch.on_packet(Packet(flow, 0, 1024)) is None  # a duplicate
    assert arch.flows[flow.flow_id].duplicates == 1
