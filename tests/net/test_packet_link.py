"""Unit tests for packets, messages, links, and the ECN switch port."""

import pytest

from repro.net import ETHERNET_OVERHEAD, Flow, FlowKind, Link, Message, SwitchPort
from repro.sim import Simulator


def make_flow(**kwargs):
    defaults = dict(kind=FlowKind.CPU_INVOLVED, message_payload=1024)
    defaults.update(kwargs)
    return Flow(**defaults)


# ---------------------------------------------------------------------------
# Packet / Message / Flow
# ---------------------------------------------------------------------------

def test_packet_size_includes_framing():
    flow = make_flow()
    msg = Message(payload=1024, count=1)
    pkt = msg.packets(flow, seq_start=0)[0]
    assert pkt.size == 1024 + ETHERNET_OVERHEAD
    assert pkt.payload == 1024


def test_message_packets_sequence_and_last_marker():
    flow = make_flow()
    msg = Message(payload=512, count=4)
    pkts = msg.packets(flow, seq_start=10)
    assert [p.seq for p in pkts] == [10, 11, 12, 13]
    assert [p.last_in_message for p in pkts] == [False, False, False, True]
    assert all(p.message_id == msg.message_id for p in pkts)
    assert msg.total_bytes == 2048


def test_message_validation():
    with pytest.raises(ValueError):
        Message(payload=0, count=1)
    with pytest.raises(ValueError):
        Message(payload=64, count=0)


def test_flow_ids_unique_and_kinds():
    f1, f2 = make_flow(), make_flow(kind=FlowKind.CPU_BYPASS)
    assert f1.flow_id != f2.flow_id
    assert f1.is_cpu_involved
    assert not f2.is_cpu_involved


def test_flow_make_message_uses_flow_shape():
    flow = make_flow(message_payload=256, packets_per_message=8)
    msg = flow.make_message()
    assert msg.payload == 256
    assert msg.count == 8


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_serialisation_and_propagation():
    sim = Simulator()
    arrivals = []
    link = Link(sim, rate=1.0, propagation=100.0,
                deliver=lambda p: arrivals.append((p, sim.now)))
    flow = make_flow()
    pkt = Message(58, 1).packets(flow, 0)[0]  # size 100
    link.send(pkt)
    sim.run()
    assert len(arrivals) == 1
    # 100 bytes at 1 B/ns + 100 ns propagation.
    assert arrivals[0][1] == pytest.approx(200.0)


def test_link_fifo_back_to_back():
    sim = Simulator()
    arrivals = []
    link = Link(sim, rate=10.0, propagation=0.0,
                deliver=lambda p: arrivals.append((p.seq, sim.now)))
    flow = make_flow()
    for pkt in Message(58, 3).packets(flow, 0):
        link.send(pkt)
    sim.run()
    assert [seq for seq, _t in arrivals] == [0, 1, 2]
    times = [t for _s, t in arrivals]
    assert times[1] - times[0] == pytest.approx(10.0)  # 100B / 10B/ns


def test_link_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        Link(Simulator(), rate=0, propagation=0)


# ---------------------------------------------------------------------------
# SwitchPort
# ---------------------------------------------------------------------------

def _mk_pkts(n, payload=958):
    flow = make_flow()
    return Message(payload, n).packets(flow, 0)  # each 1000B


def test_switch_marks_above_threshold():
    sim = Simulator()
    got = []
    port = SwitchPort(sim, rate=1.0, propagation=0.0,
                      deliver=got.append, buffer_bytes=100_000,
                      ecn_threshold=2_000)
    for pkt in _mk_pkts(5):
        port.send(pkt)
    sim.run()
    assert len(got) == 5
    # Packets enqueued while queue > 2000B get CE-marked.
    assert sum(p.ecn_marked for p in got) == 2
    assert port.marked_packets == 2


def test_switch_tail_drop_when_full():
    sim = Simulator()
    got = []
    port = SwitchPort(sim, rate=1.0, propagation=0.0,
                      deliver=got.append, buffer_bytes=2_500,
                      ecn_threshold=10_000)
    for pkt in _mk_pkts(5):
        port.send(pkt)
    sim.run()
    assert len(got) == 2
    assert port.dropped_packets == 3


def test_switch_queue_gauge_tracks_occupancy():
    sim = Simulator()
    port = SwitchPort(sim, rate=1.0, propagation=0.0,
                      deliver=lambda p: None, buffer_bytes=100_000,
                      ecn_threshold=100_000)
    for pkt in _mk_pkts(3):
        port.send(pkt)
    assert port.queued_bytes == 3000
    sim.run()
    assert port.queued_bytes == 0
    assert port.queue_gauge.max == 3000
