"""Unit tests for elastic-buffer accounting and the RED guard bands."""

import pytest

from repro.core import CeioConfig, ElasticBufferManager
from repro.hw import CacheConfig, Host, HostConfig
from repro.net import Flow, FlowKind
from repro.sim import Simulator


def build(config=None):
    sim = Simulator()
    host = Host(sim, HostConfig(cache=CacheConfig(size=256 * 1024)))
    manager = ElasticBufferManager(host, config or CeioConfig())
    return sim, host, manager


def _buffer(sim, manager, flow, seqs):
    def proc(sim):
        for seq in seqs:
            pkt = flow.make_message().packets(flow, seq)[0]
            ok = yield from manager.buffer_packet(pkt)
            assert ok

    sim.process(proc(sim))
    sim.run()


def test_buffering_accounts_bytes_and_memory():
    sim, host, manager = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    _buffer(sim, manager, flow, range(4))
    assert manager.slow_bytes(flow.flow_id) == 4 * 1042
    assert host.nic.memory.used == 4 * 1042
    assert manager.buffered_packets == 4


def test_mark_probability_zero_below_band():
    sim, host, manager = build(CeioConfig(cca_mark_min_bytes=8 * 1024))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    _buffer(sim, manager, flow, range(2))
    assert manager.mark_probability(flow.flow_id) == 0.0


def test_mark_probability_one_above_band():
    sim, host, manager = build(CeioConfig(cca_mark_min_bytes=1024,
                                          cca_mark_max_bytes=2048))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    _buffer(sim, manager, flow, range(4))
    assert manager.mark_probability(flow.flow_id) == 1.0


def test_bypass_band_is_deeper():
    config = CeioConfig()
    sim, host, manager = build(config)
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1024,
                packets_per_message=64)  # 64 KB messages: bulk class
    _buffer(sim, manager, flow, range(32))  # ~34 KB buffered
    # Above the latency-class band but below the bypass band: unmarked.
    assert manager.slow_bytes(flow.flow_id) > config.cca_mark_max_bytes
    assert manager.mark_probability(flow.flow_id) == 0.0


def test_small_message_bypass_gets_latency_band():
    config = CeioConfig()
    sim, host, manager = build(config)
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=512,
                packets_per_message=2)  # 1 KB messages: latency class
    _buffer(sim, manager, flow, range(70))  # ~38 KB
    assert manager.mark_probability(flow.flow_id) == 1.0


def test_unknown_flow_mark_probability_zero():
    sim, host, manager = build()
    assert manager.mark_probability(12345) == 0.0


def test_on_nic_memory_exhaustion_counts_overflow():
    sim = Simulator()
    from repro.hw import NicConfig
    host = Host(sim, HostConfig(cache=CacheConfig(size=256 * 1024),
                                nic=NicConfig(memory_size=2048)))
    manager = ElasticBufferManager(host, CeioConfig())
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1500)

    results = []

    def proc(sim):
        for seq in range(3):
            pkt = flow.make_message().packets(flow, seq)[0]
            ok = yield from manager.buffer_packet(pkt)
            results.append(ok)

    sim.process(proc(sim))
    sim.run()
    assert results == [True, False, False]
    # The manager reports overflow; the caller decides spill-vs-drop and
    # owns slow_drops.
    assert manager.overflow_events == 2
    assert manager.slow_drops == 0


def test_chaos_tracks_concurrently_buffered_flows():
    sim, host, manager = build()
    assert manager._chaos() == 0.0
    flows = [Flow(FlowKind.CPU_INVOLVED, message_payload=500)
             for _ in range(4)]
    for flow in flows:
        _buffer(sim, manager, flow, range(1))
    assert manager._active_buffered == 4
    assert manager._chaos() == pytest.approx(4 / manager.CHAOS_FLOWS)
    # Effective on-NIC bandwidth reduced accordingly.
    nominal = host.nic.memory.config.memory_bandwidth
    assert host.nic.memory._bandwidth.rate < nominal
