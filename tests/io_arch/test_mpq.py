"""Tests for the MPQ comparator — the §4.1 design alternative."""

from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.io_arch.mpq import MpqArch, MpqConfig
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def build_bed(config=None):
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)),
                        seed=7)
    arch = MpqArch(bed.host, config)
    bed.install_io_arch(arch)
    return bed, arch


def test_priority_decays_with_bytes():
    bed, arch = build_bed(MpqConfig(thresholds=[1000, 2000]))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=400)
    bed.add_flow(flow)
    assert arch.priority(flow.flow_id) == 0
    arch._bytes_sent[flow.flow_id] = 1500
    assert arch.priority(flow.flow_id) == 1
    arch._bytes_sent[flow.flow_id] = 99_999
    assert arch.priority(flow.flow_id) == 2


def test_continuous_flow_gets_demoted_like_paper_says():
    """The paper's objection: an RPC stream that never stops sending decays
    to low priority even though it is CPU-involved."""
    bed, arch = build_bed(MpqConfig(thresholds=[10_000],
                                    aging_period=100 * 1000 * US))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    bed.add_flow(flow)
    SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                     outstanding=16).start()
    bed.run(until=200 * US)
    assert arch.demotions >= 1
    assert arch.low_packets > 0
    assert arch.priority(flow.flow_id) > 0


def test_aging_resets_priorities():
    bed, arch = build_bed(MpqConfig(thresholds=[1000], aging_period=50_000))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=400)
    bed.add_flow(flow)
    arch._bytes_sent[flow.flow_id] = 5000
    assert arch.priority(flow.flow_id) == 1
    bed.run(until=60_000)
    assert arch.priority(flow.flow_id) == 0


def test_high_class_uses_ddio_low_class_uses_dram():
    bed, arch = build_bed(MpqConfig(thresholds=[5_000]))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    bed.add_flow(flow)
    SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                     outstanding=8).start()
    bed.run(until=200 * US)
    assert arch.high_packets > 0
    assert arch.low_packets > 0
    assert bed.host.dram.bytes_written > 0  # low class goes to DRAM
    assert 0.0 < arch.high_fraction() < 1.0


def test_mpq_registered():
    bed = host_endpoint()
    arch = build_arch("mpq", bed.host)
    assert isinstance(arch, MpqArch)
