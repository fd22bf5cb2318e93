"""Tests for the DPDK and RDMA framework shims."""

import pytest

from repro.frameworks import (
    CompletionQueue,
    EthDev,
    Mempool,
    QpType,
    RdmaEndpoint,
)
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def build_bed(arch_name="baseline"):
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)),
                        seed=5)
    arch = build_arch(arch_name, bed.host)
    bed.install_io_arch(arch)
    return bed, arch


def saturate(bed, flow, outstanding=16):
    SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                     outstanding=outstanding).start()


# ---------------------------------------------------------------------------
# Mempool
# ---------------------------------------------------------------------------

def test_mempool_alloc_free_cycle():
    pool = Mempool("p", capacity=4)
    assert pool.alloc(3)
    assert pool.in_use == 3
    assert not pool.alloc(2)
    assert pool.alloc_failures == 1
    pool.free(3)
    assert pool.available == 4


def test_mempool_free_clamps_to_capacity():
    pool = Mempool("p", capacity=2)
    pool.free(10)
    assert pool.available == 2


def test_mempool_capacity_validated():
    with pytest.raises(ValueError):
        Mempool("p", capacity=0)


# ---------------------------------------------------------------------------
# EthDev
# ---------------------------------------------------------------------------

def test_ethdev_rx_burst_and_free_roundtrip():
    bed, arch = build_bed()
    dev = EthDev(arch, Mempool("m", capacity=128))
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    bed.add_flow(flow)  # registers with arch
    saturate(bed, flow)
    bed.run(until=100 * US)

    def consumer(sim):
        records = yield from dev.rx_burst(flow, 16)
        return records

    records = []
    proc = bed.sim.process(consumer(bed.sim))
    while not proc.triggered:
        bed.sim.step()
    records = proc.value
    assert records
    assert dev.mempool.in_use == len(records)
    dev.free(records)
    assert dev.mempool.in_use == 0
    dev.tx_burst(len(records))
    assert dev.tx_packets == len(records)


def test_ethdev_rx_queue_setup_registers_flow():
    bed, arch = build_bed()
    dev = EthDev(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=1000)
    dev.rx_queue_setup(flow)
    assert flow.flow_id in arch.flows


# ---------------------------------------------------------------------------
# RDMA: CQ + endpoint reassembly
# ---------------------------------------------------------------------------

def test_cq_push_poll_fifo():
    bed, _ = build_bed()
    cq = CompletionQueue(bed.sim)
    cq.push("a")
    cq.push("b")
    assert cq.poll(1) == ["a"]
    assert cq.poll(8) == ["b"]
    assert cq.poll(8) == []


def test_cq_overflow_counted():
    bed, _ = build_bed()
    cq = CompletionQueue(bed.sim, depth=1)
    cq.push("a")
    cq.push("b")
    assert cq.overflows == 1


def test_cq_wait_blocks_until_completion():
    bed, _ = build_bed()
    cq = CompletionQueue(bed.sim)

    def waiter(sim):
        wc = yield from cq.wait()
        return wc, sim.now

    proc = bed.sim.process(waiter(bed.sim))
    bed.sim.call_later(500, lambda: cq.push("done"))
    bed.sim.run()
    assert proc.value == ("done", 500.0)


def test_endpoint_assembles_messages_into_completions():
    bed, arch = build_bed()
    cq = CompletionQueue(bed.sim)
    endpoint = RdmaEndpoint(arch, cq)
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1000,
                packets_per_message=4)
    bed.add_flow(flow)
    endpoint.create_qp(flow, QpType.RC)
    endpoint.start()
    saturate(bed, flow, outstanding=4)
    bed.run(until=150 * US)
    completions = cq.poll(64)
    assert completions
    for wc in completions:
        assert len(wc.records) == 4
        assert wc.byte_len == 4000
        assert wc.records[-1].packet.last_in_message
        seqs = [r.packet.seq for r in wc.records]
        assert seqs == sorted(seqs)
    assert endpoint.messages_completed >= len(completions)


def test_endpoint_destroy_qp_stops_service():
    bed, arch = build_bed()
    cq = CompletionQueue(bed.sim)
    endpoint = RdmaEndpoint(arch, cq)
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1000,
                packets_per_message=2)
    bed.add_flow(flow)
    qp = endpoint.create_qp(flow)
    assert flow.flow_id in endpoint.qps
    endpoint.destroy_qp(flow)
    assert flow.flow_id not in endpoint.qps
    qp.post_recv(8)
    assert qp.posted_recvs == 8


def test_negative_counts_rejected():
    bed, arch = build_bed()
    dev = EthDev(arch)
    with pytest.raises(ValueError, match="tx_burst"):
        dev.tx_burst(-1)
    assert dev.tx_packets == 0.0
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1000)
    bed.add_flow(flow)
    qp = RdmaEndpoint(arch, CompletionQueue(bed.sim)).create_qp(flow)
    with pytest.raises(ValueError, match="post_recv"):
        qp.post_recv(-2)
    assert qp.posted_recvs == 0.0
