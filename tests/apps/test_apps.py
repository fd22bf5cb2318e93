"""Tests for the benchmark applications: KV store, eRPC, echo, LineFS,
dperf, perftest."""

import pytest

from repro.apps import (
    DperfClient,
    EchoServer,
    ErpcConfig,
    ErpcServer,
    KvStore,
    LineFsConfig,
    LineFsServer,
    SharedEchoServer,
    ib_write_bw,
    ib_write_lat,
)
from repro.apps.kvstore import kv_request_payload
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def build_bed(arch_name="baseline", llc=512 * 1024):
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=llc)), seed=9)
    arch = build_arch(arch_name, bed.host)
    bed.install_io_arch(arch)
    return bed, arch


def saturate(bed, flow, outstanding=16):
    src = SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                           outstanding=outstanding)
    src.start()
    return src


# ---------------------------------------------------------------------------
# KvStore
# ---------------------------------------------------------------------------

def test_kvstore_populated_and_real_ops():
    kv = KvStore(entries=100)
    assert len(kv) == 100
    key = KvStore._key(5)
    assert kv.get(key) is not None
    kv.put(key, b"x" * 64)
    assert kv.get(key) == b"x" * 64
    assert kv.hits.value == 2


def test_kvstore_get_miss_counted():
    kv = KvStore(entries=1)
    assert kv.get(b"missing-key-....") is None
    assert kv.misses.value == 1


def test_kvstore_handler_charges_cycles():
    kv = KvStore(entries=10)

    class Ctx:
        payload = 144
        record = None

    cycles = kv.handle(Ctx())
    assert cycles > KvStore.LOOKUP_CYCLES - 1
    assert kv.gets.value + kv.puts.value == 1


def test_kv_request_payload_matches_paper():
    # 16B key + 64B value + header = 144B (§6.1).
    assert kv_request_payload() == 144


# ---------------------------------------------------------------------------
# ErpcServer
# ---------------------------------------------------------------------------

def test_erpc_server_processes_and_accounts():
    bed, arch = build_bed()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=144)
    bed.add_flow(flow)
    core = bed.host.cpu.allocate()
    kv = KvStore()
    server = ErpcServer(arch, flow, core, kv.handle)
    server.start()
    saturate(bed, flow)
    bed.run(until=200 * US)
    rx = arch.flows[flow.flow_id]
    assert server.requests.value > 100
    assert rx.processed.value == server.requests.value
    assert rx.latency.count > 0
    assert core.busy_ns > 0


def test_erpc_rdma_transport_costs_more_cpu():
    results = {}
    for transport in ("dpdk", "rdma"):
        bed, arch = build_bed()
        flow = Flow(FlowKind.CPU_INVOLVED, message_payload=144)
        bed.add_flow(flow)
        core = bed.host.cpu.allocate()
        server = ErpcServer(arch, flow, core, lambda ctx: 100.0,
                            config=ErpcConfig(transport=transport))
        server.start()
        saturate(bed, flow, outstanding=64)
        bed.run(until=300 * US)
        results[transport] = server.requests.value
    assert results["dpdk"] > results["rdma"]


def test_erpc_rejects_unknown_transport():
    bed, arch = build_bed()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=144)
    bed.add_flow(flow)
    core = bed.host.cpu.allocate()
    with pytest.raises(ValueError):
        ErpcServer(arch, flow, core, lambda ctx: 0,
                   config=ErpcConfig(transport="smoke-signals"))


def test_erpc_stop_halts_processing():
    bed, arch = build_bed()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=144)
    bed.add_flow(flow)
    server = ErpcServer(arch, flow, bed.host.cpu.allocate(),
                        lambda ctx: 50.0)
    server.start()
    saturate(bed, flow)
    bed.run(until=100 * US)
    server.stop()
    bed.run(until=150 * US)
    count = server.requests.value
    bed.run(until=250 * US)
    assert server.requests.value == count


# ---------------------------------------------------------------------------
# Echo
# ---------------------------------------------------------------------------

def test_echo_server_echoes():
    bed, arch = build_bed()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
    bed.add_flow(flow)
    server = EchoServer(arch, flow, bed.host.cpu.allocate())
    server.start()
    saturate(bed, flow)
    bed.run(until=200 * US)
    assert server.echoed.value > 100


def test_shared_echo_server_serves_multiple_flows():
    bed, arch = build_bed()
    flows = []
    for i in range(3):
        flow = Flow(FlowKind.CPU_INVOLVED, message_payload=512)
        bed.add_flow(flow)
        saturate(bed, flow, outstanding=8)
        flows.append(flow)
    worker = SharedEchoServer(arch, bed.host.cpu.allocate())
    worker.start()
    bed.run(until=300 * US)
    assert worker.echoed.value > 100
    processed = {f.flow_id: arch.flows[f.flow_id].processed.value
                 for f in flows}
    assert all(v > 0 for v in processed.values()), processed


# ---------------------------------------------------------------------------
# LineFS
# ---------------------------------------------------------------------------

def test_linefs_writes_chunks_and_releases():
    bed, arch = build_bed()
    server = LineFsServer(arch, bed.host.cpu.allocate(),
                          LineFsConfig(replication=1))
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1000,
                packets_per_message=8)
    bed.add_flow(flow)
    server.attach_flow(flow)
    server.start()
    saturate(bed, flow, outstanding=4)
    bed.run(until=300 * US)
    assert server.chunks_written.value > 5
    assert server.bytes_written.value == server.chunks_written.value * 8000
    rx = arch.flows[flow.flow_id]
    # Buffers recycled after replication+logging (the server is slower than
    # the line, so a backlog remains — but processed chunks must have been
    # released).
    assert rx.in_use <= rx.delivered.value - server.chunks_written.value * 8


def test_linefs_detach_flow():
    bed, arch = build_bed()
    server = LineFsServer(arch, bed.host.cpu.allocate())
    flow = Flow(FlowKind.CPU_BYPASS, message_payload=1000,
                packets_per_message=4)
    bed.add_flow(flow)
    server.attach_flow(flow)
    assert flow in server.flows
    server.detach_flow(flow)
    assert flow not in server.flows


# ---------------------------------------------------------------------------
# dperf
# ---------------------------------------------------------------------------

def test_dperf_client_drives_flows():
    bed, arch = build_bed()
    client = DperfClient(bed, message_payload=512, outstanding=8)
    f1 = client.add_flow("a")
    f2 = client.add_flow("b")
    server = SharedEchoServer(arch, bed.host.cpu.allocate())
    server.start()
    client.start()
    bed.run(until=200 * US)
    assert client.messages_completed > 50
    client.stop()


# ---------------------------------------------------------------------------
# perftest
# ---------------------------------------------------------------------------

def test_ib_write_bw_reports_positive_goodput():
    result = ib_write_bw("baseline", msg_size=4096, duration=100 * US)
    assert result.gbps > 10
    assert result.path == "raw"


def test_ib_write_bw_force_slow_requires_ceio():
    with pytest.raises(ValueError):
        ib_write_bw("baseline", force_slow=True, duration=50 * US)


def test_ib_write_lat_ordering():
    raw = ib_write_lat("baseline", 64, iters=20)
    slow = ib_write_lat("ceio", 64, iters=20, force_slow=True)
    assert 0 < raw.avg_us < slow.avg_us
    assert slow.path == "slow"
