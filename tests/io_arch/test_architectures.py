"""Integration tests for the receive-side I/O architectures, driven
through the real testbed (senders, switch, NIC, DMA, memory controller)."""

import pytest

from repro.hw import CacheConfig, HostConfig, NicConfig
from repro.io_arch import ARCHITECTURES, build_arch
from repro.io_arch.hostcc import HostccArch, HostccConfig
from repro.io_arch.shring import ShringArch, ShringConfig
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def small_host():
    return HostConfig(cache=CacheConfig(size=256 * 1024))


def drive(arch_name, n_flows=2, payload=1000, until=200 * US,
          outstanding=16, host_config=None, **arch_kwargs):
    bed = host_endpoint(host_config=host_config or small_host(), seed=3)
    arch = build_arch(arch_name, bed.host, **arch_kwargs)
    bed.install_io_arch(arch)
    flows = []
    for i in range(n_flows):
        flow = Flow(FlowKind.CPU_INVOLVED, name=f"f{i}",
                    message_payload=payload)
        bed.add_flow(flow)
        flows.append(flow)
        SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                         outstanding=outstanding).start()
    bed.run(until=until)
    return bed, arch, flows


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_contains_all_four():
    build_arch("ceio", host_endpoint().host)  # force lazy registration
    assert set(ARCHITECTURES) >= {"baseline", "hostcc", "shring", "ceio"}


def test_build_arch_unknown_name():
    bed = host_endpoint()
    with pytest.raises(ValueError, match="unknown I/O architecture"):
        build_arch("nope", bed.host)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def test_baseline_delivers_packets_to_flow_rings():
    bed, arch, flows = drive("baseline")
    rx = arch.flows[flows[0].flow_id]
    assert rx.delivered > 0
    assert len(rx.ring) > 0


def test_baseline_rx_burst_and_release_recycle_descriptors():
    bed, arch, flows = drive("baseline")
    rx = arch.flows[flows[0].flow_id]
    in_use_before = rx.in_use
    records = arch.rx_burst(flows[0], 8)
    assert 0 < len(records) <= 8
    arch.release(records)
    assert rx.in_use == in_use_before - len(records)


def test_baseline_unregistered_flow_dropped():
    bed = host_endpoint(host_config=small_host())
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    # Bypass add_flow: deliver a packet for an unknown flow.
    pkt = flow.make_message().packets(flow, 0)[0]
    bed.host.nic.receive(pkt)
    bed.sim.run(until=10 * US)
    assert arch.rx_dropped == 1


def test_baseline_descriptor_exhaustion_drops():
    cfg = HostConfig(cache=CacheConfig(size=256 * 1024),
                     nic=NicConfig(rx_ring_entries=4))
    bed, arch, flows = drive("baseline", n_flows=1, host_config=cfg,
                             outstanding=32)
    rx = arch.flows[flows[0].flow_id]
    assert rx.in_use <= 4
    assert rx.dropped > 0


def test_baseline_ddio_thrash_produces_misses():
    """Tiny LLC + nobody consuming => inserts evict unread buffers."""
    cfg = HostConfig(cache=CacheConfig(size=64 * 1024))
    bed, arch, flows = drive("baseline", n_flows=2, host_config=cfg,
                             outstanding=64, until=300 * US)
    # Consume everything now: most buffers were evicted before reading.
    missed = 0
    total = 0
    core = bed.host.cpu.allocate()
    for flow in flows:
        for record in arch.rx_burst(flow, 10_000):
            total += 1
            _lat, miss = core.read_latency(record.key, record.packet.payload)
            missed += miss
    assert total > 50
    assert missed / total > 0.5


# ---------------------------------------------------------------------------
# HostCC
# ---------------------------------------------------------------------------

def test_hostcc_throttles_under_congestion():
    bed, arch, flows = drive("hostcc", n_flows=4, outstanding=64,
                             until=400 * US)
    assert isinstance(arch, HostccArch)
    # Nobody consumes: memory-side congestion must have been detected and
    # the DMA pacing rate reduced below line rate.
    assert arch.congestion_events >= 1
    assert arch.dma_rate < bed.host.config.link_rate


def test_hostcc_config_thresholds_respected():
    bed = host_endpoint(host_config=small_host())
    arch = HostccArch(bed.host, HostccConfig(control_interval=5 * US))
    assert arch.config.control_interval == 5 * US


# ---------------------------------------------------------------------------
# ShRing
# ---------------------------------------------------------------------------

def test_shring_shared_ring_bounds_admission():
    bed, arch, flows = drive("shring", n_flows=2, outstanding=64,
                             until=400 * US,
                             config=ShringConfig(ring_entries=64))
    assert isinstance(arch, ShringArch)
    assert arch.shared_in_use <= 64
    assert arch.ring_full_drops > 0


def test_shring_any_flow_served_from_shared_ring():
    bed, arch, flows = drive("shring", n_flows=2)
    records = arch.rx_burst(flows[0], 16)
    assert records
    # The shared ring hands out whatever arrived first, regardless of the
    # flow passed to rx_burst.
    fids = {r.flow.flow_id for r in records}
    assert fids <= {f.flow_id for f in flows}
    arch.release(records)


def test_shring_release_frees_shared_slots():
    bed, arch, flows = drive("shring", n_flows=1)
    before = arch.shared_in_use
    records = arch.rx_burst(flows[0], 8)
    arch.release(records)
    assert arch.shared_in_use == before - len(records)


def test_shring_dispatch_overhead_exposed():
    bed = host_endpoint(host_config=small_host())
    arch = ShringArch(bed.host, ShringConfig(dispatch_cycles=55.0))
    assert arch.app_overhead_cycles() == 55.0


def test_shring_ecn_guard_marks_probabilistically():
    bed, arch, flows = drive("shring", n_flows=2, outstanding=64,
                             until=400 * US,
                             config=ShringConfig(ring_entries=128,
                                                 ecn_guard=0.25))
    assert arch.guard_marks > 0


# ---------------------------------------------------------------------------
# poll_any / wait_ready (NAPI interface)
# ---------------------------------------------------------------------------

def test_poll_any_round_robins_ready_flows():
    bed, arch, flows = drive("baseline", n_flows=2)
    seen_fids = set()
    for _ in range(20):
        records = arch.poll_any(4)
        if not records:
            break
        seen_fids.update(r.flow.flow_id for r in records)
        arch.release(records)
    assert len(seen_fids) == 2


def test_wait_ready_fires_on_delivery():
    bed = host_endpoint(host_config=small_host())
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    bed.add_flow(flow)

    woke = []

    def waiter(sim):
        yield arch.wait_ready()
        woke.append(sim.now)

    bed.sim.process(waiter(bed.sim))
    bed.sim.run(until=5 * US)
    assert not woke
    SaturatingSource(bed.sim, bed.senders[flow.flow_id], outstanding=1).start()
    bed.run(until=50 * US)
    assert woke
