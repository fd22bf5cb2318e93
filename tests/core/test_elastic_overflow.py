"""On-NIC memory exhaustion must degrade gracefully, never wedge: with
spill-to-DRAM the overflow traffic detours through host memory; without
it the packets drop and the transport retransmits."""

from repro.apps.erpc import ErpcServer
from repro.core import CeioConfig
from repro.hw import CacheConfig, HostConfig, NicConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import MIB, US
from repro.workloads import MeasurementWindow
from tests.conftest import host_endpoint


def run_starved(spill: bool):
    """CEIO with all flows pinned to the slow path and almost no on-NIC
    buffer memory — every burst overflows the elastic buffer. Wired by
    hand: a scenario spec has no field for the NIC's memory size."""
    bed = host_endpoint(host_config=HostConfig(
        cache=CacheConfig(size=12 * MIB // 8),
        nic=NicConfig(memory_size=8 * 1024)), seed=11)
    arch = build_arch("ceio", bed.host,
                      config=CeioConfig(spill_to_dram=spill))
    bed.install_io_arch(arch)
    for i in range(4):
        flow = Flow(FlowKind.CPU_INVOLVED, name=f"kv{i}",
                    message_payload=144)
        sender = bed.add_flow(flow)
        ErpcServer(arch, flow, bed.host.cpu.allocate(),
                   lambda ctx: 0.0).start()
        SaturatingSource(bed.sim, sender, outstanding=32).start()
        arch.pin_slow(flow)
    bed.run(until=100 * US)
    # Several windows: the no-spill path progresses in RTO-paced bursts,
    # so any single window may legitimately read zero.
    windows = []
    for _ in range(6):
        window = MeasurementWindow(bed, arch)
        bed.run(until=bed.sim.now + 200 * US)
        windows.append(window.finish())
    return arch, windows


def test_overflow_spills_to_dram_and_keeps_flowing():
    arch, windows = run_starved(spill=True)
    manager = arch.buffer_manager
    assert manager.overflow_events > 0
    assert arch.spilled > 0
    assert manager.slow_drops == 0       # spill, not drop
    assert all(m.involved_mpps > 0 for m in windows)  # continuous service


def test_overflow_without_spill_drops_but_does_not_wedge():
    arch, windows = run_starved(spill=False)
    manager = arch.buffer_manager
    assert manager.overflow_events > 0
    assert manager.slow_drops > 0
    assert arch.spilled == 0
    # Retransmissions keep the flows alive through the drops: progress in
    # both the first and the second half of the horizon, just bursty.
    assert sum(m.involved_mpps for m in windows[:3]) > 0
    assert sum(m.involved_mpps for m in windows[3:]) > 0
