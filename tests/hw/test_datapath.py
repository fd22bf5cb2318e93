"""Tests for DRAM, PCIe, IIO, memory controller, CPU, and NIC models."""

import pytest

from repro.audit import Ledger, Reconciler
from repro.audit.wiring import _register_dma_path, _register_llc
from repro.hw import (
    CpuConfig,
    DmaWrite,
    DramConfig,
    Host,
    HostConfig,
    NicConfig,
    PcieConfig,
)
from repro.sim import Simulator
from repro.sim.units import gbps


# ---------------------------------------------------------------------------
# DRAM
# ---------------------------------------------------------------------------

def test_dram_access_latency_includes_transfer():
    sim = Simulator()
    host = Host(sim)
    cfg = host.config.dram
    ends = []
    host.dram.write(2048, lambda: ends.append(sim.now))
    sim.run()
    (latency,) = ends
    assert latency == pytest.approx(cfg.base_latency + 2048 / cfg.channel_bandwidth)


def test_dram_channels_parallelise():
    sim = Simulator()
    host = Host(sim)
    ends = []
    for _ in range(host.config.dram.channels):
        host.dram.write(2048, lambda: ends.append(sim.now))
    sim.run()
    assert len(set(ends)) == 1  # all channels in parallel, same finish time


def test_dram_latency_estimate_inflates_under_load():
    sim = Simulator()
    host = Host(sim)
    idle = host.dram.latency_estimate(64, 0.0)
    # Saturate the bandwidth meter.
    for t in range(0, 100):
        host.dram.record_demand(float(t * 100), 16000)
    loaded = host.dram.latency_estimate(64, 10_000.0)
    assert loaded > idle


def test_dram_utilization_bounded():
    sim = Simulator()
    host = Host(sim)
    host.dram.record_demand(1.0, 10**9)
    assert host.dram.utilization(10.0) == 1.0


# ---------------------------------------------------------------------------
# PCIe
# ---------------------------------------------------------------------------

def test_pcie_wire_bytes_includes_tlp_overhead():
    cfg = PcieConfig()
    assert cfg.wire_bytes(0) == 0
    assert cfg.wire_bytes(256) == 256 + 24
    assert cfg.wire_bytes(257) == 257 + 2 * 24


def test_pcie_write_issue_is_fast_latency_is_pipelined():
    sim = Simulator()
    host = Host(sim)
    cfg = host.config.pcie

    def proc(sim):
        t0 = sim.now
        yield from host.pcie.write_issue(1024)
        issue_time = sim.now - t0
        yield host.pcie.write_latency_event()
        return issue_time, sim.now - t0

    issue_time, total = sim.run_process(proc(sim))
    assert issue_time < cfg.write_latency  # issue = wire serialisation only
    assert total >= cfg.write_latency


def test_pcie_back_to_back_writes_overlap_latency():
    """Two posted writes must not serialise their in-flight latency."""
    sim = Simulator()
    host = Host(sim)
    from repro.hw import DmaWrite
    delivered = []

    def proc(sim):
        for i in range(2):
            write = DmaWrite(f"p{i}", 2048, ddio=True,
                             deliver=lambda t: delivered.append(t))
            yield from host.nic.dma.write_to_host(write) or ()

    sim.process(proc(sim))
    sim.run()
    assert len(delivered) == 2
    # Second delivery trails the first by far less than the 300ns latency.
    assert delivered[1] - delivered[0] < host.config.pcie.write_latency / 2


def test_pcie_read_costs_round_trip():
    sim = Simulator()
    host = Host(sim)
    cfg = host.config.pcie

    def proc(sim):
        t0 = sim.now
        yield from host.nic.dma.read_from_nic(host.nic.memory, 2048)
        return sim.now - t0

    latency = sim.run_process(proc(sim))
    assert latency >= cfg.read_latency


def test_pcie_credits_block_writer_until_released():
    sim = Simulator()
    config = HostConfig(pcie=PcieConfig(posted_credits=4096))
    host = Host(sim, config)

    def writer(sim):
        yield from host.pcie.acquire_write_credits(4096)
        yield from host.pcie.acquire_write_credits(4096)
        return sim.now

    proc = sim.process(writer(sim))
    sim.call_later(500, lambda: host.pcie.release_write_credits(4096))
    sim.run()
    assert proc.value == 500.0


def test_pcie_credit_waiters_are_served_fifo():
    """A large credit request at the head of the queue holds back a
    smaller later one until a release covers it; a release that would
    overflow the pool is refused."""
    sim = Simulator()
    host = Host(sim, HostConfig(pcie=PcieConfig(posted_credits=4096)))
    pcie = host.pcie
    got = []

    def taker(sim, name, amount):
        yield from pcie.acquire_write_credits(amount)
        got.append((name, sim.now))

    procs = [sim.process(taker(sim, "hog", 4096)),
             sim.process(taker(sim, "big", 4096)),
             sim.process(taker(sim, "small", 1024))]
    sim.call_later(10, pcie.release_write_credits, 2048)  # not enough for big
    sim.call_later(20, pcie.release_write_credits, 2048)
    sim.call_later(30, pcie.release_write_credits, 4096)
    sim.run()
    assert all(not p.is_alive for p in procs)
    assert got == [("hog", 0.0), ("big", 20.0), ("small", 30.0)]
    assert pcie.credits_available == 3072
    pcie.release_write_credits(4096)  # would overflow: refused
    assert pcie.credits_available == 3072
    assert pcie.credits_released == 8192


# ---------------------------------------------------------------------------
# IIO + memory controller end-to-end
# ---------------------------------------------------------------------------

def test_dma_write_lands_in_llc_with_ddio():
    sim = Simulator()
    host = Host(sim)
    delivered = []

    def proc(sim):
        write = DmaWrite("pkt0", 2048, ddio=True,
                         deliver=lambda t: delivered.append(t))
        yield from host.nic.dma.write_to_host(write) or ()

    sim.process(proc(sim))
    sim.run()
    assert delivered, "memory controller must call deliver()"
    assert host.llc.is_resident("pkt0")


def test_dma_write_without_ddio_goes_to_dram():
    sim = Simulator()
    host = Host(sim)

    def proc(sim):
        write = DmaWrite("pkt0", 2048, ddio=False)
        yield from host.nic.dma.write_to_host(write) or ()

    sim.process(proc(sim))
    sim.run()
    assert not host.llc.is_resident("pkt0")
    assert host.dram.bytes_written == 2048


def test_ddio_eviction_generates_writeback_traffic():
    sim = Simulator()
    host = Host(sim)
    n_fit = host.config.cache.ddio_capacity // 2048

    def proc(sim):
        for i in range(n_fit + 8):
            write = DmaWrite(f"p{i}", 2048, ddio=True)
            yield from host.nic.dma.write_to_host(write) or ()

    sim.process(proc(sim))
    sim.run()
    assert host.memctrl.writeback_bytes >= 8 * 2048


def test_iio_occupancy_tracked():
    sim = Simulator()
    host = Host(sim)

    host.iio.put(DmaWrite("x", 1024, ddio=True), 1024)
    assert host.iio.occupancy == 1024
    sim.run()
    # Drained by memctrl afterwards.
    assert host.iio.occupancy == 0


def _dma_path_report(host):
    ledger = Ledger()
    _register_dma_path(ledger, host)
    _register_llc(ledger, host.llc)
    return Reconciler(ledger).check(now=host.sim.now)


def test_iio_full_back_pressure_keeps_order_and_conservation():
    """Posted writes land by callback; when the IIO is full the landing
    parks and re-checks as the memory controller frees space, so every
    write still lands once, in issue order, with credits and the
    conservation ledger balanced."""
    sim = Simulator()
    host = Host(sim, HostConfig(nic=NicConfig(iio_capacity=2 * 2048)))
    delivered = []

    def writer(sim):
        for i in range(32):
            # Cache-bypassing: the DRAM drain is slower than the PCIe
            # wire, so landings outrun the memory controller.
            write = DmaWrite(f"p{i}", 2048, ddio=False,
                             deliver=lambda t, i=i: delivered.append(i))
            yield from host.nic.dma.write_to_host(write) or ()

    sim.process(writer(sim))
    sim.run(until=1_000.0)
    assert host.iio._space_waiters  # landings are parked on a full IIO
    sim.run()
    assert delivered == list(range(32))
    assert host.iio.inbound_inflight == 0
    assert host.iio.peak_bytes == 2 * 2048
    assert host.pcie.credits_acquired == host.pcie.credits_released
    report = _dma_path_report(host)
    assert report.ok, report.violations


#: Calendar entries one uncontended posted write costs: the landing
#: callback and the memory controller's fill/write-back delay. Credits
#: and wire are taken without suspending, and the landing serves the
#: idle memory controller inline.
ENTRIES_PER_WRITE = 2


def test_posted_write_calendar_cost():
    sim = Simulator()
    host = Host(sim)
    n = 1_000
    gap = 1_000.0

    def writer(sim):
        for i in range(n):
            write = DmaWrite(f"p{i}", 2048, ddio=True)
            yield from host.nic.dma.write_to_host(write) or ()
            yield gap

    sim.process(writer(sim))
    executed = sim.run_until(n * gap + 10 * gap, inclusive=True)
    assert host.memctrl.writes_completed == n
    # Start-up of the writer process and of the memory-controller and
    # firmware servers, the writer's exit, and one resume of the
    # writer's own gap per write.
    assert executed == 4 + n * (ENTRIES_PER_WRITE + 1)


def test_dram_write_calendar_cost_under_channel_contention():
    """Cache-bypassing writes reach a one-channel DRAM that a second
    user keeps busy, so accesses queue for the channel."""
    sim = Simulator()
    host = Host(sim, HostConfig(dram=DramConfig(channels=1)))
    n = 50
    ends = []

    def writer(sim):
        for i in range(n):
            host.dram.write(4096, lambda: ends.append(sim.now))
            yield from host.nic.dma.write_to_host(
                DmaWrite(f"p{i}", 2048, ddio=False,
                         deliver=ends.append)) or ()
            yield 100.0

    sim.process(writer(sim))
    executed = sim.run_until(n * 1_000.0, inclusive=True)
    assert host.memctrl.writes_completed == n
    assert host.dram.bytes_written == n * (4096 + 2048)
    cfg = host.config.dram
    busy = n * (2 * cfg.base_latency + 6144 / cfg.channel_bandwidth)
    assert max(ends) >= busy  # one channel, never idle: all serialised
    # Start-up and exit as above; per write, the writer's gap, the
    # landing, and a channel grant plus a completion for each of the
    # two DRAM accesses.
    assert executed == 4 + n * (1 + 1 + 2 + 2)


def test_credit_starved_write_calendar_cost():
    """Back-to-back writes with credits for two in flight: every write
    after the second waits for the release of an earlier one."""
    sim = Simulator()
    host = Host(sim, HostConfig(pcie=PcieConfig(posted_credits=4096)))
    n = 50

    def writer(sim):
        for i in range(n):
            yield from host.nic.dma.write_to_host(
                DmaWrite(f"p{i}", 2048, ddio=True)) or ()

    sim.process(writer(sim))
    executed = sim.run_until(n * 1_000.0, inclusive=True)
    assert host.memctrl.writes_completed == n
    assert host.pcie.credits_acquired == host.pcie.credits_released
    # Start-up and exit as above, two entries per write, and one credit
    # grant for each of the n - 2 writes that found the pool empty.
    assert executed == 4 + n * ENTRIES_PER_WRITE + (n - 2)


# ---------------------------------------------------------------------------
# CPU core
# ---------------------------------------------------------------------------

def test_core_compute_duration_scales_with_frequency():
    sim = Simulator()
    host = Host(sim, HostConfig(cpu=CpuConfig(cores=2, freq_ghz=2.0)))
    core = host.cpu.allocate()

    def proc(sim):
        t0 = sim.now
        yield core.compute(100)
        return sim.now - t0

    assert sim.run_process(proc(sim)) == pytest.approx(50.0)


def test_core_read_hit_vs_miss_latency():
    sim = Simulator()
    host = Host(sim)
    core = host.cpu.allocate()
    host.llc.io_insert("hot", 2048)
    hit_lat, hit_missed = core.read_latency("hot", 2048)
    miss_lat, miss_missed = core.read_latency("cold", 2048)
    assert not hit_missed and miss_missed
    assert hit_lat == host.config.cache.hit_latency
    assert miss_lat > 3 * hit_lat


def test_core_read_buffer_process_advances_time():
    sim = Simulator()
    host = Host(sim)
    core = host.cpu.allocate()
    host.llc.io_insert("hot", 2048)

    def proc(sim):
        t0 = sim.now
        missed = yield from core.read_buffer("hot", 2048)
        return sim.now - t0, missed

    duration, missed = sim.run_process(proc(sim))
    assert duration == host.config.cache.hit_latency
    assert missed is False


def test_core_allocation_exhaustion():
    sim = Simulator()
    host = Host(sim, HostConfig(cpu=CpuConfig(cores=1)))
    host.cpu.allocate()
    with pytest.raises(RuntimeError):
        host.cpu.allocate()
    host.cpu.release_all()
    host.cpu.allocate()


def test_core_copy_to_app_buffer_costs_time_and_bandwidth():
    sim = Simulator()
    host = Host(sim)
    core = host.cpu.allocate()

    def proc(sim):
        t0 = sim.now
        yield from core.copy_to_app_buffer(4096)
        return sim.now - t0

    duration = sim.run_process(proc(sim))
    assert duration > 0
    assert host.dram.bytes_written == 4096


# ---------------------------------------------------------------------------
# NIC
# ---------------------------------------------------------------------------

class _Pkt:
    def __init__(self, size):
        self.size = size


class _CountingHandler:
    def __init__(self, sim):
        self.sim = sim
        self.seen = []
        self.drops = []

    def on_packet(self, packet):
        self.seen.append(packet)
        yield 1

    def on_drop(self, packet):
        self.drops.append(packet)


def test_nic_dispatches_packets_to_handler():
    sim = Simulator()
    host = Host(sim)
    handler = _CountingHandler(sim)
    host.nic.install_handler(handler)
    for _ in range(5):
        assert host.nic.receive(_Pkt(1024))
    sim.run()
    assert len(handler.seen) == 5
    assert host.nic.rx_packets == 5


def test_nic_drops_without_handler():
    sim = Simulator()
    host = Host(sim)
    assert not host.nic.receive(_Pkt(1024))
    assert host.nic.dropped_packets == 1


def test_nic_mac_buffer_overflow_drops_and_notifies():
    sim = Simulator()
    host = Host(sim)

    class Blocker(_CountingHandler):
        def on_packet(self, packet):
            yield 10**9

    handler = Blocker(sim)
    host.nic.install_handler(handler)
    jumbo = _Pkt(400 * 1024)
    assert host.nic.receive(jumbo)
    assert host.nic.receive(jumbo)
    assert not host.nic.receive(jumbo)  # 1 MB MAC buffer full
    assert handler.drops and handler.drops[0] is jumbo


def test_nic_firmware_overhead_applied():
    sim = Simulator()
    host = Host(sim)
    handler = _CountingHandler(sim)
    host.nic.install_handler(handler)
    host.nic.receive(_Pkt(64))
    sim.run()
    assert sim.now >= host.config.nic.firmware_overhead


def test_nic_uncontended_packet_costs_one_firmware_entry():
    """A packet reaching an idle firmware starts its delay from
    ``receive`` and a handler that never suspends runs inline, so the
    firmware costs one calendar entry per packet."""
    sim = Simulator()
    host = Host(sim)

    class Inline(_CountingHandler):
        def on_packet(self, packet):
            self.seen.append(packet)
            return
            yield  # pragma: no cover - makes this function a generator

    handler = Inline(sim)
    host.nic.install_handler(handler)
    n, gap = 100, 1_000.0
    for i in range(n):
        sim.call_at((i + 1) * gap, host.nic.receive, _Pkt(1024))
    executed = sim.run_until((n + 1) * gap, inclusive=True)
    assert host.nic.handled_packets == n
    # Start-up of the memory-controller and firmware servers, then per
    # packet its arrival (this test's entry) and the firmware delay.
    assert executed == 2 + n * (1 + 1)


class _Dmaing(_CountingHandler):
    """Handler doing what an I/O architecture does: one posted write per
    packet, alternating the DDIO and cache-bypassing (DRAM) paths."""

    def __init__(self, host, delivered):
        super().__init__(host.sim)
        self.host = host
        self.delivered = delivered

    def on_packet(self, packet):
        self.seen.append(packet)
        seq = packet.seq
        write = DmaWrite(f"p{seq}", packet.size, ddio=seq % 2 == 0,
                         deliver=lambda t: self.delivered.append(seq))
        return self.host.nic.dma.write_to_host(write)


def test_tiny_posted_credits_block_the_handler_in_order():
    """With credits for one write only, each handler blocks on the
    previous write's drain (inside Simulator.drive), the MAC FIFO holds
    the rest, and every write still lands once, in order, with credits
    and the conservation ledger balanced."""
    sim = Simulator()
    host = Host(sim, HostConfig(pcie=PcieConfig(posted_credits=1024)))
    delivered = []
    host.nic.install_handler(_Dmaing(host, delivered))
    n = 16
    for seq in range(n):
        pkt = _Pkt(2048)
        pkt.seq = seq
        assert host.nic.receive(pkt)
    # The second packet's handler runs at 2 x firmware_overhead and
    # finds the credits still held by the first write.
    sim.run(until=3 * host.config.nic.firmware_overhead)
    assert host.nic.handler_inflight == 1  # blocked on credits
    assert host.nic._mac_pkts > 1
    sim.run()
    assert delivered == list(range(n))
    assert host.nic.handled_packets == n and host.nic._mac_pkts == 0
    assert host.nic.handler_inflight == 0
    assert host.pcie.credits_acquired == host.pcie.credits_released == n * 1024
    assert host.dram.bytes_written >= (n // 2) * 2048
    report = _dma_path_report(host)
    assert report.ok, report.violations


def test_on_nic_memory_allocation_bounds():
    sim = Simulator()
    cfg = HostConfig(nic=NicConfig(memory_size=4096))
    host = Host(sim, cfg)
    mem = host.nic.memory
    assert mem.allocate(4096)
    assert not mem.allocate(1)
    mem.free_bytes(2048)
    assert mem.allocate(2048)
    assert mem.used == 4096


def test_arm_core_loop_runs_periodically():
    sim = Simulator()
    host = Host(sim)
    ticks = []
    host.nic.arm.spawn_loop(lambda: ticks.append(sim.now), period=100)
    sim.run(until=1000)
    assert len(ticks) == 10


def test_arm_cores_exhaustion():
    sim = Simulator()
    cfg = HostConfig(nic=NicConfig(arm_cores=1))
    host = Host(sim, cfg)
    host.nic.arm.spawn_loop(lambda: None, period=10)
    with pytest.raises(RuntimeError):
        host.nic.arm.spawn_loop(lambda: None, period=10)


def test_host_paper_defaults():
    sim = Simulator()
    host = Host(sim)
    assert host.total_credits == 3072
    assert host.config.link_rate == pytest.approx(gbps(200))
    assert host.llc_miss_rate() == 0.0
