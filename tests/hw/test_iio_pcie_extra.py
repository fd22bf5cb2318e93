"""Focused tests for IIO back-pressure and the PCIe credit loop."""

import pytest

from repro.hw import DmaWrite, Host, HostConfig, NicConfig, PcieConfig
from repro.sim import Simulator


def test_iio_put_blocks_when_full_until_complete():
    sim = Simulator()
    cfg = HostConfig(nic=NicConfig(iio_capacity=2048))
    host = Host(sim, cfg)
    # Capacity 2048 admits only one 2048B entry: 'b' parks until the
    # memory controller completes 'a'.
    done = []

    def landed(name):
        return lambda t: done.append((name, t))

    host.iio.put(DmaWrite("a", 2048, ddio=True, deliver=landed("a")), 2048)
    host.iio.put(DmaWrite("b", 2048, ddio=True, deliver=landed("b")), 2048)
    sim.run(until=5)
    assert host.iio.occupancy == 2048 and not done
    sim.run()
    fill = 2048 / host.memctrl.LLC_FILL_BANDWIDTH
    assert done == [("a", fill), ("b", 2 * fill)]
    assert host.iio.occupancy == 0


def test_iio_fill_fraction():
    sim = Simulator()
    cfg = HostConfig(nic=NicConfig(iio_capacity=4096))
    host = Host(sim, cfg)

    host.iio.put(DmaWrite("a", 1024, ddio=True), 1024)
    sim.run(until=0.5)
    assert host.iio.fill_fraction == pytest.approx(0.25)


def test_pcie_credits_cycle_through_memctrl():
    """Posted credits return only after the memory controller finishes."""
    sim = Simulator()
    cfg = HostConfig(pcie=PcieConfig(posted_credits=4096))
    host = Host(sim, cfg)
    start = host.pcie.credits_available

    def producer(sim):
        yield from host.nic.dma.write_to_host(DmaWrite("a", 4096, ddio=True))

    sim.process(producer(sim))
    sim.run(until=10)  # issued; in flight; credits held
    assert host.pcie.credits_available < start
    sim.run()
    assert host.pcie.credits_available == start


def test_pcie_utilization_reflects_traffic():
    sim = Simulator()
    host = Host(sim)
    assert host.pcie.utilization(0.0) == 0.0

    def producer(sim):
        for i in range(50):
            yield from host.nic.dma.write_to_host(
                DmaWrite(f"p{i}", 2048, ddio=True))

    sim.process(producer(sim))
    sim.run()
    assert host.pcie.utilization(sim.now) > 0.0
    assert host.pcie.bytes_written == 50 * 2048


def test_memctrl_delivery_order_preserved():
    """IIO is a FIFO: deliveries happen in DMA-issue order even though the
    in-flight PCIe latency is pipelined."""
    sim = Simulator()
    host = Host(sim)
    order = []

    def producer(sim):
        for i in range(10):
            write = DmaWrite(f"p{i}", 1024, ddio=True,
                             deliver=lambda t, i=i: order.append(i))
            yield from host.nic.dma.write_to_host(write)

    sim.process(producer(sim))
    sim.run()
    assert order == list(range(10))


def test_writeback_stalls_drain_under_thrash():
    """With the DDIO partition saturated, every insert evicts and the
    drain slows to the write-back bandwidth — the IIO backs up."""
    sim = Simulator()
    from repro.hw import CacheConfig
    host = Host(sim, HostConfig(cache=CacheConfig(size=64 * 1024)))

    def producer(sim):
        for i in range(200):
            yield from host.nic.dma.write_to_host(
                DmaWrite(f"p{i}", 2048, ddio=True))

    sim.process(producer(sim))
    sim.run(until=10_000)
    assert host.memctrl.writeback_bytes > 0
    assert host.iio.occupancy_gauge.max > 0


def test_on_nic_memory_write_read_bandwidth_shared():
    sim = Simulator()
    host = Host(sim)
    mem = host.nic.memory
    t0 = sim.now

    def worker(sim):
        # Exceed the bucket's burst so sustained bandwidth governs.
        for _ in range(8):
            yield from mem.write(64 * 1024)
        yield from mem.read(64 * 1024)

    sim.process(worker(sim))
    sim.run()
    # 9 x 64 KB through a shared bucket: everything beyond the initial
    # burst is paced at the configured bandwidth; the read adds latency.
    total = 9 * 64 * 1024
    expected = (total - 256 * 1024) / mem.config.memory_bandwidth
    assert sim.now - t0 >= expected
    assert mem.bytes_written == 8 * 64 * 1024
    assert mem.bytes_read == 64 * 1024
