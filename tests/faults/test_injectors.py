"""Injector tests: each fault site switches on at onset, perturbs the
layer through its seam, and restores the nominal configuration exactly
when the window closes."""

from types import SimpleNamespace

import pytest

from repro.faults import FaultController, FaultPlan, FaultSpec, install_plan
from repro.hw import CacheConfig, DmaWrite, Host, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, Message
from repro.sim import Simulator
from repro.sim.units import US
from tests.conftest import host_endpoint


def small_testbed(seed=1, n_flows=1):
    testbed = host_endpoint(HostConfig(
        cache=CacheConfig(size=512 * 1024)), seed=seed)
    testbed.install_io_arch(build_arch("baseline", testbed.host))
    senders = [testbed.add_flow(Flow(FlowKind.CPU_INVOLVED, name=f"f{i}",
                                     message_payload=512))
               for i in range(n_flows)]
    return testbed, senders


def pump(testbed, sender, n=50, gap=1000.0):
    def proc(sim):
        for _ in range(n):
            sender.submit_message(Message(512, 1))
            yield gap
    testbed.sim.process(proc(testbed.sim))


def test_install_plan_empty_is_noop():
    testbed, _ = small_testbed()
    assert install_plan(testbed, FaultPlan()) is None
    assert testbed.port.fault is None


def test_double_arm_rejected():
    testbed, _ = small_testbed()
    controller = FaultController(testbed, FaultPlan(
        (FaultSpec("net.link", "loss", duration=1.0),)))
    controller.arm()
    with pytest.raises(RuntimeError, match="already armed"):
        controller.arm()


def test_link_loss_window_drops_then_restores():
    testbed, (sender,) = small_testbed()
    controller = install_plan(testbed, FaultPlan((
        FaultSpec("net.link", "loss", start=10 * US, duration=20 * US,
                  magnitude=1.0),)))
    pump(testbed, sender, n=60)
    testbed.run(until=5 * US)
    assert testbed.port.fault is None          # before onset
    testbed.run(until=20 * US)
    assert testbed.port.fault is not None      # window open
    testbed.run(until=100 * US)
    assert testbed.port.fault is None          # restored exactly
    assert controller.windows_opened == 1
    dropped = testbed.port.fault_dropped
    assert dropped > 0
    # Retransmissions recover every loss: all 60 messages complete.
    assert sender.packets_acked >= 60
    assert sender.retransmits > 0


def test_link_loss_is_deterministic_across_runs():
    def run_once():
        testbed, (sender,) = small_testbed(seed=7)
        install_plan(testbed, FaultPlan((
            FaultSpec("net.link", "loss", start=10 * US, duration=30 * US,
                      magnitude=0.5),)))
        pump(testbed, sender, n=40)
        testbed.run(until=200 * US)
        return (testbed.port.fault_dropped,
                sender.retransmits, sender.packets_acked)

    assert run_once() == run_once()


def test_link_loss_flow_filter_spares_other_flows():
    testbed, senders = small_testbed(n_flows=2)
    install_plan(testbed, FaultPlan((
        FaultSpec("net.link", "loss", duration=500 * US, magnitude=1.0,
                  flow="f0"),)))
    for sender in senders:
        pump(testbed, sender, n=20)
    testbed.run(until=100 * US)
    f1 = senders[1]
    assert testbed.port.fault_dropped > 0
    assert f1.retransmits == 0
    assert f1.packets_acked >= 20


def test_burst_loss_drops_in_bursts():
    testbed, (sender,) = small_testbed(seed=3)
    install_plan(testbed, FaultPlan((
        FaultSpec("net.link", "burst_loss", duration=500 * US,
                  magnitude=1.0,
                  params={"p_good_bad": 0.2, "p_bad_good": 0.2}),)))
    pump(testbed, sender, n=80, gap=500.0)
    testbed.run(until=300 * US)
    # Bad-state loss probability 1.0: every drop is part of a burst.
    assert testbed.port.fault_dropped > 1


def test_pcie_latency_adds_and_restores_exactly():
    testbed, _ = small_testbed()
    pcie = testbed.host.pcie
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.pcie", "latency", start=0.0, duration=10 * US,
                  magnitude=300.0),
        FaultSpec("hw.pcie", "latency", start=5 * US, duration=10 * US,
                  magnitude=200.0),)))
    testbed.run(until=1 * US)
    assert pcie.extra_latency == 300.0
    testbed.run(until=7 * US)
    assert pcie.extra_latency == 500.0         # overlapping windows compose
    testbed.run(until=12 * US)
    assert pcie.extra_latency == 200.0
    testbed.run(until=20 * US)
    assert pcie.extra_latency == 0.0


def test_pcie_stall_collapses_and_restores_wire_rate():
    testbed, _ = small_testbed()
    pcie = testbed.host.pcie
    nominal = pcie.config.bandwidth
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.pcie", "stall", start=1 * US, duration=5 * US,
                  magnitude=0.0),)))
    testbed.run(until=2 * US)
    assert pcie._wire.rate == pytest.approx(nominal * 1e-6)
    testbed.run(until=10 * US)
    assert pcie._wire.rate == pytest.approx(nominal)


def test_nic_dma_stall_sets_window_and_requires_finite():
    testbed, _ = small_testbed()
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.nic", "dma_stall", start=2 * US, duration=8 * US),)))
    testbed.run(until=3 * US)
    assert testbed.host.nic.dma.stall_until == pytest.approx(10 * US)
    with pytest.raises(ValueError, match="finite"):
        install_plan(testbed, FaultPlan((
            FaultSpec("hw.nic", "dma_stall"),)))
        testbed.run(until=4 * US)


def test_descriptor_drop_loses_deliveries_silently():
    testbed, (sender,) = small_testbed()
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.nic", "descriptor_drop", start=10 * US,
                  duration=30 * US, magnitude=1.0),)))
    pump(testbed, sender, n=40)
    testbed.run(until=200 * US)
    dma = testbed.host.nic.dma
    rx = testbed.io_arch.flows[testbed.flows[0].flow_id]
    assert dma.dropped_writes > 0
    assert dma.drop_filter is None             # restored
    # The silent part: packets were ACKed (accepted) but never delivered.
    assert rx.delivered < sender.packets_acked


def test_cpu_slowdown_scales_targeted_core_and_restores():
    testbed, _ = small_testbed()
    cores = testbed.host.cpu.cores
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.cpu", "slowdown", start=0.0, duration=5 * US,
                  magnitude=4.0, params={"core": 0}),)))
    testbed.run(until=1 * US)
    assert cores[0].slowdown == 4.0
    assert all(core.slowdown == 1.0 for core in cores[1:])
    testbed.run(until=10 * US)
    assert all(core.slowdown == 1.0 for core in cores)


def test_ddio_reconfig_shrinks_partition_and_restores():
    testbed, _ = small_testbed()
    llc = testbed.host.llc
    nominal = llc.capacity
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.cache", "ddio_reconfig", start=0.0, duration=5 * US,
                  magnitude=0.5),)))
    testbed.run(until=1 * US)
    assert llc.capacity == nominal // 2
    testbed.run(until=10 * US)
    assert llc.capacity == nominal


def test_unknown_flow_filter_raises_at_onset():
    testbed, _ = small_testbed()
    install_plan(testbed, FaultPlan((
        FaultSpec("hw.nic", "descriptor_drop", start=1 * US,
                  duration=5 * US, flow="nope"),)))
    with pytest.raises(ValueError, match="unknown flow"):
        testbed.run(until=2 * US)


# ----------------------------------------------------------------------
# DMA-path seams on a bare host: the posted write lands by callback
# ----------------------------------------------------------------------
def bare_host(plan):
    """A host with no network, and ``plan`` armed against it before any
    write is issued (the window processes start first at t=0)."""
    sim = Simulator()
    host = Host(sim)
    install_plan(SimpleNamespace(sim=sim, host=host, rng=host.rng,
                                 flows=[]), plan)
    return sim, host


def issue_one_write(sim, host):
    write = DmaWrite("p0", 2048, ddio=True)

    def writer(sim):
        yield from host.nic.dma.write_to_host(write)

    sim.process(writer(sim))
    return write


def landing_time(sim, host, t):
    """Assert the write lands exactly at ``t``: the IIO is still empty
    just before and holds the write at ``t``."""
    sim.run(until=t - 0.5)
    assert host.iio.occupancy == 0
    sim.run(until=t)
    assert host.iio.occupancy == 2048


def test_pcie_latency_delays_landing_by_exactly_extra():
    sim, host = bare_host(FaultPlan())
    issue_one_write(sim, host)
    landing_time(sim, host, host.config.pcie.write_latency)

    sim, host = bare_host(FaultPlan((
        FaultSpec("hw.pcie", "latency", start=0.0, duration=1 * US,
                  magnitude=250.0),)))
    issue_one_write(sim, host)
    landing_time(sim, host, host.config.pcie.write_latency + 250.0)


def test_nic_dma_stall_defers_issue_to_window_end():
    sim, host = bare_host(FaultPlan((
        FaultSpec("hw.nic", "dma_stall", start=0.0, duration=1000.0),)))
    issue_one_write(sim, host)
    dma = host.nic.dma
    sim.run(until=999.0)
    assert dma.pending_writes == 1 and dma.writes_issued == 0
    landing_time(sim, host, 1000.0 + host.config.pcie.write_latency)
    assert dma.pending_writes == 0 and dma.writes_issued == 1


def test_descriptor_drop_counts_the_write_and_never_lands_it():
    sim, host = bare_host(FaultPlan((
        FaultSpec("hw.nic", "descriptor_drop", start=0.0, duration=1 * US,
                  magnitude=1.0),)))
    write = issue_one_write(sim, host)
    sim.run()
    dma = host.nic.dma
    assert write.dropped
    assert dma.dropped_writes == 1 and dma.writes_issued == 0
    assert host.iio.occupancy_gauge.max == 0
    assert host.memctrl.writes_completed == 0
