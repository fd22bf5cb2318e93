"""Tests for the two-server testbed wiring (``two_host()`` fabric + ACK
path)."""

import pytest

from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind
from repro.net.fabric import DEFAULT_DELAY
from repro.sim.units import US
from repro.topo import two_host
from tests.conftest import host_endpoint


def test_add_flow_requires_installed_arch():
    bed = host_endpoint()
    with pytest.raises(RuntimeError, match="install_io_arch"):
        bed.add_flow(Flow(FlowKind.CPU_INVOLVED, message_payload=100))


def test_install_wires_ack_and_handler():
    bed = host_endpoint()
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    assert bed.host.nic.handler is arch
    assert arch.ack is not None


def test_ack_round_trip_delay():
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)))
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    sender = bed.add_flow(flow)
    done = []
    sender.submit_message(flow.make_message(), done.append)
    bed.run(until=100 * US)
    assert done
    msg = done[0]
    # Completion takes at least the forward + reverse propagation.
    assert (msg.complete_time - msg.submit_time
            >= 2 * DEFAULT_DELAY)


def test_ack_extra_mark_reaches_sender():
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)))
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    sender = bed.add_flow(flow)
    sender.submit_message(flow.make_message())
    bed.run(until=5 * US)  # packet en route / accepted

    marked = []
    original = sender.on_ack
    sender.on_ack = lambda seq, ecn: (marked.append(ecn),
                                      original(seq, ecn))
    # Re-ACK with a host-side mark (what HostCC/ShRing/CEIO guards do).
    pkt = flow.make_message().packets(flow, 99)[0]
    bed.ack(pkt, extra_mark=True)
    bed.run(until=10 * US)
    assert True in marked


def test_ack_for_unknown_flow_is_ignored():
    bed = host_endpoint()
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    ghost = Flow(FlowKind.CPU_INVOLVED, message_payload=100)
    pkt = ghost.make_message().packets(ghost, 0)[0]
    bed.ack(pkt)  # must not raise
    bed.run(until=5 * US)


def test_fabric_config_defaults():
    link = two_host().link_between("tor", "host")
    assert link.rate == pytest.approx(25.0)
    assert link.ecn_threshold < link.buffer


def test_reverse_delay_defaults_to_one_way_delay():
    link = two_host().link_between("tor", "host")
    assert link.ack_delay is None
    assert link.reverse_delay == link.delay
    asym = two_host(ack_delay=0.1 * US).link_between("tor", "host")
    assert asym.reverse_delay == pytest.approx(0.1 * US)


def test_asymmetric_ack_delay_shortens_round_trip():
    def round_trip(**link):
        bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)),
                            **link)
        arch = build_arch("baseline", bed.host)
        bed.install_io_arch(arch)
        flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
        sender = bed.add_flow(flow)
        done = []
        sender.submit_message(flow.make_message(), done.append)
        bed.run(until=100 * US)
        assert done
        return done[0].complete_time - done[0].submit_time

    symmetric = round_trip()
    asym = round_trip(ack_delay=0.1 * US)
    # Same forward path; the reverse path is 0.5 us shorter.
    assert symmetric - asym == pytest.approx(0.5 * US)


def test_add_flow_after_measurement_started_raises():
    from repro.workloads.measure import MeasurementWindow

    bed = host_endpoint()
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    bed.add_flow(Flow(FlowKind.CPU_INVOLVED, name="early",
                      message_payload=100))
    MeasurementWindow(bed, arch)
    late = Flow(FlowKind.CPU_INVOLVED, name="late", message_payload=100)
    with pytest.raises(RuntimeError, match="after measurement started"):
        bed.add_flow(late)
    # The error names the flow and the escape hatch.
    with pytest.raises(RuntimeError, match="'late'.*late_ok"):
        bed.add_flow(late)


def test_add_flow_late_ok_announces_flow_to_window():
    from repro.workloads.measure import MeasurementWindow

    bed = host_endpoint()
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    bed.add_flow(Flow(FlowKind.CPU_INVOLVED, name="early",
                      message_payload=100))
    window = MeasurementWindow(bed, arch)
    late = Flow(FlowKind.CPU_INVOLVED, name="late", message_payload=100)
    bed.add_flow(late, late_ok=True)
    bed.run(until=1 * US)
    measurement = window.finish()
    assert bed.active_window is None
    assert {fm.name for fm in measurement.flows} == {"early", "late"}


def test_window_clears_active_registration_on_finish():
    from repro.workloads.measure import MeasurementWindow

    bed = host_endpoint()
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    assert bed.active_window is None
    window = MeasurementWindow(bed, arch)
    assert bed.active_window is window
    bed.run(until=1 * US)
    window.finish()
    assert bed.active_window is None
    # After the window closes, plain add_flow works again.
    bed.add_flow(Flow(FlowKind.CPU_INVOLVED, name="next",
                      message_payload=100))
