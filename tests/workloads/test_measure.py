"""Unit tests for the measurement-window machinery."""

import pytest

from repro.io_arch import build_arch
from repro.net import Flow, FlowKind
from repro.hw import CacheConfig, HostConfig
from repro.sim.units import US
from repro.workloads import MeasurementWindow
from tests.conftest import host_endpoint


def build():
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=256 * 1024)),
                        seed=2)
    arch = build_arch("baseline", bed.host)
    bed.install_io_arch(arch)
    return bed, arch


def test_window_zero_duration_rejected():
    bed, arch = build()
    window = MeasurementWindow(bed, arch)
    with pytest.raises(ValueError):
        window.finish()


def test_window_reports_deltas_not_totals():
    bed, arch = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    bed.add_flow(flow)
    rx = arch.flows[flow.flow_id]
    # Pre-window history that must not count.
    rx.processed.add(1000)
    rx.processed_bytes.add(1000 * 500)
    window = MeasurementWindow(bed, arch)
    bed.run(until=100 * US)
    rx.processed.add(10)
    rx.processed_bytes.add(10 * 500)
    m = window.finish()
    assert m.total_mpps == pytest.approx(10 / (100 * US) * 1e3)


def test_window_latency_histogram_reset():
    bed, arch = build()
    flow = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    bed.add_flow(flow)
    rx = arch.flows[flow.flow_id]
    rx.latency.record(10_000_000)  # huge warm-up outlier
    window = MeasurementWindow(bed, arch)
    bed.run(until=10 * US)
    rx.latency.record(1_000)
    m = window.finish()
    assert m.p999_us < 100  # the outlier is gone


def test_window_separates_involved_and_bypass():
    bed, arch = build()
    inv = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    byp = Flow(FlowKind.CPU_BYPASS, message_payload=1000)
    bed.add_flow(inv)
    bed.add_flow(byp)
    window = MeasurementWindow(bed, arch)
    bed.run(until=10 * US)
    arch.flows[inv.flow_id].processed.add(100)
    arch.flows[inv.flow_id].processed_bytes.add(100 * 500)
    arch.flows[byp.flow_id].processed.add(50)
    arch.flows[byp.flow_id].processed_bytes.add(50 * 1000)
    m = window.finish()
    assert m.involved_mpps > 0
    assert m.bypass_mpps > 0
    assert m.bypass_gbps > 0
    assert m.total_mpps == pytest.approx(m.involved_mpps + m.bypass_mpps)


def test_window_note_new_flow_midway():
    bed, arch = build()
    window = MeasurementWindow(bed, arch)
    bed.run(until=10 * US)
    late = Flow(FlowKind.CPU_INVOLVED, message_payload=500)
    bed.add_flow(late, late_ok=True)
    window.note_new_flow(late)
    arch.flows[late.flow_id].processed.add(7)
    bed.run(until=20 * US)
    m = window.finish()
    assert m.flow(late.name) is not None
    assert m.flow(late.name).mpps > 0


def test_window_miss_rate_delta():
    bed, arch = build()
    llc = bed.host.llc
    llc.io_insert("warm", 2048)
    llc.cpu_read("cold-warmup", 2048)  # pre-window miss
    window = MeasurementWindow(bed, arch)
    bed.run(until=10 * US)
    llc.cpu_read("warm", 2048)  # in-window hit
    m = window.finish()
    assert m.llc_miss_rate == 0.0
