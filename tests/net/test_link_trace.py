"""Satellite: every link-level drop emits one attributable trace event
(kind, flow, seq) when a tracer is attached — and none when not."""

from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, Message
from repro.sim.trace import Tracer
from repro.sim.units import US
from tests.conftest import host_endpoint


def build(seed=5):
    testbed = host_endpoint(HostConfig(
        cache=CacheConfig(size=512 * 1024)), seed=seed)
    testbed.install_io_arch(build_arch("baseline", testbed.host))
    sender = testbed.add_flow(Flow(FlowKind.CPU_INVOLVED, name="f0",
                                   message_payload=512))

    def proc(sim):
        for _ in range(40):
            sender.submit_message(Message(512, 1))
            yield 1000.0

    testbed.sim.process(proc(testbed.sim))
    return testbed, sender


def test_fault_drops_emit_attributed_trace_events():
    testbed, _ = build()
    tracer = Tracer(testbed.sim)
    testbed.port.tracer = tracer
    install_plan(testbed, FaultPlan((
        FaultSpec("net.link", "corrupt", start=5 * US, duration=20 * US,
                  magnitude=1.0),)))
    testbed.run(until=100 * US)
    drops = tracer.category("link.drop")
    assert len(drops) == testbed.port.fault_dropped > 0
    flow_id = testbed.flows[0].flow_id
    seqs = set()
    for event in drops:
        assert event.fields["link"] == "tor"
        assert event.fields["kind"] == "corrupt"
        assert event.fields["flow"] == flow_id
        seqs.add(event.fields["seq"])
    assert len(seqs) == len(drops)             # one event per lost packet
    # All inside the fault window.
    assert all(5 * US <= e.time < 25 * US for e in drops)


def test_no_tracer_means_no_events_and_same_drops():
    def run(with_tracer):
        testbed, sender = build()
        tracer = Tracer(testbed.sim)
        if with_tracer:
            testbed.port.tracer = tracer
        install_plan(testbed, FaultPlan((
            FaultSpec("net.link", "loss", start=5 * US, duration=20 * US,
                      magnitude=0.5),)))
        testbed.run(until=100 * US)
        return (testbed.port.fault_dropped,
                sender.packets_acked, len(tracer.events))

    dropped_t, acked_t, events_t = run(True)
    dropped_n, acked_n, events_n = run(False)
    # Tracing is pure observation: identical simulation either way.
    assert (dropped_t, acked_t) == (dropped_n, acked_n)
    assert events_t == dropped_t
    assert events_n == 0
