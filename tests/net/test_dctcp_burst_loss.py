"""Property test (hypothesis): DCTCP's RTO recovers every message under
injected Gilbert–Elliott burst loss.

For any burst-loss shape drawn from the strategy, and losses actually
observed on the wire, the transport must (a) retransmit — losses are
repaired, not ignored; (b) complete every submitted message within a
bounded horizon — no permanent stall; (c) ACK every data packet exactly
once at the application level (completion events all fire)."""

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev extra
    HAVE_HYPOTHESIS = False

from repro.faults import FaultPlan, FaultSpec, install_plan
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, Message
from repro.sim.units import MS, US
from tests.conftest import host_endpoint

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")

N_MESSAGES = 30
#: Generous bound: tens of RTO cycles (RTO is 200 us), far past anything
#: a live transport needs — hitting it means a permanent stall.
HORIZON = 20 * MS

burst_shapes = st.fixed_dictionaries({
    "magnitude": st.floats(min_value=0.1, max_value=1.0),
    "p_good_bad": st.floats(min_value=0.01, max_value=0.3),
    "p_bad_good": st.floats(min_value=0.05, max_value=0.5),
    "duration_us": st.integers(min_value=20, max_value=200),
    "seed": st.integers(min_value=0, max_value=2**20),
})


@settings(max_examples=15, deadline=None)
@given(shape=burst_shapes)
def test_rto_recovers_every_message_under_burst_loss(shape):
    testbed = host_endpoint(HostConfig(
        cache=CacheConfig(size=512 * 1024)), seed=shape["seed"])
    testbed.install_io_arch(build_arch("baseline", testbed.host))
    sender = testbed.add_flow(Flow(FlowKind.CPU_INVOLVED, name="f0",
                                   message_payload=512))
    install_plan(testbed, FaultPlan((
        FaultSpec("net.link", "burst_loss", start=2 * US,
                  duration=shape["duration_us"] * US,
                  magnitude=shape["magnitude"],
                  params={"p_good_bad": shape["p_good_bad"],
                          "p_bad_good": shape["p_bad_good"]}),)))

    completed = []

    def proc(sim):
        for _ in range(N_MESSAGES):
            sender.submit_message(Message(512, 1), completed.append)
            yield 2000.0

    testbed.sim.process(proc(testbed.sim))
    testbed.run(until=HORIZON)

    lost = testbed.port.fault_dropped
    # (a) wire losses are repaired by retransmission, not ignored. (Not
    # one-to-one: a drop can hit a spurious retransmission whose original
    # already got through, needing no further repair.)
    if lost > 0:
        assert sender.retransmits > 0
    # (b, c) no permanent stall: every message completed in the horizon.
    assert len(completed) == N_MESSAGES
    assert sender.packets_acked >= N_MESSAGES
