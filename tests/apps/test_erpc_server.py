"""The eRPC server's callback state machine.

The server is a chain of calendar callbacks (poll, buffer read, copy,
compute) instead of a process. Its calendar must be the one the process
loop pushed, on every path the benchmark workloads do not take: a stop
in the middle of a burst, the copying receive (``zero_copy=False``), the
RDMA transport, and CEIO's blocking receive (``async_drain=False``),
which runs through ``Simulator.drive``. The pinned values were captured
on the process loop.
"""

from __future__ import annotations

import pytest

from repro.apps import ErpcConfig, ErpcServer, KvStore
from repro.core import CeioConfig
from repro.hw import CacheConfig, HostConfig
from repro.io_arch import build_arch
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import US
from tests.conftest import host_endpoint


def _run(case: str):
    """Two KV flows of 144 B requests into two eRPC servers, 32
    outstanding each, for 150 us. In ``stop`` the first server stops
    itself from inside its handler when 40 requests are done."""
    if case == "sync":
        arch_name, llc = "ceio", 64 * 1024
        kwargs = {"config": CeioConfig(async_drain=False)}
    elif case == "copy":
        arch_name, llc, kwargs = "ceio", 256 * 1024, {}
    else:
        arch_name, llc, kwargs = "baseline", 512 * 1024, {}
    bed = host_endpoint(HostConfig(cache=CacheConfig(size=llc)), seed=9)
    arch = build_arch(arch_name, bed.host, **kwargs)
    bed.install_io_arch(arch)
    servers = []
    stopped = {}
    for i in range(2):
        flow = Flow(FlowKind.CPU_INVOLVED, name=f"f{i}", message_payload=144)
        bed.add_flow(flow)
        config = ErpcConfig(transport="rdma" if case == "rdma" else "dpdk",
                            zero_copy=case != "copy")
        kv = KvStore(entries=64)
        handler = kv.handle
        if case == "stop" and i == 0:
            def handler(ctx, kv=kv):
                server = servers[0]
                if server.requests == 40 and not stopped:
                    stopped["at"] = (server.requests,
                                     server.ethdev.rx_burst_calls,
                                     bed.sim.now)
                    server.stop()
                return kv.handle(ctx)
        server = ErpcServer(arch, flow, bed.host.cpu.allocate(), handler,
                            config=config)
        server.start()
        servers.append(server)
        SaturatingSource(bed.sim, bed.senders[flow.flow_id],
                         outstanding=32).start()
    bed.run(until=150 * US)
    out = {"requests": [s.requests for s in servers],
           "busy": [s.core.busy_ns for s in servers],
           "polls": [s.ethdev.rx_burst_calls for s in servers],
           "events": bed.sim.events_executed}
    if case == "sync":
        out["sync_fetches"] = arch.driver.sync_fetches
    if case == "stop":
        out["stopped_at"] = stopped["at"]
    return out


EXPECTED = {
    # Stopped with 40 requests done, in the middle of a burst at the
    # 11th poll: the burst is served to its end (64) and no poll
    # follows.
    "stop": {"requests": [64.0, 787.0], "busy": [6340.0, 149026.5758861789],
             "polls": [11.0, 36.0], "events": 49791,
             "stopped_at": (40.0, 11.0, 4942.5)},
    "copy": {"requests": [948.0, 946.0],
             "busy": [148816.64895198087, 148560.95014852862],
             "polls": [41.0, 43.0], "events": 19986},
    "rdma": {"requests": [672.0, 670.0],
             "busy": [149052.8934770258, 148817.26847702576],
             "polls": [31.0, 32.0], "events": 50774},
    "sync": {"requests": [983.0, 971.0], "busy": [97378.4375, 96189.6875],
             "polls": [45.0, 42.0], "events": 15700, "sync_fetches": 61.0},
}


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_callback_server_keeps_the_process_calendar(case):
    assert _run(case) == EXPECTED[case]
