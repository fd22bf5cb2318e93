#!/usr/bin/env python3
"""Quickstart: one CEIO receiver, one saturating echo client.

Builds the two-server testbed, installs the CEIO I/O architecture on the
receiver, attaches an echo server to a dedicated core, drives it with a
closed-loop client for one simulated millisecond, and prints the data-path
statistics — fast/slow path split, LLC miss rate, throughput, and tail
latency.

Run:  python examples/quickstart.py
"""

from repro import CeioArchitecture
from repro.apps import EchoServer
from repro.net import Flow, FlowKind, SaturatingSource
from repro.sim.units import MS, US, to_mpps
from repro.topo import Fabric, two_host


def main() -> None:
    # 1. The paper's two-server testbed: a client and one simulated
    #    receiver host (NIC, PCIe, IIO, LLC, DRAM, CPU cores) behind a
    #    200 Gbps ToR, with DCTCP senders. We drive the receiver's end.
    bed = Fabric(two_host(), seed=42).endpoints["host"]

    # 2. Install the receive-side I/O architecture. Swap this single line
    #    for LegacyDdioArch / HostccArch / ShringArch to compare designs.
    ceio = CeioArchitecture(bed.host)
    bed.install_io_arch(ceio)

    # 3. One CPU-involved echo flow served by a dedicated core.
    flow = Flow(FlowKind.CPU_INVOLVED, name="echo", message_payload=512)
    sender = bed.add_flow(flow)
    core = bed.host.cpu.allocate()
    server = EchoServer(ceio, flow, core)
    server.start()

    # 4. A closed-loop client that keeps 64 requests in flight.
    client = SaturatingSource(bed.sim, sender, outstanding=64)
    client.start()

    # 5. Run one simulated millisecond.
    bed.run(until=1 * MS)

    # 6. Inspect the data path.
    rx = ceio.flows[flow.flow_id]
    print(f"echoed            : {server.echoed.value:.0f} requests")
    print(f"throughput        : "
          f"{to_mpps(rx.processed.value / bed.sim.now):.2f} Mpps")
    print(f"p50 / p99 latency : {rx.latency.percentile(50) / US:.1f} / "
          f"{rx.latency.percentile(99) / US:.1f} us")
    print(f"LLC miss rate     : {bed.host.llc.stats.miss_rate * 100:.2f} %")
    print(f"fast-path share   : {ceio.fast_fraction() * 100:.1f} %")
    print(f"credits in flight : "
          f"{ceio.credits.account(flow.flow_id).inflight:.0f} "
          f"of {ceio.credits.total:.0f}")


if __name__ == "__main__":
    main()
