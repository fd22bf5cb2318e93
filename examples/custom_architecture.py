#!/usr/bin/env python3
"""Extending the library: plug in your own receive-side I/O architecture.

Implements a toy "static partition" architecture — every flow gets a fixed
1/n slice of the DDIO buffer budget, enforced by dropping — and runs it
against CEIO on the KV workload. The point is the API surface: subclass
:class:`repro.io_arch.IOArchitecture`, override ``on_packet`` (NIC
firmware context: return None, or the generator of whatever the packet
must wait for) and ``release`` (host buffer recycling), register it, and
every app, workload, and experiment in the library can use it.

Run:  python examples/custom_architecture.py
"""

from repro.experiments.report import render_table
from repro.io_arch import ARCHITECTURES, IOArchitecture
from repro.workloads import compile_scenario, two_host_spec


class StaticPartitionArch(IOArchitecture):
    """Each flow may keep at most ``C_total / n_flows`` buffers in flight;
    excess packets are dropped (the network CCA slows the sender)."""

    name = "static-partition"

    def quota(self) -> int:
        return max(1, self.host.total_credits // max(1, len(self.flows)))

    def on_packet(self, packet):
        rx = self.flows.get(packet.flow.flow_id)
        if rx is None or rx.in_use >= self.quota():
            self._drop(packet, rx)
            return None
        return self._dma_to_host(packet, rx, ddio=True)


def main() -> None:
    ARCHITECTURES["static-partition"] = StaticPartitionArch
    rows = []
    for arch in ("static-partition", "ceio"):
        spec = two_host_spec(
            [{"name": "kv", "workload": "kvstore", "flows": 8,
              "payload": 144}], seed=4, arch=arch)
        m = compile_scenario(spec).run_measure()["host"]
        rows.append([arch, m.involved_mpps, m.llc_miss_rate * 100,
                     m.p999_us, m.dropped])
        print(f"  ... {arch}: {m.involved_mpps:.1f} Mpps")
    print()
    print(render_table(["arch", "Mpps", "LLC miss %", "P99.9 us", "drops"],
                       rows))
    print()
    print("The static partition avoids misses too, but pays in drops and")
    print("CCA back-off wherever a flow's instantaneous demand exceeds its")
    print("slice — the rigidity CEIO's credit reallocation removes.")


if __name__ == "__main__":
    main()
