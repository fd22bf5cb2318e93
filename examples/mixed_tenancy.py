#!/usr/bin/env python3
"""Mixed tenancy: an RPC service and a distributed file system sharing one
server — the paper's motivating co-location scenario (§2.2).

Six CPU-involved eRPC/KV flows share the receiver with two CPU-bypass
LineFS flows. Under plain DDIO the file transfers flush the RPC service's
packets out of the LLC; CEIO's credit reallocation keeps the RPC flows on
the fast path while the bulk transfers ride the elastic slow path.

Run:  python examples/mixed_tenancy.py
"""

from repro.experiments.report import render_table
from repro.workloads import compile_scenario, two_host_spec


def main() -> None:
    rows = []
    for arch in ("baseline", "ceio"):
        spec = two_host_spec(
            [{"name": "kv", "workload": "kvstore", "flows": 6,
              "payload": 144},
             {"name": "dfs", "workload": "linefs", "flows": 2,
              "payload": 1024, "chunk_packets": 32, "outstanding": 8}],
            seed=2, arch=arch)
        m = compile_scenario(spec).run_measure()["host"]
        ff = m.extras.get("fast_fraction", float("nan"))
        rows.append([arch, m.involved_mpps, m.bypass_gbps,
                     m.llc_miss_rate * 100,
                     f"{ff * 100:.0f}%" if ff == ff else "n/a"])
        print(f"  ... {arch}: RPC {m.involved_mpps:.1f} Mpps, "
              f"DFS {m.bypass_gbps:.0f} Gbps")
    print()
    print(render_table(
        ["arch", "RPC Mpps", "DFS Gbps", "LLC miss %", "fast-path share"],
        rows))
    print()
    print("CEIO keeps the latency-critical RPC flows cache-resident while")
    print("the file transfers are absorbed by on-NIC elastic buffering.")


if __name__ == "__main__":
    main()
