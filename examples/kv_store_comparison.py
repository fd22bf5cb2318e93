#!/usr/bin/env python3
"""Compare all four I/O architectures on the paper's KV-store workload.

Eight eRPC key-value flows (144 B requests, 1:1 get/put) saturate the
receiver — the Figure 9 setup at one packet size. Prints a side-by-side
table of throughput, LLC miss rate, and tail latency.

Run:  python examples/kv_store_comparison.py
"""

from repro.experiments.report import render_table
from repro.workloads import compile_scenario, two_host_spec


def main() -> None:
    rows = []
    for arch in ("baseline", "hostcc", "shring", "ceio"):
        spec = two_host_spec(
            [{"name": "kv", "workload": "kvstore", "flows": 8,
              "payload": 144}], seed=1, arch=arch)
        m = compile_scenario(spec).run_measure()["host"]
        rows.append([arch, m.involved_mpps, m.llc_miss_rate * 100,
                     m.p99_us, m.p999_us, m.dropped])
        print(f"  ... {arch} done "
              f"({m.involved_mpps:.1f} Mpps, "
              f"{m.llc_miss_rate * 100:.0f}% miss)")
    print()
    print(render_table(
        ["arch", "Mpps", "LLC miss %", "P99 us", "P99.9 us", "drops"],
        rows))
    print()
    base = rows[0][1]
    best = max(rows, key=lambda r: r[1])
    print(f"{best[0]} delivers {best[1] / base:.2f}x the baseline's "
          f"throughput (paper: 1.3-2.1x statically).")


if __name__ == "__main__":
    main()
