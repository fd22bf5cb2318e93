"""§6.4 "Lessons Learned": the quantitative claims behind the prose.

Three lessons with measurable content:

1. **zero-copy is essential** — the improvement gap between eRPC and
   LineFS traces to memory copies: with CEIO's optimal I/O path, an
   otherwise identical RPC server that copies each request loses a large
   fraction of its throughput (the paper measures LineFS at 45% of eRPC's
   at the worst point, with ~10% residual misses from the copies);
2. **slow-path penalty grows with flow count** — the per-flow slow-path
   bandwidth drops when many flows hold on-NIC buffers (chaotic access,
   internal switch; ~15 Gbps at 512 B in the paper);
3. **CEIO is transport-agnostic** — eRPC gains hold under both the DPDK
   and RDMA transports (the compatibility claim of §5).
"""

from __future__ import annotations

from typing import Optional

from ..apps.erpc import ErpcConfig, ErpcServer
from ..net import Flow, FlowKind, SaturatingSource
from ..io_arch import build_arch
from ..sim.units import US
from ..topo import Fabric, two_host
from ..workloads import Scenario, ScenarioConfig, scaled_host_config
from .report import ExperimentResult

__all__ = ["run"]


DEFAULT_SEED = 37


def _rpc_throughput(zero_copy: bool, quick: bool, seed: int) -> float:
    """Single CEIO server, 8 flows, with/without the zero-copy path."""
    bed = Fabric(two_host(), host_config=scaled_host_config(4),
                 seed=seed).endpoints["host"]
    arch = build_arch("ceio", bed.host)
    bed.install_io_arch(arch)
    servers = []
    for i in range(8):
        # 144 B KV requests: the CPU, not the link, is the bottleneck, so
        # per-request copy cost translates directly into lost throughput.
        flow = Flow(FlowKind.CPU_INVOLVED, name=f"f{i}",
                    message_payload=144)
        sender = bed.add_flow(flow)
        server = ErpcServer(arch, flow, bed.host.cpu.allocate(),
                            lambda ctx: 120.0,
                            config=ErpcConfig(zero_copy=zero_copy))
        server.start()
        servers.append(server)
        SaturatingSource(bed.sim, sender, outstanding=96).start()
    horizon = 400 * US if quick else 800 * US
    bed.run(until=horizon)
    total = sum(s.requests.value for s in servers)
    return total / horizon * 1e3  # Mpps


def run(quick: bool = True,
        seed: Optional[int] = None) -> ExperimentResult:
    root_seed = DEFAULT_SEED if seed is None else seed
    result = ExperimentResult(
        exp_id="lessons",
        title="§6.4 lessons: zero-copy necessity & transport agnosticism",
        paper_claim=("LineFS (copying) reaches only ~45% of eRPC "
                     "(zero-copy) under the same optimal I/O path; CEIO's "
                     "gains are similar under DPDK and RDMA transports"),
    )
    result.headers = ["lesson", "variant", "mpps"]

    zc = _rpc_throughput(zero_copy=True, quick=quick, seed=root_seed)
    copying = _rpc_throughput(zero_copy=False, quick=quick,
                              seed=root_seed)
    result.rows.append(["zero-copy", "zero-copy", zc])
    result.rows.append(["zero-copy", "copying", copying])
    result.check(
        "copying forfeits a large share of the optimal path's throughput",
        copying < 0.8 * zc,
        f"copying {copying:.1f} vs zero-copy {zc:.1f} Mpps "
        f"({copying / zc:.0%})")

    gains = {}
    for transport in ("dpdk", "rdma"):
        rates = {}
        for arch in ("baseline", "ceio"):
            config = ScenarioConfig(
                arch=arch, n_involved=8, payload=144, transport=transport,
                warmup=(300 * US if quick else 600 * US),
                duration=(400 * US if quick else 800 * US), seed=root_seed)
            rates[arch] = Scenario(config).build().run_measure().involved_mpps
        gains[transport] = rates["ceio"] / max(1e-9, rates["baseline"])
        result.rows.append([f"transport-{transport}", "baseline",
                            rates["baseline"]])
        result.rows.append([f"transport-{transport}", "ceio",
                            rates["ceio"]])
    result.check(
        "CEIO's speedup is comparable under DPDK and RDMA (within 30%)",
        abs(gains["dpdk"] - gains["rdma"])
        <= 0.3 * max(gains["dpdk"], gains["rdma"]),
        f"dpdk x{gains['dpdk']:.2f} vs rdma x{gains['rdma']:.2f}")
    return result
