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

Sweep decomposition: one point per zero-copy variant (lesson 1) and one
per (transport, arch) (lesson 3).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..apps.erpc import ErpcConfig, ErpcServer
from ..net import Flow, FlowKind, SaturatingSource
from ..io_arch import build_arch
from ..runner.sweep import Point, make_point
from ..sim.units import US
from ..topo import Fabric, two_host
from ..workloads import compile_scenario, scaled_host_config, two_host_spec
from .report import ExperimentResult

__all__ = ["points", "scenario_spec", "run_point", "collect"]


DEFAULT_SEED = 37
TRANSPORTS = ["dpdk", "rdma"]
ARCHS = ["baseline", "ceio"]
_FN = "repro.experiments.lessons:run_point"


def _rpc_throughput(zero_copy: bool, quick: bool, seed: int) -> float:
    """Single CEIO server, 8 flows, with/without the zero-copy path.

    Wired by hand on the testbed fabric: a scenario spec has no field
    for :attr:`ErpcConfig.zero_copy`, the one thing this lesson varies."""
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
    total = sum(s.requests for s in servers)
    return total / horizon * 1e3  # Mpps


def scenario_spec(transport: str, arch: str, quick: bool,
                  seed: int) -> Dict[str, Any]:
    """The transport-agnosticism run: 8 KV flows of 144 B requests."""
    return two_host_spec(
        [{"name": "kv", "workload": "kvstore", "flows": 8, "payload": 144,
          "transport": transport}],
        seed=seed, arch=arch, warmup_us=300.0 if quick else 600.0,
        duration_us=400.0 if quick else 800.0)


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    pts = []
    for variant, zero_copy in (("zero-copy", True), ("copying", False)):
        params = {"zero_copy": zero_copy, "quick": quick}
        pts.append(make_point("lessons", _FN, params, seed, DEFAULT_SEED,
                              label=f"zero-copy.{variant}"))
    for transport in TRANSPORTS:
        for arch in ARCHS:
            params = {"transport": transport, "arch": arch, "quick": quick}
            pts.append(make_point("lessons", _FN, params, seed,
                                  DEFAULT_SEED,
                                  label=f"transport-{transport}.{arch}"))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    quick = params["quick"]
    if "zero_copy" in params:
        return {"mpps": _rpc_throughput(params["zero_copy"], quick, seed)}
    spec = scenario_spec(params["transport"], params["arch"], quick, seed)
    m = compile_scenario(spec).run_measure()["host"]
    return {"mpps": m.involved_mpps}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="lessons",
        title="§6.4 lessons: zero-copy necessity & transport agnosticism",
        paper_claim=("LineFS (copying) reaches only ~45% of eRPC "
                     "(zero-copy) under the same optimal I/O path; CEIO's "
                     "gains are similar under DPDK and RDMA transports"),
    )
    result.headers = ["lesson", "variant", "mpps"]

    zc = results["lessons/zero-copy.zero-copy"]["mpps"]
    copying = results["lessons/zero-copy.copying"]["mpps"]
    result.rows.append(["zero-copy", "zero-copy", zc])
    result.rows.append(["zero-copy", "copying", copying])
    result.check(
        "copying forfeits a large share of the optimal path's throughput",
        copying < 0.8 * zc,
        f"copying {copying:.1f} vs zero-copy {zc:.1f} Mpps "
        f"({copying / zc:.0%})")

    gains = {}
    for transport in TRANSPORTS:
        rates = {arch: results[f"lessons/transport-{transport}.{arch}"]
                 ["mpps"] for arch in ARCHS}
        gains[transport] = rates["ceio"] / max(1e-9, rates["baseline"])
        for arch in ARCHS:
            result.rows.append([f"transport-{transport}", arch,
                                rates[arch]])
    result.check(
        "CEIO's speedup is comparable under DPDK and RDMA (within 30%)",
        abs(gains["dpdk"] - gains["rdma"])
        <= 0.3 * max(gains["dpdk"], gains["rdma"]),
        f"dpdk x{gains['dpdk']:.2f} vs rdma x{gains['rdma']:.2f}")
    return result
