"""Figure 9: throughput and LLC miss rate vs packet size, static load.

Three panels — eRPC(DPDK), eRPC(RDMA), LineFS(RDMA) — each sweeping the
packet size from 128 B to 1024 B for Baseline / HostCC / ShRing / CEIO.

Paper's observations reproduced as shape checks:
- CEIO cuts the LLC miss rate from ~88% to ~1% and wins throughput;
- proactive CEIO beats reactive HostCC (up to 1.5x);
- ShRing's miss rate is comparable to CEIO's but its throughput is lower;
- gains shrink as packets grow (large packets amortise per-packet cost).

The sweep is exposed as independent :class:`~repro.runner.sweep.Point`\\ s
(``points()`` / ``run_point()`` / ``collect()``) so ``repro.runner`` can
execute it across a worker pool; ``run()`` is the serial composition of
the three and produces bit-identical results for any ``--jobs`` value.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..runner.sweep import Point, make_point, run_points_serial
from ..workloads import compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["run", "points", "scenario_spec", "run_point", "collect"]

ARCHS = ["baseline", "hostcc", "shring", "ceio"]
SIZES_QUICK = [144, 512, 1024]
SIZES_FULL = [128, 256, 512, 1024]
PANELS = [("erpc-dpdk", "dpdk", False),
          ("erpc-rdma", "rdma", False),
          ("linefs", "rdma", True)]
DEFAULT_SEED = 7
_FN = "repro.experiments.fig09:run_point"


def _panels(quick: bool) -> List[Tuple[str, str, bool]]:
    return PANELS[:1] + PANELS[2:] if quick else PANELS  # dpdk + linefs


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    pts = []
    for panel, transport, bypass in _panels(quick):
        for arch in ARCHS:
            for size in sizes:
                params = {"panel": panel, "transport": transport,
                          "bypass": bypass, "arch": arch, "size": size,
                          "quick": quick}
                pts.append(make_point(
                    "fig09", _FN, params, seed, DEFAULT_SEED,
                    label=f"{panel}.{arch}.{size}"))
    return pts


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One point's testbed: 8 LineFS flows of ``size``-byte packets over
    RDMA, or 8 KV flows of ``size``-byte requests."""
    if params["bypass"]:
        tenant = {"name": "dfs", "workload": "linefs", "flows": 8,
                  "payload": params["size"], "chunk_packets": 32,
                  "outstanding": 8}
    else:
        tenant = {"name": "kv", "workload": "kvstore", "flows": 8,
                  "payload": params["size"],
                  "transport": params["transport"]}
    quick = params["quick"]
    return two_host_spec([tenant], seed=seed, arch=params["arch"],
                         warmup_us=400.0 if quick else 800.0,
                         duration_us=500.0 if quick else 1000.0)


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    m = compile_scenario(scenario_spec(params, seed)).run_measure()["host"]
    rate = m.bypass_mpps if params["bypass"] else m.involved_mpps
    return {"mpps": rate, "miss": m.llc_miss_rate}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig09",
        title="Throughput & LLC miss rate vs packet size (static)",
        paper_claim=("CEIO reduces miss rate 88%->1%, 1.3-2.1x throughput "
                     "vs baseline, up to 1.5x vs HostCC; ShRing miss rate "
                     "similar to CEIO but throughput lower"),
    )
    result.headers = ["panel", "arch", "payload_B", "mpps", "miss_%"]
    sizes = SIZES_QUICK if quick else SIZES_FULL

    def cell(panel: str, arch: str, size: int) -> Dict[str, float]:
        return results[f"fig09/{panel}.{arch}.{size}"]

    for panel, _transport, bypass in _panels(quick):
        mpps: Dict[str, Dict[int, float]] = {}
        miss: Dict[str, Dict[int, float]] = {}
        for arch in ARCHS:
            mpps[arch] = {}
            miss[arch] = {}
            for size in sizes:
                value = cell(panel, arch, size)
                mpps[arch][size] = value["mpps"]
                miss[arch][size] = value["miss"]
                result.rows.append([panel, arch, size, value["mpps"],
                                    value["miss"] * 100.0])
        small = sizes[0]
        if not bypass:
            result.check_order(
                f"{panel}: throughput order at {small}B "
                "(ceio >= shring >= hostcc >= baseline)",
                {a: mpps[a][small] for a in ARCHS},
                ["ceio", "shring", "hostcc", "baseline"])
            result.check_ratio(
                f"{panel}: ceio/baseline speedup at {small}B in paper band",
                mpps["ceio"][small], mpps["baseline"][small], 1.3, 4.0)
            result.check(
                f"{panel}: baseline misses heavily at {small}B",
                miss["baseline"][small] > 0.5,
                f"baseline miss {miss['baseline'][small]*100:.0f}%")
            result.check(
                f"{panel}: ceio miss rate ~ eliminated",
                miss["ceio"][small] < 0.05,
                f"ceio miss {miss['ceio'][small]*100:.2f}%")
            result.check(
                f"{panel}: gains shrink at large packets",
                (mpps["ceio"][sizes[-1]] / max(1e-9, mpps["baseline"][sizes[-1]]))
                < (mpps["ceio"][small] / max(1e-9, mpps["baseline"][small])),
            )
        else:
            result.check(
                f"{panel}: ceio >= baseline (within noise)",
                mpps["ceio"][sizes[-1]]
                >= 0.97 * mpps["baseline"][sizes[-1]],
                f"ceio {mpps['ceio'][sizes[-1]]:.2f} vs baseline "
                f"{mpps['baseline'][sizes[-1]]:.2f} Mpps — both line-rate "
                "limited at large chunks, as §6.3 predicts")
            result.check(
                f"{panel}: ceio miss rate low",
                miss["ceio"][sizes[-1]] < 0.15,
                f"{miss['ceio'][sizes[-1]]*100:.1f}%")
    return result


def run(quick: bool = True, seed: Optional[int] = None) -> ExperimentResult:
    return collect(run_points_serial(points(quick, seed)), quick, seed)
