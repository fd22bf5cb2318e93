"""Table 4: mixed CPU-involved / CPU-bypass flows, with CEIO's
optimisations ablated.

Eight flows at involved:bypass ratios 3:1, 1:1, 1:3. Three systems:
Baseline, "CEIO w/o optimization" (no credit reallocation, no async slow
path, eager credit release), and full CEIO. Paper: full CEIO improves the
CPU-involved throughput 1.71-1.94x over baseline and always beats the
unoptimised variant — credit reallocation matters most when involved flows
dominate; the SW-ring/async machinery matters most when bypass dominates.

Sweep decomposition: one point per (system, flow ratio).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..runner.sweep import Point, make_point, run_points_serial
from ..workloads import compile_scenario, two_host_spec
from .report import ExperimentResult

__all__ = ["run", "points", "scenario_spec", "run_point", "collect",
           "RATIOS"]

RATIOS = [(6, 2), (4, 4), (2, 6)]  # 3:1, 1:1, 1:3 over 8 flows
SYSTEMS = ["baseline", "ceio-noopt", "ceio"]
DEFAULT_SEED = 17
_FN = "repro.experiments.table4:run_point"


#: "CEIO w/o optimization": eager release, no reallocation, sync drain.
CEIO_NO_OPT = {"lazy_release": False, "credit_reallocation": False,
               "async_drain": False}


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    pts = []
    for involved, bypass in RATIOS:
        for system in SYSTEMS:
            params = {"system": system, "involved": involved,
                      "bypass": bypass, "quick": quick}
            pts.append(make_point(
                "table4", _FN, params, seed, DEFAULT_SEED,
                label=f"{system}.{involved}-{bypass}"))
    return pts


def scenario_spec(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    system = params["system"]
    host: Dict[str, Any] = {
        "arch": "baseline" if system == "baseline" else "ceio"}
    if system == "ceio-noopt":
        host["ceio"] = CEIO_NO_OPT
    # Deep client pipelines: the bypass traffic inflates the fabric RTT, so
    # a shallow closed loop would cap the RPC clients below the server's
    # CPU capacity and hide the cache effect this table measures.
    tenants = [
        {"name": "kv", "workload": "kvstore", "flows": params["involved"],
         "payload": 144, "outstanding": 2048},
        {"name": "dfs", "workload": "linefs", "flows": params["bypass"],
         "payload": 1024, "chunk_packets": 32, "outstanding": 170},
    ]
    quick = params["quick"]
    return two_host_spec(tenants, seed=seed,
                         warmup_us=400.0 if quick else 800.0,
                         duration_us=500.0 if quick else 1000.0, **host)


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    m = compile_scenario(scenario_spec(params, seed)).run_measure()["host"]
    return {"mpps": m.involved_mpps}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="table4",
        title="Mixed I/O flows: CPU-involved Mpps, CEIO ablation",
        paper_claim=("CEIO 1.71-1.94x over baseline across ratios; "
                     "optimisations lift the unoptimised variant at every "
                     "ratio (1.53->1.94x at 3:1, 1.16->1.71x at 1:3)"),
    )
    result.headers = ["ratio", "baseline_mpps", "ceio_noopt_mpps",
                      "noopt_x", "ceio_mpps", "ceio_x"]
    data: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
    for involved, bypass in RATIOS:
        base = results[f"table4/baseline.{involved}-{bypass}"]["mpps"]
        noopt = results[f"table4/ceio-noopt.{involved}-{bypass}"]["mpps"]
        full = results[f"table4/ceio.{involved}-{bypass}"]["mpps"]
        data[(involved, bypass)] = (base, noopt, full)
        result.rows.append([f"{involved//2}:{bypass//2}", base, noopt,
                            noopt / base, full, full / base])

    for (involved, bypass), (base, noopt, full) in data.items():
        ratio = f"{involved//2}:{bypass//2}"
        if involved >= bypass:
            result.check_ratio(f"{ratio}: full CEIO speedup over baseline",
                               full, base, 1.2)
        result.check(f"{ratio}: optimisations add throughput",
                     full >= noopt * 0.98,
                     f"full {full:.1f} vs no-opt {noopt:.1f} Mpps")
    result.notes.append(
        "divergence: at 1:3 our baseline's two RPC flows end up "
        "network-share-limited below their miss-free CPU capacity (the "
        "simulated DCTCP fabric throttles them alongside the bulk flows), "
        "so the paper's 1.71x baseline gap does not reproduce at that "
        "ratio; the optimisation ordering (full CEIO > unoptimised) does")
    return result


def run(quick: bool = True, seed: Optional[int] = None) -> ExperimentResult:
    return collect(run_points_serial(points(quick, seed)), quick, seed)
