"""Table 3: latency of CEIO's fast and slow paths vs raw RDMA write.

``ib_write_lat``-style ping-pong at 64 B / 1024 B / 4096 B. Paper: CEIO
adds a modest 1.10-1.48x latency overhead (absolute overhead < 10 µs,
negligible vs transport-protocol time constants); the slow path is always
the slowest, with the penalty growing for large packets.

Sweep decomposition: one point per (mode, message size).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..apps import ib_write_lat
from ..runner.sweep import Point, make_point
from .report import ExperimentResult

__all__ = ["points", "run_point", "collect"]

SIZES = [64, 1024, 4096]
MODES = ["raw", "fast", "slow"]
#: perftest's own default seed — keeps the default table bit-identical.
DEFAULT_SEED = 0
_FN = "repro.experiments.table3:run_point"


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    pts = []
    for size in SIZES:
        for mode in MODES:
            params = {"mode": mode, "size": size, "quick": quick}
            pts.append(make_point("table3", _FN, params, seed, DEFAULT_SEED,
                                  label=f"{mode}.{size}"))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    iters = 60 if params["quick"] else 200
    arch = "baseline" if params["mode"] == "raw" else "ceio"
    lat = ib_write_lat(arch, params["size"], iters=iters,
                       force_slow=params["mode"] == "slow", seed=seed)
    return {"avg_us": lat.avg_us}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="table3",
        title="Latency (µs) of CEIO fast/slow paths vs raw RDMA write",
        paper_claim=("modest overhead (paper: 1.10-1.48x, <10µs absolute); "
                     "slow path > fast path > raw"),
    )
    result.headers = ["msg_B", "raw_us", "fast_us", "fast_x",
                      "slow_us", "slow_x"]
    for size in SIZES:
        raw = results[f"table3/raw.{size}"]["avg_us"]
        fast = results[f"table3/fast.{size}"]["avg_us"]
        slow = results[f"table3/slow.{size}"]["avg_us"]
        result.rows.append([size, raw, fast, fast / raw, slow, slow / raw])
        result.check_order(
            f"{size}B: slow >= fast >= raw",
            {"slow": slow, "fast": fast, "raw": raw},
            ["slow", "fast", "raw"])
        result.check(
            f"{size}B: absolute overhead stays below 10µs",
            slow - raw < 10.0,
            f"slow-raw = {slow - raw:.2f}µs")
        result.check(
            f"{size}B: fast-path overhead modest (<1.6x)",
            fast / raw < 1.6,
            f"{fast / raw:.2f}x")
    return result
