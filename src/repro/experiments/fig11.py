"""Figure 11: CEIO fast path vs slow path vs perftest ib_write_bw.

Single-flow RDMA-write bandwidth over message size; the slow path is
forced by zeroing the flow's credits. Paper: the fast path matches raw
perftest (flow-control overhead negligible) and the slow path approaches
the fast path once messages exceed 4 KB (gap < 22%).

Sweep decomposition: one point per (mode, message size) — ``raw`` is the
baseline architecture, ``fast``/``slow`` are CEIO with and without
credits.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..apps import ib_write_bw
from ..runner.sweep import Point, make_point
from ..sim.units import MS
from .report import ExperimentResult

__all__ = ["points", "run_point", "collect"]

SIZES_QUICK = [512, 4096, 65536]
SIZES_FULL = [64, 512, 1024, 4096, 16384, 65536]
MODES = ["raw", "fast", "slow"]
#: perftest's own default seed (``ib_write_bw(seed=0)``) — kept so the
#: default sweep is bit-identical to the pre-runner figure.
DEFAULT_SEED = 0
_FN = "repro.experiments.fig11:run_point"


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    sizes = SIZES_QUICK if quick else SIZES_FULL
    pts = []
    for size in sizes:
        for mode in MODES:
            params = {"mode": mode, "size": size, "quick": quick}
            pts.append(make_point("fig11", _FN, params, seed, DEFAULT_SEED,
                                  label=f"{mode}.{size}"))
    return pts


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    duration = 0.3 * MS if params["quick"] else 0.8 * MS
    arch = "baseline" if params["mode"] == "raw" else "ceio"
    bw = ib_write_bw(arch, params["size"], duration=duration,
                     force_slow=params["mode"] == "slow", seed=seed)
    return {"gbps": bw.gbps}


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig11",
        title="Fast path vs slow path vs ib_write_bw",
        paper_claim=("CEIO fast path ~= ib_write_bw (control overhead "
                     "negligible); slow path within 22% of fast beyond 4KB"),
    )
    result.headers = ["msg_B", "raw_gbps", "fast_gbps", "slow_gbps",
                      "slow_gap_%"]
    sizes = SIZES_QUICK if quick else SIZES_FULL
    raw = {s: results[f"fig11/raw.{s}"]["gbps"] for s in sizes}
    fast = {s: results[f"fig11/fast.{s}"]["gbps"] for s in sizes}
    slow = {s: results[f"fig11/slow.{s}"]["gbps"] for s in sizes}
    for size in sizes:
        gap = 100 * (1 - slow[size] / max(1e-9, fast[size]))
        result.rows.append([size, raw[size], fast[size], slow[size], gap])

    for size in sizes:
        result.check(
            f"fast path matches raw perftest at {size}B (<=5% off)",
            abs(fast[size] - raw[size]) / max(1e-9, raw[size]) <= 0.05,
            f"raw {raw[size]:.1f} vs fast {fast[size]:.1f} Gbps")
    big = [s for s in sizes if s >= 4096]
    for size in big:
        result.check(
            f"slow-path gap under 22% at {size}B",
            slow[size] >= 0.78 * fast[size],
            f"gap {100*(1 - slow[size]/max(1e-9, fast[size])):.1f}%")
    small = sizes[0]
    result.check(
        "slow path is worst (relatively) for the smallest messages",
        (slow[small] / max(1e-9, fast[small]))
        <= min(slow[s] / max(1e-9, fast[s]) for s in big) + 1e-9,
    )
    return result
