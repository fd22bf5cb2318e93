"""Shard-scaling benchmark: aggregate events/sec vs shard count.

Runs a 64-host incast (4x2 leaf-spine, one KV receiver, 48 client
flows crossing the spine fabric) through ``repro.shard.run_sharded``
at 1, 2, and 4 shards and records aggregate scheduler events per
wall-clock second. The output is byte-identical at every shard count
(that is the `docs/SHARDING.md` contract, asserted here too), but the
event totals are not: sharded kernels execute a few percent more
events than the single kernel (channel and barrier bookkeeping), so
each row divides its own event count by its own wall time.

What the numbers mean depends on the hardware:

- on >= 4 cores, process mode can overlap shard execution and the
  4-shard run should show real speedup (the acceptance target is
  >= 2x aggregate events/sec);
- on fewer cores there is nothing to overlap, so the harness instead
  *bounds coordination overhead*: the inline 4-shard run pays the full
  barrier/channel machinery with zero parallelism, and its slowdown
  vs the single kernel must stay <= 15%.

Results are written to ``BENCH_shard.json`` next to the repo root so
the numbers form a trajectory across commits. Run standalone::

    PYTHONPATH=src python benchmarks/test_shard_scaling.py

or through pytest (a scaled-down smoke with loose bounds so CI catches
catastrophic regressions without being flaky)::

    PYTHONPATH=src python -m pytest benchmarks/test_shard_scaling.py -v
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Tuple

from repro.shard import run_sharded
from repro.workloads.topo_scenario import compile_scenario

#: Shard counts measured by the standalone run.
SHARD_COUNTS = (1, 2, 4)

#: Acceptance bound for the single-core path: inline 4-shard slowdown
#: vs the single kernel (wall-clock ratio minus one).
OVERHEAD_BOUND = 0.15

#: Acceptance target for the multi-core path: 4-shard process-mode
#: aggregate events/sec over the single kernel's.
SPEEDUP_TARGET = 2.0

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = _REPO_ROOT / "BENCH_shard.json"


def incast64_spec(warmup_us: float = 100.0,
                  duration_us: float = 250.0) -> Dict[str, Any]:
    """A 64-host incast: 4 leaves x 16 hosts (one storage server per
    leaf), 2 spines, 48 KV flows fanning into ``l0s0`` — three quarters
    of the traffic crosses the spine, so every shard boundary carries
    real load."""
    return {
        "version": 1,
        "name": "incast-64host",
        "seed": 0,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 4, "spines": 2,
                                "hosts_per_leaf": 16,
                                "servers_per_leaf": 1}},
        "hosts": {"*": {"arch": "ceio", "cores": 50}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "host": "l0s0",
             "flows": 48, "payload": 144, "outstanding": 8},
        ],
        "measure": {"warmup_us": warmup_us, "duration_us": duration_us},
    }


def _single_kernel(spec: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
    """The unsharded run through the scenario's phase hooks, which count
    the events the kernel executes (``run_sharded`` reports no count
    when there is nothing to split). Returns ``(results, events)``."""
    scenario = compile_scenario(spec)
    sim = scenario.fabric.sim
    t_warm, t_end = scenario.measure_horizons()
    events = sim.run_until(t_warm, inclusive=True)
    scenario.open_windows()
    events += sim.run_until(t_end, inclusive=True)
    measurements = scenario.finish_measurements()
    report = scenario.reconciler.check(now=sim.now)
    for measurement in measurements.values():
        measurement.audit = report.to_dict()
    return {name: asdict(m) for name, m in measurements.items()}, events


def _timed_run(spec: Dict[str, Any], shards: int, mode: str):
    """One run; returns ``(payload, stats, wall seconds)``. ``stats``
    holds the executed event total under ``"n_events"``."""
    stats: Dict[str, Any] = {}
    t0 = time.perf_counter()
    if shards == 1:
        results, stats["n_events"] = _single_kernel(spec)
    else:
        results = run_sharded(spec, shards, mode=mode, stats=stats)
        stats["n_events"] = sum(stats["events"])
    elapsed = time.perf_counter() - t0
    return json.dumps(results, sort_keys=True), stats, elapsed


def run_matrix(spec: Dict[str, Any], mode: str) -> Dict[str, Any]:
    """Run ``spec`` at every shard count, assert byte-identity, and
    return the measurement record (rates keyed by shard count)."""
    baseline_payload = None
    n_events: Dict[str, int] = {}
    wall: Dict[str, float] = {}
    rates: Dict[str, float] = {}
    rounds: Dict[str, int] = {}
    for shards in SHARD_COUNTS:
        payload, stats, elapsed = _timed_run(spec, shards, mode)
        if baseline_payload is None:
            baseline_payload = payload
        elif payload != baseline_payload:
            raise AssertionError(
                f"--shards {shards} diverged from the single kernel")
        key = str(shards)
        n_events[key] = stats["n_events"]
        wall[key] = round(elapsed, 3)
        rounds[key] = stats.get("rounds", 0)
        rates[key] = round(n_events[key] / elapsed, 1)
    overhead = wall["4"] / wall["1"] - 1.0
    speedup = rates["4"] / rates["1"]
    return {
        "mode": mode,
        "n_events": n_events,
        "barrier_rounds": rounds,
        "wall_s": wall,
        "events_per_sec": rates,
        "overhead_4_vs_1": round(overhead, 4),
        "speedup_4_vs_1": round(speedup, 4),
    }


def main() -> int:
    cores = os.cpu_count() or 1
    # With >= 4 cores, process mode can genuinely overlap shards and
    # the claim is speedup; below that, parallel workers only add IPC
    # on top of a time-shared CPU, so the honest measurement is the
    # inline executor's coordination overhead.
    mode = "process" if cores >= 4 else "inline"
    record = run_matrix(incast64_spec(), mode)
    if cores >= 4:
        claim = {"kind": "speedup",
                 "target": SPEEDUP_TARGET,
                 "measured": record["speedup_4_vs_1"],
                 "ok": record["speedup_4_vs_1"] >= SPEEDUP_TARGET}
    else:
        claim = {"kind": "coordination_overhead",
                 "bound": OVERHEAD_BOUND,
                 "measured": record["overhead_4_vs_1"],
                 "ok": record["overhead_4_vs_1"] <= OVERHEAD_BOUND}
    payload = {
        "bench": "shard_scaling",
        "scenario": "incast-64host (4x2 leaf-spine, 48 flows)",
        "python": sys.version.split()[0],
        "cores": cores,
        "claim": claim,
        **record,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    for shards in SHARD_COUNTS:
        key = str(shards)
        print(f"shards={shards}  {record['events_per_sec'][key]:>12,.0f}"
              f" events/sec  ({record['wall_s'][key]:.2f}s,"
              f" {record['barrier_rounds'][key]} rounds)")
    print(f"{claim['kind']}: {claim['measured']} "
          f"({'OK' if claim['ok'] else 'FAILED'})")
    print(f"wrote {BENCH_PATH}")
    return 0 if claim["ok"] else 1


# ---------------------------------------------------------------------------
# Pytest entry points (scaled-down smoke: loose bounds only)
# ---------------------------------------------------------------------------

def test_shard_scaling_smoke():
    """Tiny window: byte-identity holds and the inline 4-shard run is
    not catastrophically slower than the single kernel (fixed costs
    dominate at this size, so the bound is deliberately loose)."""
    spec = incast64_spec(warmup_us=20.0, duration_us=40.0)
    record = run_matrix(spec, "inline")
    assert all(record["n_events"][str(s)] > 0 for s in SHARD_COUNTS)
    assert all(record["events_per_sec"][str(s)] > 0 for s in SHARD_COUNTS)
    assert record["overhead_4_vs_1"] < 1.0


if __name__ == "__main__":
    sys.exit(main())
