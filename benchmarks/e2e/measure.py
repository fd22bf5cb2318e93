"""One repeat of one benchmark workload, run in this process.

``run.py`` starts this file once per repeat in a fresh interpreter, so
that ``setup_s`` includes the package import and ``peak_rss_mb`` is the
repeat's own. It prints one JSON record on stdout::

    python benchmarks/e2e/measure.py --workload paper-ceio --seed 0
    python benchmarks/e2e/measure.py --workload paper-ceio --seed 0 --trace
    python benchmarks/e2e/measure.py --workload paper-ceio --seed 0 --setup-only

Clocks: ``wall_s`` runs from the first statement of this file to the
result dict in hand, ``setup_s`` from the same start to a compiled
scenario (for a sharded workload: to a computed partition; the shard
workers build their kernels inside ``wall_s``).

A traced repeat drives the scenario's public phase hooks instead of
``run()`` (``measure_horizons``, ``sim.run_until(t, inclusive=True)``
which counts events, ``open_windows``, ``finish_measurements``,
``reconciler.check``) under ``cProfile``, which records calls from
outside the program; its result must hash to the untraced digest.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from layers import attribute  # noqa: E402
from workloads import WORKLOADS, spec_for  # noqa: E402

__all__ = ["digest_of", "run_repeat", "summarize"]


def digest_of(result: Dict[str, Any]) -> str:
    """sha256 of the result's sorted JSON (the golden-digest form)."""
    return hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()


def summarize(result: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The simulated numbers the benchmark reports, from a
    ``{host: metrics}`` result dict."""
    pkts = 0
    goodput = p99 = p999 = 0.0
    misses = dropped = 0.0
    counts = {"fast_packets": 0.0, "slow_packets": 0.0,
              "ring_full_drops": 0.0, "shed": 0.0}
    for metrics in result.values():
        host_pkts = round(metrics["total_mpps"] * metrics["duration"] / 1e3)
        pkts += host_pkts
        goodput += metrics["total_mpps"]
        misses += metrics["llc_miss_rate"] * host_pkts
        dropped += metrics["dropped"]
        if host_pkts:
            p99 = max(p99, metrics["p99_us"])
            p999 = max(p999, metrics["p999_us"])
        for key in counts:
            counts[key] += metrics["extras"].get(key, 0.0)
    routed = counts["fast_packets"] + counts["slow_packets"]
    return {
        "pkts": pkts,
        "goodput_mpps": goodput,
        "p99_us": p99,
        "p999_us": p999,
        "llc_miss_rate": misses / pkts if pkts else 0.0,
        "fast_fraction": counts["fast_packets"] / routed if routed else 0.0,
        "slow_packets": counts["slow_packets"],
        "ring_full_drops": counts["ring_full_drops"],
        "shed": counts["shed"],
        "dropped": dropped,
    }


def _audit_ok(result: Dict[str, Dict[str, Any]]) -> bool:
    return all(m.get("audit") is not None and m["audit"]["ok"]
               and not m["audit"]["violations"] for m in result.values())


def _run_phases(scenario) -> Tuple[Dict[str, Any], int]:
    """``scenario.run()`` through its public phase hooks, counting the
    events the kernel executes."""
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


def run_repeat(name: str, seed: int, *, traced: bool = False,
               setup_only: bool = False,
               measure: Optional[Tuple[float, float]] = None,
               mode: Optional[str] = None,
               start: Optional[float] = None) -> Dict[str, Any]:
    """Run workload ``name`` once and return its record. ``measure``
    and ``mode`` override the spec's window and the shard mode (for the
    in-process smoke test); ``start`` is the ``wall_s`` origin."""
    start = time.perf_counter() if start is None else start
    workload = WORKLOADS[name]
    # The package import is part of set-up.
    import repro  # noqa: F401
    from repro.scenario import build_topology, validate

    spec = spec_for(name, seed, measure)
    if workload.shards == 1:
        from repro.workloads.topo_scenario import compile_scenario
        scenario = compile_scenario(spec)
    else:
        from repro.shard import run_sharded
        from repro.topo import partition
        partition(build_topology(validate(spec)), workload.shards)
    setup_s = time.perf_counter() - start
    record: Dict[str, Any] = {"workload": name, "seed": seed,
                              "traced": traced, "setup_s": setup_s}
    if setup_only:
        return record

    profile = cProfile.Profile() if traced else None
    shard_stats: Dict[str, Any] = {}
    events = None
    if profile is not None:
        profile.enable()
    if workload.shards > 1:
        result = run_sharded(spec, workload.shards,
                             mode=mode or workload.mode, stats=shard_stats)
        events = sum(shard_stats["events"])
    elif traced:
        result, events = _run_phases(scenario)
    else:
        result = scenario.run()
    if profile is not None:
        profile.disable()
    wall_s = time.perf_counter() - start

    rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record.update({
        "wall_s": wall_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "digest": digest_of(result),
        "audit_ok": _audit_ok(result),
        "events": events,
        "shard_events": shard_stats.get("events"),
        "shard_rounds": shard_stats.get("rounds", 0),
        **summarize(result),
    })
    if profile is not None:
        profile.create_stats()
        record["layers"] = attribute(profile.stats, SRC)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_repeat(args.workload, args.seed, traced=args.trace,
                        setup_only=args.setup_only, start=_START)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
