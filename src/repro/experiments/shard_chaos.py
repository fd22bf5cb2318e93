"""Shard chaos suite: faults, worker kills, and recovery at scale.

The sharded executor's whole claim is that it is *invisible*: same
bytes out, fault plans included, workers dying included. This suite
attacks that claim on the 64-host incast (4 leaves x 2 spines — a
topology that genuinely splits four ways with cross-shard traffic on
every spine hop) across the ceio / shring / baseline architectures:

- **fault points** sweep a host-site fault plan's magnitude (loss on
  the incast server's last hop plus a CPU slowdown window) and assert
  the 4-shard run is byte-identical to the single kernel, then add a
  ``net.channel`` loss on the cut links and assert inline and process
  mode agree byte-for-byte (the channel site is coordinator-level, so
  its determinism gate is inline == process, not sharded == single);
- **kill points** run process mode with a seeded
  :class:`~repro.runner.shardpool.ShardPoolConfig` kill plan — worker
  shards shot at randomized barrier windows — and assert that each kill
  caused exactly one rerun from t = 0 (one ``shard_restarted`` in the
  runlog), that the recovered run reproduces the undisturbed one
  byte-for-byte, and that the merged audit reconciles to zero
  violations.

Every stochastic choice (kill windows, victim shards) derives from the
point's seed, so the suite is bit-reproducible for any ``--jobs``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..faults import FaultPlan, FaultSpec
from ..runner.shardpool import ShardPoolConfig, worker_shards
from ..runner.sweep import Point, make_point
from ..scenario import build_topology, validate
from ..shard import run_sharded
from ..sim.rng import RngRegistry
from ..sim.units import US
from ..topo import partition
from ..workloads.topo_scenario import TopoScenario
from .report import ExperimentResult

__all__ = ["points", "run_point", "collect"]

DEFAULT_SEED = 29
_FN = "repro.experiments.shard_chaos:run_point"

ARCHES = ["ceio", "shring", "baseline"]
ARCHES_QUICK = ["ceio"]
MAGS_FULL = [0.02, 0.1]
MAGS_QUICK = [0.05]

SHARDS = 4
#: Workers shot per kill point (randomized barrier windows).
N_KILLS = 2


def _measure(quick: bool) -> Dict[str, float]:
    return ({"warmup_us": 20.0, "duration_us": 60.0} if quick
            else {"warmup_us": 100.0, "duration_us": 250.0})


def _spec(arch: str, seed: int, quick: bool,
          faults: Optional[List[Dict[str, Any]]] = None) -> Dict[str, Any]:
    """The 64-host incast of ``benchmarks/test_shard_scaling.py``, arch
    and fault plan parameterised."""
    spec: Dict[str, Any] = {
        "version": 1,
        "name": "shard-chaos-incast",
        "seed": seed,
        "topology": {"kind": "leaf_spine",
                     "params": {"leaves": 4, "spines": 2,
                                "hosts_per_leaf": 16,
                                "servers_per_leaf": 1}},
        "hosts": {"*": {"arch": arch, "cores": 50}},
        "tenants": [
            {"name": "kv", "workload": "kvstore", "host": "l0s0",
             "flows": 48, "payload": 144, "outstanding": 8}],
        "measure": _measure(quick),
    }
    if faults:
        spec["fault_plan"] = faults
    return spec


def _host_plan(magnitude: float, quick: bool) -> FaultPlan:
    """Host-site faults inside the measurement window: loss on the
    incast server's last hop, a slowdown window on its cores."""
    measure = _measure(quick)
    start = (measure["warmup_us"] + 0.2 * measure["duration_us"]) * US
    duration = 0.5 * measure["duration_us"] * US
    return FaultPlan((
        FaultSpec("net.link", "loss", start=start, duration=duration,
                  magnitude=magnitude, host="l0s0"),
        FaultSpec("hw.cpu", "slowdown", start=start, duration=duration,
                  magnitude=1.0 + 10.0 * magnitude, host="l0s0"),
    ))


def _channel_plan(magnitude: float, quick: bool) -> FaultPlan:
    measure = _measure(quick)
    start = (measure["warmup_us"] + 0.2 * measure["duration_us"]) * US
    duration = 0.5 * measure["duration_us"] * US
    return FaultPlan((
        FaultSpec("net.channel", "loss", start=start, duration=duration,
                  magnitude=magnitude),))


def _payload(results: Mapping[str, Any]) -> str:
    return json.dumps(results, sort_keys=True)


def points(quick: bool = True, seed: Optional[int] = None) -> List[Point]:
    arches = ARCHES_QUICK if quick else ARCHES
    mags = MAGS_QUICK if quick else MAGS_FULL
    pts = []
    for arch in arches:
        for mag in mags:
            plan = _host_plan(mag, quick)
            params = {"mode": "fault", "arch": arch, "magnitude": mag,
                      "quick": quick, "faults": plan.to_dicts()}
            pts.append(make_point(
                "shard_chaos", _FN, params, seed, DEFAULT_SEED,
                label=f"fault.{arch}.m{mag:g}", faults=plan.canonical()))
    for arch in arches:
        plan = _host_plan(mags[0], quick)
        params = {"mode": "kill", "arch": arch, "quick": quick,
                  "faults": plan.to_dicts()}
        pts.append(make_point(
            "shard_chaos", _FN, params, seed, DEFAULT_SEED,
            label=f"kill.{arch}", faults=plan.canonical()))
    return pts


def _run_fault_point(params: Mapping[str, Any],
                     seed: int) -> Dict[str, Any]:
    arch, quick = params["arch"], params["quick"]
    mag = params["magnitude"]
    host_faults = list(params["faults"])
    single = TopoScenario(_spec(arch, seed, quick, host_faults)).run()
    stats: Dict[str, Any] = {}
    sharded = run_sharded(_spec(arch, seed, quick, host_faults), SHARDS,
                          stats=stats)
    # Channel faults on top: the determinism gate is inline == process
    # (the single kernel has no cut links to fault).
    full = host_faults + _channel_plan(mag, quick).to_dicts()
    chan_stats: Dict[str, Any] = {}
    chan_inline = run_sharded(_spec(arch, seed, quick, full), SHARDS,
                              stats=chan_stats)
    chan_process = run_sharded(_spec(arch, seed, quick, full), SHARDS,
                               mode="process")
    return {
        "goodput_mpps": single["l0s0"]["involved_mpps"],
        "sharded_identical": _payload(sharded) == _payload(single),
        "channel_identical":
            _payload(chan_inline) == _payload(chan_process),
        "channel_dropped": chan_stats["channel"]["dropped"],
        "rounds": stats["rounds"],
        "audit_violations":
            len(sharded["l0s0"]["audit"]["violations"])
            + len(chan_inline["l0s0"]["audit"]["violations"]),
    }


def _run_kill_point(params: Mapping[str, Any],
                    seed: int) -> Dict[str, Any]:
    arch, quick = params["arch"], params["quick"]
    faults = list(params["faults"])
    stats: Dict[str, Any] = {}
    healthy = run_sharded(_spec(arch, seed, quick, faults), SHARDS,
                          mode="process", stats=stats)
    rounds = stats["rounds"]
    rng = RngRegistry(seed).stream(f"shard_chaos.kill.{arch}")
    windows = sorted(rng.sample(range(1, max(2, rounds - 1)),
                                min(N_KILLS, max(1, rounds - 2))))
    spec = _spec(arch, seed, quick, faults)
    workers = worker_shards(partition(build_topology(validate(spec)),
                                      SHARDS))
    kill_plan = tuple((w, rng.choice(workers)) for w in windows)
    with tempfile.TemporaryDirectory() as tmp:
        runlog = Path(tmp) / "runlog.jsonl"
        cfg = ShardPoolConfig(runlog=str(runlog), kill_plan=kill_plan)
        recovered = run_sharded(spec, SHARDS, mode="process",
                                pool_config=cfg)
        with open(runlog, encoding="utf-8") as fh:
            events = [json.loads(line)["event"] for line in fh]
    return {
        "goodput_mpps": healthy["l0s0"]["involved_mpps"],
        "recovered_identical": _payload(recovered) == _payload(healthy),
        "kills": len(kill_plan),
        "restarts": events.count("shard_restarted"),
        "rounds": rounds,
        "audit_violations":
            len(recovered["l0s0"]["audit"]["violations"]),
    }


def run_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    if params["mode"] == "kill":
        return _run_kill_point(params, seed)
    return _run_fault_point(params, seed)


def collect(results: Mapping[str, Any], quick: bool = True,
            seed: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="shard_chaos",
        title="Sharded execution under faults and worker kills",
        paper_claim=("Sharded execution is observationally invisible: "
                     "fault plans, coordinator-level channel faults, "
                     "and rerun recovery from worker kills all "
                     "reproduce the reference run byte-for-byte with a "
                     "balanced merged audit"),
    )
    result.headers = ["point", "goodput_mpps", "identical", "rounds",
                      "restarts", "audit_violations"]
    arches = ARCHES_QUICK if quick else ARCHES
    mags = MAGS_QUICK if quick else MAGS_FULL
    for arch in arches:
        for mag in mags:
            label = f"fault.{arch}.m{mag:g}"
            value = results[f"shard_chaos/{label}"]
            result.rows.append([
                label, value["goodput_mpps"],
                value["sharded_identical"] and value["channel_identical"],
                value["rounds"], 0, value["audit_violations"]])
            result.check(
                f"{label}: {SHARDS}-shard faulted run is byte-identical "
                "to the single kernel",
                value["sharded_identical"],
                f"{value['rounds']} barrier rounds")
            result.check(
                f"{label}: channel faults agree inline == process",
                value["channel_identical"],
                f"{value['channel_dropped']} cut-link messages dropped")
            result.check(
                f"{label}: channel loss actually bit",
                value["channel_dropped"] > 0,
                f"{value['channel_dropped']} drops")
            result.check(
                f"{label}: merged audits reconcile",
                value["audit_violations"] == 0,
                f"{value['audit_violations']} violations")
    for arch in arches:
        label = f"kill.{arch}"
        value = results[f"shard_chaos/{label}"]
        result.rows.append([
            label, value["goodput_mpps"], value["recovered_identical"],
            value["rounds"], value["restarts"],
            value["audit_violations"]])
        result.check(
            f"{label}: recovered run is byte-identical to the "
            "undisturbed one",
            value["recovered_identical"],
            f"{value['kills']} worker kill(s), {value['restarts']} "
            "restart(s)")
        result.check(
            f"{label}: every kill caused exactly one rerun",
            value["restarts"] == value["kills"],
            f"{value['restarts']} rerun(s) for {value['kills']} kill(s)")
        result.check(
            f"{label}: recovered audit reconciles",
            value["audit_violations"] == 0,
            f"{value['audit_violations']} violations")
    result.notes.append(
        "channel faults are a declared no-op at --shards 1, so their "
        "determinism gate is inline == process at fixed shard count; "
        "host-site faults are gated against the single kernel directly")
    return result
