"""Process-mode shard pool: heartbeats, recovery, and teardown.

Contracts: the coordinator runs the heaviest cell itself and a worker
process per other cell; a wedged or dead worker must be attributable in
``runlog.jsonl`` by shard index (heartbeat/stall/failed events); a
killed worker makes the run rerun from t = 0 with byte-identical
results (one ``shard_restarted`` per kill); a rerun whose event counts
drift from an earlier attempt's fails the run; a kill plan naming
anything but a worker fails when the pool is built; and no worker
process or pipe fd survives a failed or dead attempt.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro

from repro.runner import shardpool
from repro.runner.shardpool import (ProcessShards, ShardDied,
                                    ShardPoolConfig, worker_shards)
from repro.scenario import validate
from repro.scenario.cli import main as scenario_main
from repro.scenario.schema import build_topology
from repro.scenario.templates import template
from repro.shard import ShardKernel, run_sharded
from repro.topo.partition import partition


def _events(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _quick_spec():
    spec = template("all-to-all-storage")
    spec["measure"] = {"warmup_us": 20.0, "duration_us": 30.0}
    return spec


def _drive(pool, plan, windows=10):
    """Run ``windows`` barrier windows, open measurement, run ``windows``
    more, and finish, routing outboxes to inboxes as the coordinator
    does. Returns the final exports."""
    n = plan.n_shards
    inbox = [[] for _ in range(n)]
    for window in range(2 * windows):
        if window == windows:
            pool.open_windows()
        horizon = (window + 1) * plan.lookahead
        outs = pool.advance(horizon, False, inbox)
        inbox = [[] for _ in range(n)]
        for out in outs:
            for msg in out:
                inbox[msg[0]].append(msg)
    return pool.finish()


def _plan():
    return partition(build_topology(validate(_quick_spec())), 2)


def _worker(plan):
    """A shard that runs in a worker process under ``plan``."""
    return worker_shards(plan)[0]


def _pool(config=None):
    normal = validate(_quick_spec())
    plan = partition(build_topology(normal), 2)
    return ProcessShards(normal, plan, config=config), plan


def _record_attempts(monkeypatch):
    """Make every pool the coordinator builds append itself to the
    returned list (before its workers fork, so they see the count)."""
    attempts = []

    class Recorded(ProcessShards):
        def __init__(self, *args, **kwargs):
            attempts.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(shardpool, "ProcessShards", Recorded)
    return attempts


def _assert_torn_down(pool):
    """No worker process or parent pipe end of ``pool`` survives."""
    for i in pool.workers:
        assert not pool._workers[i].proc.is_alive()
        assert pool._workers[i].conn.closed


def test_runlog_heartbeats_attribute_each_shard(tmp_path):
    log = tmp_path / "runlog.jsonl"
    cfg = ShardPoolConfig(heartbeat_s=0.0, stall_s=0.0, runlog=str(log))
    run_sharded(_quick_spec(), 2, mode="process", pool_config=cfg)
    records = _events(log)
    kinds = {r["event"] for r in records}
    assert {"shard_pool_start", "shard_ready", "shard_heartbeat",
            "shard_stall", "shard_resume", "shard_done",
            "shard_pool_done"} <= kinds

    start = next(r for r in records if r["event"] == "shard_pool_start")
    assert start["shards"] == 2
    assert start["plan"]["cut_links"]

    beats = [r for r in records if r["event"] == "shard_heartbeat"]
    assert {b["shard"] for b in beats} == {0, 1}
    for beat in beats:
        assert "ts" in beat and "sim_now_ns" in beat
        assert beat["events_executed"] >= 0

    # Heartbeats are cumulative per shard: a flatlining shard is visible.
    last = {}
    for beat in beats:
        previous = last.get(beat["shard"], -1)
        assert beat["events_executed"] >= previous
        last[beat["shard"]] = beat["events_executed"]

    done = next(r for r in records if r["event"] == "shard_pool_done")
    assert len(done["events_executed"]) == 2
    assert all(count > 0 for count in done["events_executed"])


def test_timeout_failure_names_the_shard(tmp_path):
    log = tmp_path / "runlog.jsonl"
    worker = _worker(_plan())
    cfg = ShardPoolConfig(timeout_s=0.0, max_restarts=0,
                          runlog=str(log))
    with pytest.raises(RuntimeError, match=rf"shard {worker} failed"):
        run_sharded(_quick_spec(), 2, mode="process", pool_config=cfg)
    records = _events(log)
    failed = [r for r in records if r["event"] == "shard_failed"]
    assert failed and failed[0]["shard"] == worker
    assert "timeout" in failed[0]["error"]


def test_worker_kill_recovers_byte_identically(tmp_path, monkeypatch):
    log = tmp_path / "runlog.jsonl"
    healthy = run_sharded(_quick_spec(), 2, mode="process")
    attempts = _record_attempts(monkeypatch)
    # Window 12 is past the open marker, with channel messages flowing.
    cfg = ShardPoolConfig(runlog=str(log), kill_plan=((12, 1),))
    recovered = run_sharded(_quick_spec(), 2, mode="process",
                            pool_config=cfg)
    assert json.dumps(recovered, sort_keys=True) == \
        json.dumps(healthy, sort_keys=True)
    records = _events(log)
    restarted = [r for r in records if r["event"] == "shard_restarted"]
    assert len(restarted) == 1 and restarted[0]["shard"] == 1
    assert restarted[0]["attempt"] == 1
    assert not any(r["event"] == "shard_failed" for r in records)
    # One killed attempt, one full rerun, both torn down.
    assert len(attempts) == 2
    assert [r["event"] for r in records].count("shard_pool_done") == 2
    for pool in attempts:
        _assert_torn_down(pool)
    # One journal spans both attempts; the rerun went past the kill and
    # acknowledged every window it issued.
    first, rerun = attempts
    assert first.journal is rerun.journal
    assert len(rerun.journal.counts) == rerun._window > first._window
    audit = recovered["l0s0"]["audit"]
    assert audit["ok"] is True and audit["violations"] == []


def test_a_diverged_rerun_fails_the_run(tmp_path, monkeypatch):
    log = tmp_path / "runlog.jsonl"
    attempts = _record_attempts(monkeypatch)
    advance = ShardKernel.advance

    def skewed(self, horizon, inclusive, inbox):
        # From the second attempt on, every kernel reports one event
        # more per window than it ran.
        executed, out = advance(self, horizon, inclusive, inbox)
        return executed + (len(attempts) > 1), out

    monkeypatch.setattr(ShardKernel, "advance", skewed)
    cfg = ShardPoolConfig(runlog=str(log), kill_plan=((3, 1),))
    with pytest.raises(RuntimeError,
                       match=r"shard \d failed: rerun diverged at "
                             r"window 0"):
        run_sharded(_quick_spec(), 2, mode="process", pool_config=cfg)
    records = _events(log)
    assert [r["event"] for r in records].count("shard_restarted") == 1
    failed = [r for r in records if r["event"] == "shard_failed"]
    assert len(failed) == 1 and "rerun diverged" in failed[0]["error"]
    assert len(attempts) == 2
    for pool in attempts:
        _assert_torn_down(pool)


@pytest.mark.slow
def test_a_late_kill_reruns_byte_identically(tmp_path, capsys):
    # The rerun rebuilds every kernel from one process state, so a
    # message re-sent after the kill keeps one id history with the rest
    # of the run; a receiver that reassembles by id would drift on a
    # sender that renumbered its messages mid-run.
    log = tmp_path / "runlog.jsonl"
    assert scenario_main(["run", "all-to-all-storage",
                          "--shards", "1"]) == 0
    single = capsys.readouterr().out
    assert scenario_main(["run", "all-to-all-storage", "--shards", "2",
                          "--shard-mode", "process",
                          "--shard-kill", "1000:1",
                          "--runlog", str(log)]) == 0
    assert capsys.readouterr().out == single
    events = [r["event"] for r in _events(log)]
    assert events.count("shard_restarted") == 1
    assert "shard_failed" not in events


def test_restart_budget_exhaustion_fails_the_run(tmp_path):
    log = tmp_path / "runlog.jsonl"
    worker = _worker(_plan())
    cfg = ShardPoolConfig(max_restarts=1, runlog=str(log),
                          kill_plan=tuple((w, worker) for w in range(64)))
    with pytest.raises(RuntimeError, match=rf"shard {worker} failed"):
        run_sharded(_quick_spec(), 2, mode="process", pool_config=cfg)
    records = _events(log)
    failed = next(r for r in records if r["event"] == "shard_failed")
    assert "restart budget" in failed["error"]
    restarted = [r for r in records if r["event"] == "shard_restarted"]
    assert len(restarted) == 1


def test_failure_teardown_leaves_no_orphans():
    pool, _ = _pool()
    # Wedge the pool after a healthy start: zero reply budget.
    pool.config.timeout_s = 0.0
    with pytest.raises(ShardDied, match="timeout"):
        pool.advance(1000.0, False, [[], []])
    _assert_torn_down(pool)


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads process states from /proc")
def test_workers_exit_when_the_coordinator_is_killed():
    # A sweep point's timeout kills its process outright, with no
    # teardown; the workers of a shard pool built there must see EOF.
    coordinator = (
        "import time\n"
        "from repro.runner.shardpool import ProcessShards\n"
        "from repro.scenario import validate\n"
        "from repro.scenario.schema import build_topology\n"
        "from repro.scenario.templates import template\n"
        "from repro.topo.partition import partition\n"
        "normal = validate(template('all-to-all-storage'))\n"
        "pool = ProcessShards(normal, partition(build_topology(normal), 4))\n"
        "print(*(pool._workers[i].proc.pid for i in pool.workers),"
        " flush=True)\n"
        "time.sleep(600)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.Popen([sys.executable, "-c", coordinator],
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    proc.kill()
    proc.wait()
    proc.stdout.close()

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                return fh.read().split()[2] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 10.0
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    assert len(pids) == 3 and left == []


def test_the_hosted_cell_is_the_heaviest():
    pool, plan = _pool()
    try:
        assert plan.loads[pool.hosted] == max(plan.loads)
        assert plan.cells[pool.hosted] == ("leaf0",)
        assert pool.hosted not in pool.workers
        assert sorted(pool.workers + (pool.hosted,)) == \
            list(range(plan.n_shards))
        # Only the workers are processes.
        assert pool._workers[pool.hosted] is None
        assert all(pool._workers[i].proc.is_alive() for i in pool.workers)
    finally:
        pool.close()


def test_heartbeats_and_done_cover_every_shard(tmp_path):
    log = tmp_path / "runlog.jsonl"
    cfg = ShardPoolConfig(heartbeat_s=0.0, runlog=str(log))
    inline_stats = {}
    run_sharded(_quick_spec(), 4, stats=inline_stats)
    run_sharded(_quick_spec(), 4, mode="process", pool_config=cfg)
    records = _events(log)
    start = next(r for r in records if r["event"] == "shard_pool_start")
    shards = set(range(4))
    assert start["hosted"] in shards
    for kind in ("shard_ready", "shard_heartbeat", "shard_done"):
        assert {r["shard"] for r in records if r["event"] == kind} == \
            shards, kind
    done = next(r for r in records if r["event"] == "shard_pool_done")
    # Every shard's count, the hosted one's included, equals the inline
    # executor's.
    assert done["events_executed"] == inline_stats["events"]


@pytest.mark.parametrize("entry", [(3, 2), (3, -1), (-1, 1)],
                         ids=["out-of-range", "negative-shard",
                              "negative-window"])
def test_bad_kill_plan_entry_fails_when_the_pool_is_built(entry):
    normal = validate(_quick_spec())
    plan = partition(build_topology(normal), 2)
    cfg = ShardPoolConfig(kill_plan=((1, _worker(plan)), entry))
    with pytest.raises(ValueError, match=rf"entry \({entry[0]}, "
                                         rf"{entry[1]}\)"):
        ProcessShards(normal, plan, config=cfg)


def test_kill_plan_naming_the_hosted_shard_fails():
    normal = validate(_quick_spec())
    plan = partition(build_topology(normal), 2)
    entry = (3, plan.heaviest)
    cfg = ShardPoolConfig(kill_plan=(entry,))
    with pytest.raises(ValueError, match="runs in the coordinator"):
        ProcessShards(normal, plan, config=cfg)


_pinnable = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity")
    or len(os.sched_getaffinity(0)) < 2,
    reason="pinning needs at least 2 allowed CPUs")


@_pinnable
def test_each_shard_runs_on_a_cpu_of_its_own(tmp_path):
    log = tmp_path / "runlog.jsonl"
    before = os.sched_getaffinity(0)
    normal = validate(_quick_spec())
    plan = partition(build_topology(normal), 2)
    pool = ProcessShards(normal, plan,
                         config=ShardPoolConfig(runlog=str(log)))
    try:
        _drive(pool, plan, windows=2)
        mine = os.sched_getaffinity(0)
        assert mine == {min(before)} == {pool.cpus[pool.hosted]}
        for i in pool.workers:
            theirs = os.sched_getaffinity(pool._workers[i].proc.pid)
            assert theirs == {pool.cpus[i]}
            assert not theirs & mine
    finally:
        pool.close()
    assert os.sched_getaffinity(0) == before
    start = next(r for r in _events(log)
                 if r["event"] == "shard_pool_start")
    assert start["cpus"] == pool.cpus
    assert len(set(start["cpus"])) == 2 and None not in start["cpus"]


@_pinnable
def test_a_clean_run_restores_the_coordinator_mask(tmp_path):
    log = tmp_path / "runlog.jsonl"
    before = os.sched_getaffinity(0)
    run_sharded(_quick_spec(), 2, mode="process",
                pool_config=ShardPoolConfig(runlog=str(log)))
    assert os.sched_getaffinity(0) == before
    done = next(r for r in _events(log) if r["event"] == "shard_pool_done")
    # The coordinator's host-clock split is logged, never in results.
    assert done["kernel_s"] > 0
    assert done["send_s"] >= 0 and done["wait_s"] >= 0


@_pinnable
def test_the_failure_teardown_restores_the_coordinator_mask():
    before = os.sched_getaffinity(0)
    normal = validate(_quick_spec())
    plan = partition(build_topology(normal), 2)
    pool = ProcessShards(normal, plan)
    assert os.sched_getaffinity(0) == {pool.cpus[pool.hosted]}
    pool.config.timeout_s = 0.0
    with pytest.raises(ShardDied, match="timeout"):
        pool.advance(1000.0, False, [[], []])
    assert os.sched_getaffinity(0) == before


@_pinnable
def test_a_reruns_workers_land_on_the_same_cpus(monkeypatch):
    before = os.sched_getaffinity(0)
    placed = []

    class Recorded(ProcessShards):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            masks = {i: os.sched_getaffinity(self._workers[i].proc.pid)
                     for i in self.workers}
            masks[self.hosted] = os.sched_getaffinity(0)
            placed.append((self.cpus, masks))

    monkeypatch.setattr(shardpool, "ProcessShards", Recorded)
    run_sharded(_quick_spec(), 2, mode="process",
                pool_config=ShardPoolConfig(kill_plan=((3, 1),)))
    (cpus, masks), rerun = placed
    assert rerun == (cpus, masks)
    assert masks == {i: {cpu} for i, cpu in enumerate(cpus)}
    assert os.sched_getaffinity(0) == before


@_pinnable
def test_too_few_allowed_cpus_pin_nothing(tmp_path):
    log = tmp_path / "runlog.jsonl"
    before = os.sched_getaffinity(0)
    narrowed = {min(before)}
    os.sched_setaffinity(0, narrowed)
    try:
        run_sharded(_quick_spec(), 2, mode="process",
                    pool_config=ShardPoolConfig(runlog=str(log)))
        assert os.sched_getaffinity(0) == narrowed
    finally:
        os.sched_setaffinity(0, before)
    start = next(r for r in _events(log)
                 if r["event"] == "shard_pool_start")
    assert start["cpus"] == [None, None]
