"""Module-level worker functions for pool tests.

Workers are referenced as ``"tests.runner.workers:<name>"`` so both the
parent process and forked/spawned pool workers can resolve them.
"""

import contextlib
import io
import os
import time
from pathlib import Path


def ok(params, seed):
    return {"doubled": params["a"] * 2, "seed": seed}


def sleepy(params, seed):
    time.sleep(params["sleep"])
    return {"slept": params["sleep"]}


def boom(params, seed):
    raise ValueError(f"boom on {params.get('name', '?')}")


def _attempt_count(params) -> int:
    """Count (and record) attempts via marker files — survives the worker
    process dying, which in-memory counters would not."""
    root = Path(params["dir"])
    name = params["name"]
    n = len(list(root.glob(f"{name}.attempt-*")))
    (root / f"{name}.attempt-{n}").touch()
    return n  # 0-based index of this attempt


def hard_crash(params, seed):
    _attempt_count(params)
    os._exit(3)  # no exception, no result: simulates a segfault/OOM kill


def crash_then_ok(params, seed):
    attempt = _attempt_count(params)
    if attempt < params["fail_times"]:
        os._exit(3)
    return {"attempt": attempt}


def fail_then_ok(params, seed):
    attempt = _attempt_count(params)
    if attempt < params["fail_times"]:
        raise RuntimeError(f"transient failure #{attempt}")
    return {"attempt": attempt}


def audited(params, seed):
    """Record one conservation-audit report; ``params["leak"]`` packets go
    missing (0 = balanced)."""
    from repro.audit import Ledger, Reconciler, record_report
    leak = params.get("leak", 0)
    ledger = Ledger()
    (ledger.account("test.flow", "packets")
     .debit("offered", lambda: 10)
     .credit("delivered", lambda: 10 - leak))
    record_report(Reconciler(ledger).check(now=1.0))
    if params.get("dir"):
        _attempt_count(params)
    return {"leak": leak}


def placement(params, seed):
    """The CPUs a shard pool built in this worker would pin."""
    from repro.runner.shardpool import _placement
    return _placement(tuple(range(params["shards"])))


def scenario_stdout(params, seed):
    """Run the scenario CLI with ``params["argv"]``; its exit code and
    what it printed."""
    from repro.scenario.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(params["argv"])
    return {"rc": rc, "stdout": out.getvalue()}
