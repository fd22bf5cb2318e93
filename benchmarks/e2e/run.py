"""End-to-end and per-layer benchmark of the simulator.

Three ways to run it, from the repository root:

``python benchmarks/e2e/run.py [--seed N] [--repeats 5] [--out PATH]``
    The full suite: ``--repeats`` timed repeats of every workload,
    round-robin across workloads, then one traced repeat each. Prints
    every metric by name with its unit and writes ``BENCH_e2e.json``.

``python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload for ``S`` seconds: a few set-up probes, then timed
    repeats, plus one traced repeat with ``--trace 1``. The last line of
    stdout is ``{"correct", "attempted", "failed", "metrics"}`` holding
    the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
    its ``per_layer`` metrics (``--trace 1``).

``python benchmarks/e2e/run.py compare A.json B.json``
    Two suite records side by side with a verdict per workload and
    end-to-end metric; exits 1 on any "worse" or any mismatch in a
    digest or exact count.

Every repeat runs in a fresh interpreter (``measure.py``) with a fixed
hash seed. A repeat fails if it crashes or exceeds the per-repeat
timeout, if its audit reports a violation, if it delivers no packet, or
if its digest differs from the expected one: the pinned digest at the
workload's default seed, else the first repeat's. The exit code is 1
if any repeat failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

BENCHMARK_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "BENCH_e2e.json"
#: A repeat that takes longer than this counts as failed.
REPEAT_TIMEOUT_S = 120.0
#: Set-up-only repeats per single-workload run, so its ``setup_s``
#: median rests on several samples even when only two timed repeats fit.
SETUP_PROBES = 5
#: End-to-end metrics on the simulated clock: equal seeds must give
#: equal values, so ``compare`` demands identity instead of a bound.
SIMULATED = ("goodput_mpps",)
#: Per-layer metrics on the host clock; every other one is exact.
HOST_LAYER_SUFFIXES = (".self_share", ".events_per_s", "trace.overhead")

Record = Dict[str, Any]


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK_PATH.read_text())


# ---------------------------------------------------------------------------
# Repeats
# ---------------------------------------------------------------------------

def spawn(name: str, seed: int, *, trace: bool = False,
          setup_only: bool = False) -> Tuple[Optional[Record], str]:
    """Run one repeat in a fresh interpreter; ``(record, "")`` or
    ``(None, error)``. The repeat leads its own process group, which is
    killed once the repeat ends, times out or this process is stopped:
    shard workers forked by a killed repeat would otherwise keep its
    pipes open and never exit."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("REPRO_SIM_DEBUG", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=REPEAT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{name}: repeat exceeded {REPEAT_TIMEOUT_S:.0f} s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return None, f"{name}: exit {proc.returncode}: {tail[0]}"
    return json.loads(out.strip().splitlines()[-1]), ""


def run_for(name: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[List[Record], List[str]]:
    """Set-up probes, then timed repeats for about ``seconds``, then a
    traced repeat if ``trace``. Stops at the first failed repeat."""
    records: List[Record] = []
    errors: List[str] = []

    def take(**kwargs) -> bool:
        record, error = spawn(name, seed, **kwargs)
        if record is None:
            errors.append(error)
            return False
        records.append(record)
        return True

    if not all(take(setup_only=True) for _ in range(SETUP_PROBES)):
        return records, errors
    start = time.perf_counter()
    durations: List[float] = []
    while True:
        t0 = time.perf_counter()
        if not take():
            return records, errors
        durations.append(time.perf_counter() - t0)
        # Start another repeat only if it should end by ``seconds`` give
        # or take half a repeat.
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) / 2 >= seconds:
            break
    if trace:
        take(trace=True)
    return records, errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def spread(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    vals = sorted(values)
    median = statistics.median(vals)
    q1, q3 = ((vals[0], vals[0]) if len(vals) < 2
              else statistics.quantiles(vals, n=4)[::2])
    return {"median": median, "q1": q1, "q3": q3, "n": len(vals),
            "values": vals}


def end_to_end_samples(records: List[Record]) -> Dict[str, List[float]]:
    """Per-repeat samples of every end-to-end metric."""
    timed = [r for r in records if "wall_s" in r and not r["traced"]]
    return {
        "wall_s": [r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in records],
        "pkts_per_s": [r["pkts"] / (r["wall_s"] - r["setup_s"])
                       for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "goodput_mpps": [r["goodput_mpps"] for r in timed],
    }


def per_layer_values(traced: Record, untraced_wall_s: float,
                     untraced_run_s: float) -> Dict[str, float]:
    """Every per-layer metric from one traced record and the untraced
    medians of ``wall_s`` and of ``wall_s - setup_s``."""
    pkts = traced["pkts"]
    layers = traced["layers"]
    total_self = sum(layer["self_s"] for layer in layers.values()) or 1.0
    values: Dict[str, float] = {}
    for name, layer in layers.items():
        values[f"{name}.self_share"] = layer["self_s"] / total_self
        values[f"{name}.calls_per_pkt"] = layer["calls"] / pkts
    events = traced["events"]
    shard_events = traced["shard_events"] or []
    values.update({
        "sim.engine.events": events,
        "sim.engine.events_per_pkt": events / pkts,
        "sim.engine.events_per_s": events / untraced_run_s,
        "hw.cache.llc_miss_rate": traced["llc_miss_rate"],
        "core.fast_fraction": traced["fast_fraction"],
        "core.slow_packets": traced["slow_packets"],
        "core.ring_full_drops": traced["ring_full_drops"],
        "core.admission.shed": traced["shed"],
        "net.dropped": traced["dropped"],
        "workloads.p99_us": traced["p99_us"],
        "workloads.p999_us": traced["p999_us"],
        "shard.rounds": traced["shard_rounds"],
        "shard.events_total": sum(shard_events),
        "shard.event_imbalance": (max(shard_events) * len(shard_events)
                                  / sum(shard_events)
                                  if shard_events else 0.0),
        "trace.overhead": traced["wall_s"] / untraced_wall_s,
    })
    return values


def expected_digest(name: str, seed: int) -> Optional[str]:
    """The pinned digest when ``seed`` is the workload's default."""
    workload = WORKLOADS[name]
    return workload.digest if seed == workload.default_seed else None


def aggregate(name: str, seed: int, records: List[Record],
              errors: List[str], bench: Dict[str, Any],
              pinned: Optional[str]) -> Dict[str, Any]:
    """Check one workload's repeats and reduce the passing ones to its
    report (``pinned``: the digest every repeat must produce)."""
    errors = list(errors)
    attempted = len(records) + len(errors)
    runs = [r for r in records if "wall_s" in r]
    digest = pinned or next(
        (r["digest"] for r in runs if not r["traced"]), None)
    passed = [r for r in records if "wall_s" not in r]
    for r in runs:
        problems = []
        if not r["audit_ok"]:
            problems.append("audit violation")
        if r["digest"] != digest:
            problems.append(f"digest {r['digest'][:12]} != {str(digest)[:12]}")
        if r["pkts"] <= 0:
            problems.append("no packet delivered")
        if problems:
            kind = "traced" if r["traced"] else "timed"
            errors.append(f"{name} ({kind}): " + ", ".join(problems))
        else:
            passed.append(r)
    report: Dict[str, Any] = {"seed": seed, "digest": digest,
                              "attempted": attempted, "failed": len(errors),
                              "errors": errors, "end_to_end": {},
                              "per_layer": {}}
    timed = [r for r in passed if "wall_s" in r and not r["traced"]]
    if not timed:
        return report
    samples = end_to_end_samples(passed)
    for metric in bench["end_to_end"]:
        report["end_to_end"][metric["name"]] = {
            "unit": metric["unit"], **spread(samples[metric["name"]])}
    traced = [r for r in passed if r["traced"]]
    if traced:
        wall = report["end_to_end"]["wall_s"]["median"]
        run_s = statistics.median(r["wall_s"] - r["setup_s"] for r in timed)
        values = per_layer_values(traced[0], wall, run_s)
        report["per_layer"] = {
            metric["name"]: {"unit": metric["unit"],
                             "value": values[metric["name"]]}
            for metric in bench["per_layer"]}
    return report


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def _print_metrics(name: str, report: Dict[str, Any]) -> None:
    for metric, stat in report["end_to_end"].items():
        print(f"{name:12s} {metric:32s} {stat['median']:14.6g} {stat['unit']:10s}"
              f" [q1 {stat['q1']:.6g}, q3 {stat['q3']:.6g}, n {stat['n']}]")
    for metric, stat in report["per_layer"].items():
        print(f"{name:12s} {metric:32s} {stat['value']:14.6g} {stat['unit']}")
    for error in report["errors"]:
        print(f"{name:12s} FAILED: {error}")


def single(args, bench: Dict[str, Any]) -> int:
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    records, errors = run_for(args.workload, args.seed, seconds,
                              bool(args.trace))
    report = aggregate(args.workload, args.seed, records, errors, bench,
                       expected_digest(args.workload, args.seed))
    _print_metrics(args.workload, report)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {metric: {"value": stat.get("value", stat.get("median")),
                        "unit": stat["unit"]}
               for metric, stat in report[section].items()}
    failed = report["failed"]
    print(json.dumps({"correct": failed == 0,
                      "attempted": report["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def suite(args, bench: Dict[str, Any]) -> int:
    names = list(WORKLOADS)
    seeds = {name: (WORKLOADS[name].default_seed if args.seed is None
                    else args.seed) for name in names}
    records: Dict[str, List[Record]] = {name: [] for name in names}
    errors: Dict[str, List[str]] = {name: [] for name in names}

    def take(name: str, **kwargs) -> None:
        record, error = spawn(name, seeds[name], **kwargs)
        if record is None:
            errors[name].append(error)
        else:
            records[name].append(record)
        what = "traced" if kwargs.get("trace") else "timed"
        took = f"{record['wall_s']:.2f} s" if record else error
        print(f"  {name} {what}: {took}", file=sys.stderr, flush=True)

    for _ in range(args.repeats):
        for name in names:
            take(name)
    for name in names:
        take(name, trace=True)

    reports = {name: aggregate(name, seeds[name], records[name],
                               errors[name], bench,
                               expected_digest(name, seeds[name]))
               for name in names}
    single_kernel, sharded = reports["incast64"], reports["incast64-s2"]
    if single_kernel["digest"] != sharded["digest"]:
        sharded["failed"] += 1
        sharded["errors"].append(
            "incast64-s2 digest differs from incast64's at the same seed")
    for name in names:
        _print_metrics(name, reports[name])
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(f"{failed} of {attempted} repeats failed")
    out = {
        "bench": "e2e",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "repeats": args.repeats,
        "workloads": reports,
    }
    path = Path(args.out)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0 if failed == 0 else 1


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float,
            better: str) -> str:
    """Judge ``b`` against ``a`` for a host-clock metric: "unresolved"
    when either side's interquartile range exceeds the bound (unless
    every run of ``b`` beats every run of ``a``), else "worse" or
    "better" beyond the bound, else "within bound"."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    widest = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    if widest > bound:
        best_a = max(sign * v for v in a["values"])
        worst_b = min(sign * v for v in b["values"])
        return "better" if worst_b > best_a else "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within bound"


def compare(args, bench: Dict[str, Any]) -> int:
    a = json.loads(Path(args.a).read_text())["workloads"]
    b = json.loads(Path(args.b).read_text())["workloads"]
    bad = 0
    for name in WORKLOADS:
        if name not in a or name not in b:
            print(f"{name}: missing from {'A' if name not in a else 'B'}")
            bad += 1
            continue
        ra, rb = a[name], b[name]
        if ra["digest"] != rb["digest"]:
            print(f"{name}: digest MISMATCH {ra['digest']} != {rb['digest']}")
            bad += 1
        for metric in bench["end_to_end"]:
            key = metric["name"]
            sa, sb = ra["end_to_end"][key], rb["end_to_end"][key]
            if key in SIMULATED:
                result = ("identical"
                          if set(sa["values"]) == set(sb["values"])
                          else "MISMATCH")
            else:
                result = verdict(sa, sb, metric["bound"], metric["better"])
            bad += result in ("worse", "MISMATCH")
            print(f"{name:12s} {key:13s} A {sa['median']:12.6g} "
                  f"[{sa['q1']:.6g}, {sa['q3']:.6g}]  B {sb['median']:12.6g} "
                  f"[{sb['q1']:.6g}, {sb['q3']:.6g}]  bound "
                  f"{metric['bound']:.0%}  {result}")
        for key, stat in ra["per_layer"].items():
            if key.endswith(HOST_LAYER_SUFFIXES):
                continue
            other = rb["per_layer"].get(key, {}).get("value")
            if other != stat["value"]:
                print(f"{name:12s} {key}: exact count MISMATCH "
                      f"{stat['value']} != {other}")
                bad += 1
    return 0 if bad == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Turn SIGTERM into SystemExit so spawn() kills the running repeat.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        return compare(parser.parse_args(argv[1:]), bench)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: each workload's own)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per workload in the full suite")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where the full suite writes its record")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload for --seconds instead")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of a single-workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-workload run: report per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload is None:
        return suite(args, bench)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return single(args, bench)


if __name__ == "__main__":
    sys.exit(main())
