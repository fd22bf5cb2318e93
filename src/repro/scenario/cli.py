"""``python -m repro.scenario`` — validate / show / list-templates / run.

Scenario arguments resolve first against the shipped template names,
then as JSON file paths; ``validate`` accepts any number of either.
``run`` compiles and executes a scenario and prints per-host steady-state
metrics as sorted JSON (byte-identical for a fixed seed, any ``--jobs``,
any machine — the determinism contract of ``docs/SCENARIOS.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from .schema import ScenarioError, build_topology, canonical, validate
from .templates import TEMPLATE_NAMES, describe, template

__all__ = ["main"]


def _load(ref: str) -> Dict[str, Any]:
    """Resolve a scenario reference: template name first, then file."""
    if ref in TEMPLATE_NAMES:
        return template(ref)
    try:
        with open(ref, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(
            "", f"{ref!r} is neither a shipped template "
            f"({list(TEMPLATE_NAMES)}) nor a readable file") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"{ref}: not valid JSON ({exc})") from None


def _cmd_list_templates(_args) -> int:
    for name in TEMPLATE_NAMES:
        print(f"{name:22s} {describe(name)}")
    return 0


def _cmd_validate(args) -> int:
    failures = 0
    for ref in args.scenario:
        try:
            normal = validate(_load(ref))
        except ScenarioError as exc:
            print(f"FAIL {ref}: {exc}")
            failures += 1
            continue
        label = normal["name"] or ref
        print(f"ok   {ref}"
              + (f" ({label})" if label != ref else ""))
    return 1 if failures else 0


def _cmd_show(args) -> int:
    try:
        normal = validate(_load(args.scenario))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.canonical:
        print(canonical(normal))
    else:
        print(json.dumps(normal, indent=2, sort_keys=True))
    return 0


def _cmd_run(args) -> int:
    try:
        normal = validate(_load(args.scenario))
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        normal["seed"] = args.seed
    # Imported here so `validate` / `show` stay usable without pulling in
    # the whole simulator stack.
    if args.shards > 1:
        from ..shard import run_sharded
        pool_config = None
        if args.shard_mode == "process":
            from ..runner.shardpool import ShardPoolConfig, check_kill_plan
            from ..topo.partition import partition
            try:
                kill_plan = tuple(
                    (int(w), int(s)) for w, _, s in
                    (spec.partition(":") for spec in args.shard_kill))
            except ValueError:
                print("error: --shard-kill takes WINDOW:SHARD "
                      "(integers)", file=sys.stderr)
                return 1
            try:
                check_kill_plan(
                    partition(build_topology(normal), args.shards),
                    kill_plan)
            except ValueError as exc:
                print(f"error: --shard-kill: {exc}", file=sys.stderr)
                return 1
            pool_config = ShardPoolConfig(
                runlog=args.runlog,
                heartbeat_s=args.shard_heartbeat,
                stall_s=args.shard_stall,
                timeout_s=args.shard_timeout,
                max_restarts=args.shard_restarts,
                kill_plan=kill_plan)
        results = run_sharded(normal, args.shards, mode=args.shard_mode,
                              pool_config=pool_config)
    else:
        from ..workloads.topo_scenario import compile_scenario
        results = compile_scenario(normal).run()
    payload = {"scenario": normal["name"] or args.scenario,
               "seed": normal["seed"],
               "hosts": results}
    print(json.dumps(payload, sort_keys=True))
    if args.strict_audit:
        for host, metrics in sorted(results.items()):
            audit = metrics.get("audit") or {}
            if not audit.get("ok", True):
                print(f"error: conservation violations on {host}: "
                      f"{audit.get('violations')}", file=sys.stderr)
                return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenario",
        description="Validate, inspect, and run declarative scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-templates",
                   help="list shipped scenario templates"
                   ).set_defaults(func=_cmd_list_templates)

    p_validate = sub.add_parser(
        "validate", help="validate templates or scenario files")
    p_validate.add_argument("scenario", nargs="+",
                            help="template name or JSON file")
    p_validate.set_defaults(func=_cmd_validate)

    p_show = sub.add_parser(
        "show", help="print a scenario's normalised form")
    p_show.add_argument("scenario", help="template name or JSON file")
    p_show.add_argument("--canonical", action="store_true",
                        help="compact canonical JSON (the cache-key form)")
    p_show.set_defaults(func=_cmd_show)

    p_run = sub.add_parser(
        "run", help="compile and run a scenario, print per-host metrics")
    p_run.add_argument("scenario", help="template name or JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.add_argument("--strict-audit", action="store_true",
                       help="exit non-zero on conservation violations")
    p_run.add_argument("--shards", type=int, default=1,
                       help="partition the fabric into N conservative "
                            "shard kernels (docs/SHARDING.md); output "
                            "is byte-identical to --shards 1")
    p_run.add_argument("--shard-mode", choices=("inline", "process"),
                       default="inline",
                       help="advance shard kernels in this process "
                            "(inline) or one worker process each")
    p_run.add_argument("--runlog", default=None,
                       help="append shard pool events to this "
                            "runlog.jsonl (process mode only)")
    p_run.add_argument("--shard-heartbeat", type=float, default=5.0,
                       metavar="S",
                       help="seconds between shard heartbeat events "
                            "in the runlog (process mode)")
    p_run.add_argument("--shard-stall", type=float, default=30.0,
                       metavar="S",
                       help="seconds of worker silence before a "
                            "shard_stall event is logged (process mode)")
    p_run.add_argument("--shard-timeout", type=float, default=None,
                       metavar="S",
                       help="hard per-reply budget in seconds; an "
                            "overrunning worker is killed and the run "
                            "reruns from t = 0 (process mode; default: "
                            "wait forever, logging stalls)")
    p_run.add_argument("--shard-restarts", type=int, default=2,
                       metavar="N",
                       help="per-shard budget of worker deaths "
                            "recovered by a rerun before the run fails "
                            "(process mode)")
    p_run.add_argument("--shard-kill", action="append", default=[],
                       metavar="WINDOW:SHARD",
                       help="chaos hook: kill SHARD's worker at barrier "
                            "WINDOW (0-based; repeatable; process mode), "
                            "the first time any attempt issues it — the "
                            "run reruns from t = 0 and must still print "
                            "byte-identically")
    p_run.set_defaults(func=_cmd_run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
