"""CLI: run reproduction experiments and print the paper-style output.

Usage::

    python -m repro.experiments --list
    python -m repro.experiments fig09 table2
    python -m repro.experiments all --full --jobs 8
    python -m repro.experiments fig09 --seed 42 --rerun

Sweeps execute through :mod:`repro.runner`: independent simulation points
run across a worker pool (``--jobs``), completed points are served from
the content-addressed cache under ``.repro_cache/`` (disable with
``--no-cache``, force re-execution with ``--rerun``), and progress/ETA
lines go to stderr while the result tables stay on stdout.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import EXPERIMENTS
from ..runner import RunnerOptions, run_sweeps


def _expand_ids(requested, parser: argparse.ArgumentParser):
    """Validate and dedupe experiment ids (order-preserving) up front, so
    an unknown id fails before any simulation starts."""
    ids = []
    seen = set()
    for exp_id in requested:
        expanded = list(EXPERIMENTS) if exp_id == "all" else [exp_id]
        for eid in expanded:
            if eid not in EXPERIMENTS:
                parser.error(f"unknown experiment {eid!r}; choose from "
                             f"{sorted(EXPERIMENTS)} (or 'all')")
            if eid not in seen:
                seen.add(eid)
                ids.append(eid)
    return ids


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce CEIO's figures and tables.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids or 'all' (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="print experiment ids + descriptions and exit")
    parser.add_argument("--full", action="store_true",
                        help="full sweeps (slower) instead of quick mode")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="root seed: each simulation point draws its own "
                             "RngRegistry substream from it (default: the "
                             "calibrated per-experiment seeds)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the sweep (default 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--rerun", action="store_true",
                        help="ignore cached results (still refresh them)")
    parser.add_argument("--cache-dir", default=".repro_cache",
                        help="result cache location (default .repro_cache)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-point timeout in seconds (pool mode)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="retries per failed/crashed/timed-out point "
                             "(default 1)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-point progress lines")
    parser.add_argument("--strict-audit", action="store_true",
                        help="fail (exit 1) if any point reports a "
                             "cross-layer conservation violation "
                             "(repro.audit); cached entries without an "
                             "audit summary are re-executed")
    parser.add_argument("--profile", action="store_true",
                        help="wrap every executed point in cProfile and "
                             "dump <point>.prof next to the runlog "
                             "(runs serially; skips cache reads)")
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(eid) for eid in EXPERIMENTS)
        for eid, spec in EXPERIMENTS.items():
            print(f"{eid:<{width}}  {spec.description}")
        return 0
    if not args.experiments:
        parser.error("no experiments given (try --list or 'all')")

    ids = _expand_ids(args.experiments, parser)
    profile_dir = None
    if args.profile:
        # .prof files land next to the runlog (<cache_dir>/profiles/).
        profile_dir = f"{args.cache_dir}/profiles"
        print(f"profiling: one .prof per point under {profile_dir}/ "
              "(serial execution, cache reads skipped)", file=sys.stderr)
    options = RunnerOptions(
        jobs=args.jobs, use_cache=not args.no_cache, rerun=args.rerun,
        cache_dir=args.cache_dir, timeout=args.timeout,
        retries=args.retries, quiet=args.quiet, profile_dir=profile_dir,
        strict_audit=args.strict_audit)

    start = time.time()
    outcomes, progress = run_sweeps(ids, quick=not args.full,
                                    seed=args.seed, options=options)
    failed = 0
    for outcome in outcomes:
        if outcome.error:
            print(f"== {outcome.exp_id}: SWEEP FAILED ==\n{outcome.error}\n",
                  file=sys.stderr)
            failed += 1
            continue
        print(outcome.result.render())
        print()
        if not outcome.result.all_passed:
            failed += 1
    summary = progress.summary()
    print(f"{summary}; total wall-clock {time.time() - start:.1f}s",
          file=sys.stderr)
    if args.strict_audit and progress.audit_violations:
        worst = sorted(progress.audit_failed_points.items())
        print(f"strict audit: {progress.audit_violations} conservation "
              f"violation(s) across {len(worst)} point(s): "
              + ", ".join(f"{pid} ({n})" for pid, n in worst[:5]),
              file=sys.stderr)
        return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
