"""Sweep orchestration glue: cache + pool + progress + experiment registry.

:func:`execute_points` is the core primitive: deduplicate points by
structural identity (the same simulation requested by two experiments
runs once), serve what the result cache already has, fan the rest across
the worker pool, and persist fresh results — returning a complete
``point_id -> value`` mapping plus any points that exhausted their
retries.

:func:`run_sweeps` builds the point list for a set of experiment ids,
executes it, and collects each experiment's :class:`ExperimentResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .cache import DEFAULT_CACHE_DIR, ResultCache
from .pool import PointOutcome, PoolConfig, WorkerPool
from .progress import Progress
from .sweep import Point

__all__ = ["RunnerOptions", "SweepOutcome", "execute_points", "run_sweeps"]


@dataclass
class RunnerOptions:
    jobs: int = 1
    use_cache: bool = True
    #: Ignore existing cache entries (but still write fresh ones).
    rerun: bool = False
    cache_dir: str = DEFAULT_CACHE_DIR
    timeout: Optional[float] = None
    retries: int = 1
    backoff: float = 0.5
    quiet: bool = False
    #: Override the runlog location (default: ``<cache_dir>/runlog.jsonl``).
    runlog: Optional[str] = None
    #: Profile every executed point with cProfile, dumping one ``.prof``
    #: per point into this directory. Implies serial execution and skips
    #: cache reads (a cache hit would mean nothing runs to profile).
    profile_dir: Optional[str] = None
    #: Fail the run (exit 1) if any point reports a conservation-audit
    #: violation. Also switches the cache to audit-tagged keys, so gated
    #: runs never trust entries whose audit summary was never captured —
    #: and, symmetrically, keys of ungated runs stay byte-identical to
    #: their historical values.
    strict_audit: bool = False


@dataclass
class SweepOutcome:
    """Per-experiment result of :func:`run_sweeps`."""

    exp_id: str
    result: Any = None              # ExperimentResult when collection ran
    error: Optional[str] = None
    n_points: int = 0
    n_executed: int = 0
    n_cached: int = 0


def execute_points(points: List[Point], options: RunnerOptions,
                   progress: Optional[Progress] = None,
                   ) -> Tuple[Dict[str, Any], List[PointOutcome]]:
    """Run (or recall) every point; see module docstring."""
    cache = None
    if options.use_cache:
        cache = ResultCache(options.cache_dir,
                            audit_tag="v1" if options.strict_audit else "")

    # Structural dedupe: first point with a given content_key is canonical.
    unique: Dict[str, Point] = {}
    for point in points:
        unique.setdefault(point.content_key, point)

    values: Dict[str, Any] = {}     # content_key -> value
    to_run: List[Point] = []
    skip_cache_read = options.rerun or options.profile_dir is not None
    for key, point in unique.items():
        if cache is not None and not skip_cache_read:
            entry = cache.get_entry(point)
            if entry is not None:
                values[key] = entry["value"]
                if progress:
                    progress.point_finished(PointOutcome(
                        point=point, ok=True, value=entry["value"],
                        cached=True, audit=entry.get("audit")))
                continue
        to_run.append(point)

    failures: List[PointOutcome] = []

    def _on_done(outcome: PointOutcome) -> None:
        if outcome.ok:
            values[outcome.point.content_key] = outcome.value
            if cache is not None:
                cache.put(outcome.point, outcome.value,
                          elapsed=outcome.elapsed, audit=outcome.audit)
        else:
            failures.append(outcome)
        if progress:
            progress.point_finished(outcome)

    pool = WorkerPool(PoolConfig(jobs=options.jobs, timeout=options.timeout,
                                 retries=options.retries,
                                 backoff=options.backoff,
                                 profile_dir=options.profile_dir))
    pool.run(to_run,
             on_start=progress.point_started if progress else None,
             on_done=_on_done)

    results = {p.point_id: values[p.content_key]
               for p in points if p.content_key in values}
    return results, failures


# ----------------------------------------------------------------------
# Experiment-level orchestration
# ----------------------------------------------------------------------
def run_sweeps(exp_ids: List[str], quick: bool = True,
               seed: Optional[int] = None,
               options: Optional[RunnerOptions] = None,
               progress: Optional[Progress] = None,
               ) -> Tuple[List[SweepOutcome], Progress]:
    """Execute the combined sweep of several experiments, then collect."""
    from ..experiments import EXPERIMENTS

    options = options or RunnerOptions()
    plans: List[Tuple[str, Any, List[Point]]] = []  # (exp_id, spec, points)
    for exp_id in exp_ids:
        spec = EXPERIMENTS[exp_id]
        plans.append((exp_id, spec, spec.points(quick=quick, seed=seed)))

    all_points = [p for _, _, pts in plans for p in pts]
    if progress is None:
        runlog = options.runlog or f"{options.cache_dir}/runlog.jsonl"
        progress = Progress(total=len(all_points), jobs=options.jobs,
                            jsonl_path=runlog, quiet=options.quiet)
    results, failures = execute_points(all_points, options, progress)
    failed_ids = {o.point.point_id: o.error for o in failures}

    outcomes: List[SweepOutcome] = []
    for exp_id, spec, pts in plans:
        outcome = SweepOutcome(exp_id=exp_id, n_points=len(pts))
        missing = [p for p in pts if p.point_id not in results]
        if missing:
            details = "; ".join(
                f"{p.point_id}: {failed_ids.get(p.point_id, 'no result')}"
                for p in missing[:3])
            outcome.error = (f"{len(missing)}/{len(pts)} points failed "
                             f"({details})")
        else:
            outcome.result = spec.collect(results, quick=quick, seed=seed)
        outcomes.append(outcome)
    return outcomes, progress
