"""``repro.runner`` — parallel sweep orchestration for the experiments.

Layers (each usable on its own):

- :mod:`~repro.runner.sweep` — declarative parameter grids and
  :class:`Point` (stable structural identity + per-point seeds);
- :mod:`~repro.runner.pool` — the supervised-worker primitive (one
  process plus one pipe, waited on with its sentinel; one bounded
  teardown) and the fault-tolerant point pool built on it (per-point
  timeout, crash recovery, bounded retry with backoff, serial
  fallback);
- :mod:`~repro.runner.shardpool` — the process-mode shard pool of
  :mod:`repro.shard`, on the same primitive;
- :mod:`~repro.runner.cache` — content-addressed on-disk result cache
  keyed by params + seed + code fingerprint;
- :mod:`~repro.runner.progress` — live progress/ETA lines and the
  machine-readable ``runlog.jsonl``;
- :mod:`~repro.runner.cli` — glue used by ``python -m repro.experiments``
  (``--jobs`` / ``--no-cache`` / ``--rerun``).

See docs/ARCHITECTURE.md, "Orchestration".
"""

from .cache import DEFAULT_CACHE_DIR, ResultCache, cache_key, code_fingerprint
from .cli import (
    RunnerOptions,
    SweepOutcome,
    execute_points,
    run_sweeps,
)
from .pool import PointOutcome, PoolConfig, WorkerPool
from .progress import Progress
from .sweep import (
    Point,
    canonical_params,
    content_id,
    derive_seed,
    grid,
    make_point,
    resolve_worker,
    run_points_serial,
)

__all__ = [
    "DEFAULT_CACHE_DIR", "ResultCache", "cache_key", "code_fingerprint",
    "RunnerOptions", "SweepOutcome", "execute_points", "run_sweeps",
    "PointOutcome", "PoolConfig", "WorkerPool",
    "Progress",
    "Point", "canonical_params", "content_id", "derive_seed", "grid",
    "make_point", "resolve_worker", "run_points_serial",
]
