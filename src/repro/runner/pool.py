"""Fault-tolerant process pool for simulation points.

Each worker process pulls one point at a time from its own task queue and
reports on a shared result queue; the supervisor (this module, in the
parent) owns all policy:

- **per-point timeout** — a worker that overruns its deadline is
  terminated and replaced; the point is retried;
- **crash tolerance** — a worker that dies without reporting (segfault,
  ``os._exit``, OOM-kill) is detected by liveness polling and replaced;
- **bounded retry with backoff** — every failure (exception, crash,
  timeout) is retried up to ``retries`` times, with exponentially growing
  delay, then recorded as a :class:`PointOutcome` failure — one bad point
  never aborts the sweep;
- **graceful degradation** — ``jobs <= 1``, or any failure to start
  ``multiprocessing`` workers (platforms without ``fork``/semaphores),
  falls back to in-process serial execution with the same retry policy
  (timeouts cannot be enforced without process isolation and are
  documented as best-effort there).

Results are deterministic regardless of scheduling: a point's value is a
pure function of ``(fn, params, seed)``, so the supervisor only collates.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import queue as queue_mod
import re
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..audit import drain_reports
from .sweep import Point, resolve_worker

__all__ = ["PoolConfig", "PointOutcome", "WorkerPool"]

_POLL_S = 0.05


@dataclass
class PoolConfig:
    #: Worker processes; ``<= 1`` selects the in-process serial path.
    jobs: int = 1
    #: Per-point wall-clock budget in seconds (``None`` = unlimited).
    timeout: Optional[float] = None
    #: Extra attempts after the first failure.
    retries: int = 1
    #: Base retry delay in seconds; doubles per subsequent attempt.
    backoff: float = 0.5
    #: multiprocessing start method (``None`` = platform default).
    start_method: Optional[str] = None
    #: When set, wrap each point in ``cProfile`` and dump a ``.prof`` file
    #: per point into this directory. Forces serial in-process execution
    #: (child-process profiles would be lost with the worker).
    profile_dir: Optional[str] = None


@dataclass
class PointOutcome:
    point: Point
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    elapsed: float = 0.0
    cached: bool = False
    #: Conservation-audit summary drained from ``repro.audit`` after the
    #: point executed (``None``: no audited scenario ran, or the value was
    #: served from a cache entry that predates auditing).
    audit: Optional[Dict[str, Any]] = None


@dataclass
class _TaskState:
    point: Point
    attempts: int = 0
    ready_at: float = 0.0           # backoff gate for the next attempt
    retry_pending: bool = False
    outcome: Optional[PointOutcome] = None
    errors: List[str] = field(default_factory=list)


class _Worker:
    """One child process plus its dedicated task queue."""

    def __init__(self, ctx, result_q, name: str):
        self.task_q = ctx.Queue()
        self.proc = ctx.Process(target=_worker_main,
                                args=(self.task_q, result_q),
                                name=name, daemon=True)
        self.proc.start()
        self.task_idx: Optional[int] = None
        self.deadline: Optional[float] = None
        self.started_at: float = 0.0

    @property
    def idle(self) -> bool:
        return self.task_idx is None

    def assign(self, idx: int, point: Point,
               timeout: Optional[float]) -> None:
        now = time.monotonic()
        self.task_idx = idx
        self.started_at = now
        self.deadline = (now + timeout) if timeout else None
        self.task_q.put((idx, point.fn, dict(point.params), point.seed))

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5)
        self.task_q.close()
        self.task_q.cancel_join_thread()


def _worker_main(task_q, result_q) -> None:
    # The parent-side daemon flag (which reaps us on pool exit) also
    # copies into this process and would forbid us children of our own.
    # Clearing the child-local copy lets points that shard across worker
    # processes (repro.runner.shardpool) run under the pool; the parent
    # still sees us as daemonic.
    multiprocessing.current_process().daemon = False
    while True:
        item = task_q.get()
        if item is None:
            return
        idx, fn, params, seed = item
        start = time.monotonic()
        try:
            value = resolve_worker(fn)(params, seed)
            result_q.put((idx, True, value, None, time.monotonic() - start,
                          drain_reports()))
        except BaseException as exc:  # report, don't die: the pool retries
            drain_reports()  # discard partial reports of the failed attempt
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
            result_q.put((idx, False, None, detail,
                          time.monotonic() - start, None))


class WorkerPool:
    """Execute a sequence of points under :class:`PoolConfig` policy."""

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        #: Filled by :meth:`run`: True when the multiprocessing path was
        #: unavailable and the pool degraded to serial execution.
        self.degraded_to_serial = False
        #: Why it degraded (the start-up exception); None otherwise.
        self.degradation_reason: Optional[str] = None

    # ------------------------------------------------------------------
    def run(self, points: Sequence[Point],
            on_start: Optional[Callable[[Point, int], None]] = None,
            on_done: Optional[Callable[[PointOutcome], None]] = None,
            ) -> List[PointOutcome]:
        """Run every point; returns outcomes in input order."""
        if not points:
            return []
        if self.config.jobs <= 1 or self.config.profile_dir:
            return self._run_serial(points, on_start, on_done)
        try:
            return self._run_pool(points, on_start, on_done)
        except (ImportError, OSError, ValueError) as exc:
            # No fork/spawn/semaphores on this platform: degrade, don't die.
            self.degraded_to_serial = True
            self.degradation_reason = f"{type(exc).__name__}: {exc}"
            return self._run_serial(points, on_start, on_done)

    # ------------------------------------------------------------------
    # Serial fallback
    # ------------------------------------------------------------------
    def _run_serial(self, points, on_start, on_done) -> List[PointOutcome]:
        cfg = self.config
        outcomes = []
        for point in points:
            attempts = 0
            errors: List[str] = []
            value = None
            ok = False
            audit = None
            start = time.monotonic()
            while attempts <= cfg.retries:
                attempts += 1
                if on_start:
                    on_start(point, attempts)
                try:
                    # In-process execution shares the audit mailbox with the
                    # caller; discard anything a previous caller left behind
                    # so it isn't attributed to this point.
                    drain_reports()
                    worker = resolve_worker(point.fn)
                    if cfg.profile_dir:
                        value = self._run_profiled(worker, point)
                    else:
                        value = worker(dict(point.params), point.seed)
                    ok = True
                    audit = drain_reports()
                    break
                except Exception as exc:
                    drain_reports()  # discard the failed attempt's reports
                    errors.append("".join(traceback.format_exception_only(
                        type(exc), exc)).strip())
                    if attempts <= cfg.retries:
                        time.sleep(cfg.backoff * (2 ** (attempts - 1)))
            outcome = PointOutcome(
                point=point, ok=ok, value=value,
                error=None if ok else "; ".join(errors),
                attempts=attempts, elapsed=time.monotonic() - start,
                audit=audit)
            outcomes.append(outcome)
            if on_done:
                on_done(outcome)
        return outcomes

    def _run_profiled(self, worker, point: Point):
        """Run one point under cProfile, dumping ``<point_id>.prof``."""
        profile_dir = self.config.profile_dir
        os.makedirs(profile_dir, exist_ok=True)
        fname = re.sub(r"[^A-Za-z0-9._-]+", "_", point.point_id) + ".prof"
        prof = cProfile.Profile()
        try:
            return prof.runcall(worker, dict(point.params), point.seed)
        finally:
            prof.dump_stats(os.path.join(profile_dir, fname))

    # ------------------------------------------------------------------
    # Multiprocessing path
    # ------------------------------------------------------------------
    def _run_pool(self, points, on_start, on_done) -> List[PointOutcome]:
        cfg = self.config
        ctx = (multiprocessing.get_context(cfg.start_method)
               if cfg.start_method else multiprocessing.get_context())
        result_q = ctx.Queue()
        n_workers = min(cfg.jobs, len(points))
        workers = [_Worker(ctx, result_q, name=f"repro-worker-{i}")
                   for i in range(n_workers)]
        tasks = [_TaskState(point=p) for p in points]
        pending: List[int] = list(range(len(tasks)))
        done_count = 0
        try:
            while done_count < len(tasks):
                now = time.monotonic()
                done_count += self._drain_results(result_q, tasks, workers,
                                                 on_done, now)
                done_count += self._police_workers(ctx, result_q, tasks,
                                                   workers, on_done)
                self._dispatch(tasks, pending, workers, on_start)
                if done_count < len(tasks):
                    time.sleep(_POLL_S)
        finally:
            self._shutdown(workers)
        return [t.outcome for t in tasks]

    # -- supervisor steps ----------------------------------------------
    def _drain_results(self, result_q, tasks, workers, on_done,
                       now) -> int:
        finished = 0
        while True:
            try:
                idx, ok, value, error, elapsed, audit = result_q.get_nowait()
            except queue_mod.Empty:
                return finished
            except (EOFError, OSError):  # queue torn by a killed worker
                return finished
            for worker in workers:
                if worker.task_idx == idx:
                    worker.task_idx = None
                    worker.deadline = None
            task = tasks[idx]
            if task.outcome is not None:
                continue  # late duplicate from a timed-out attempt
            if ok:
                task.outcome = PointOutcome(
                    point=task.point, ok=True, value=value,
                    attempts=task.attempts, elapsed=elapsed, audit=audit)
                finished += 1
                if on_done:
                    on_done(task.outcome)
            else:
                task.errors.append(error)
                finished += self._fail_or_retry(task, now, on_done)
        return finished

    def _police_workers(self, ctx, result_q, tasks, workers,
                        on_done) -> int:
        """Detect crashed and overrun workers; replace them; retry."""
        finished = 0
        now = time.monotonic()
        for i, worker in enumerate(workers):
            if worker.idle:
                if not worker.proc.is_alive():  # died between tasks
                    workers[i] = _Worker(ctx, result_q, worker.proc.name)
                continue
            crashed = not worker.proc.is_alive()
            overrun = worker.deadline is not None and now > worker.deadline
            if not (crashed or overrun):
                continue
            idx = worker.task_idx
            task = tasks[idx]
            worker.kill()
            workers[i] = _Worker(ctx, result_q, worker.proc.name)
            if task.outcome is not None:
                continue  # result arrived in a drain just before the check
            task.errors.append(
                f"timeout after {self.config.timeout}s" if overrun
                else f"worker died (exit {worker.proc.exitcode})")
            finished += self._fail_or_retry(task, now, on_done)
        return finished

    def _fail_or_retry(self, task: _TaskState, now: float, on_done) -> int:
        if task.attempts <= self.config.retries:
            task.ready_at = now + self.config.backoff * (
                2 ** (task.attempts - 1))
            task.retry_pending = True
            return 0
        task.outcome = PointOutcome(
            point=task.point, ok=False, value=None,
            error="; ".join(task.errors), attempts=task.attempts)
        if on_done:
            on_done(task.outcome)
        return 1

    def _dispatch(self, tasks, pending: List[int], workers, on_start):
        now = time.monotonic()
        # Refill the pending list with tasks whose backoff expired.
        for idx, task in enumerate(tasks):
            if task.retry_pending and now >= task.ready_at:
                task.retry_pending = False
                pending.append(idx)
        for worker in workers:
            if not pending:
                return
            if not worker.idle or not worker.proc.is_alive():
                continue
            idx = pending.pop(0)
            task = tasks[idx]
            task.attempts += 1
            if on_start:
                on_start(task.point, task.attempts)
            worker.assign(idx, task.point, self.config.timeout)

    @staticmethod
    def _shutdown(workers) -> None:
        for worker in workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 5
        for worker in workers:
            worker.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2)
