"""Fault-tolerant process pool for simulation points, and the
supervised-worker primitive it shares with :mod:`repro.runner.shardpool`.

A :class:`Supervised` worker is one child process plus one duplex pipe.
Each wait is one :func:`multiprocessing.connection.wait` on the pipe and
the process sentinel, so one call tells a reply, a death (or an EOF or
torn pipe: :class:`WorkerLost`) and a deadline apart, with no polling.
:func:`stop_all` is the one bounded teardown.

:class:`WorkerPool` sends each worker one point at a time and waits on
every worker at once, until the nearest point deadline or retry backoff.
The supervisor (this module, in the parent) owns all policy:

- **per-point timeout** — a worker that overruns its deadline is
  killed and replaced; the point is retried;
- **crash tolerance** — a worker that dies without reporting (segfault,
  ``os._exit``, OOM-kill) wakes the supervisor through its sentinel and
  is replaced;
- **bounded retry with backoff** — every failure (exception, crash,
  timeout) is retried up to ``retries`` times, with exponentially growing
  delay, then recorded as a :class:`PointOutcome` failure — one bad point
  never aborts the sweep;
- **graceful degradation** — ``jobs <= 1``, or any failure to start
  worker processes (platforms without ``fork``/semaphores), falls back
  to in-process serial execution with the same retry policy (timeouts
  cannot be enforced without process isolation and are documented as
  best-effort there).

Results are deterministic regardless of scheduling: a point's value is a
pure function of ``(fn, params, seed)``, so the supervisor only collates.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import re
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..audit import drain_reports
from .sweep import Point, resolve_worker

__all__ = ["PoolConfig", "PointOutcome", "WorkerPool", "Supervised",
           "WorkerLost", "in_supervised_child", "stop_all"]

#: Total wall-clock budget for joining every worker at teardown.
_JOIN_S = 5.0

# True in a child that :class:`Supervised` spawned (set there, so it is
# child-local).
_supervised_child = False


def in_supervised_child() -> bool:
    """Whether this process is a :class:`Supervised` child (a sweep-pool
    or shard worker)."""
    return _supervised_child


class WorkerLost(Exception):
    """A supervised child died, or closed or tore its pipe."""


def _child_main(target, conn, parent_end, cpu: Optional[int],
                args: Tuple) -> None:
    global _supervised_child
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    _supervised_child = True
    # The parent's end came along with the fork; closing it here makes
    # the parent's death read as EOF.
    parent_end.close()
    # The child-local copy of the daemon flag would forbid children of
    # our own (a sweep point that runs a sharded scenario); the parent
    # still sees us as daemonic.
    multiprocessing.current_process().daemon = False
    target(conn, *args)


class Supervised:
    """One child process running ``target(conn, *args)`` and ``conn``,
    the parent's end of a duplex pipe to it. The child is pinned to
    ``cpu`` (unless ``None``) before anything else runs."""

    def __init__(self, target: Callable, args: Tuple = (),
                 name: Optional[str] = None, cpu: Optional[int] = None):
        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(
            target=_child_main, args=(target, child, self.conn, cpu, args),
            name=name, daemon=not multiprocessing.current_process().daemon)
        self.proc.start()
        # Closed here at once, so the child's death reads as EOF.
        child.close()

    def reply(self, timeout: Optional[float]) -> Any:
        """The child's next message, or ``None`` if ``timeout`` seconds
        (``None``: no limit) pass first. Raises :class:`WorkerLost` if
        the child closed or tore its pipe, or died."""
        ready = wait([self.conn, self.proc.sentinel], timeout)
        if not ready:
            return None
        if self.conn in ready:
            try:
                return self.conn.recv()
            except (EOFError, OSError):  # EOF, or a torn mid-kill write
                pass
        # The child's pipe end and its sentinel close as it exits.
        self.proc.join(_JOIN_S)
        raise WorkerLost(f"worker died (exit {self.proc.exitcode})")

    def kill(self) -> None:
        """Stop the child now — terminate, then kill if it lingers —
        and close the pipe."""
        for stop in (self.proc.terminate, self.proc.kill):
            if not self.proc.is_alive():
                break
            stop()
            self.proc.join(2)
        self.conn.close()


def stop_all(workers: Sequence[Supervised]) -> None:
    """Shut ``workers`` down within a bounded wall-clock budget: a
    polite exit (``None`` on the pipe), one shared join deadline, then
    :meth:`Supervised.kill` for any that linger, which also closes every
    pipe end."""
    for worker in workers:
        try:
            worker.conn.send(None)
        except OSError:  # a dead child or a closed pipe
            pass
    deadline = time.monotonic() + _JOIN_S
    for worker in workers:
        worker.proc.join(max(0.0, deadline - time.monotonic()))
    for worker in workers:
        worker.kill()


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
    #: While the task waits out a retry backoff: when it may run again.
    retry_at: Optional[float] = None
    #: While the task runs under a timeout: when it overruns.
    deadline: Optional[float] = None
    outcome: Optional[PointOutcome] = None
    errors: List[str] = field(default_factory=list)


def _point_worker(conn) -> None:
    """Point-worker main: run each ``(fn, params, seed)`` it is sent,
    replying ``(ok, value, error, elapsed, audit)``, until told to
    exit."""
    try:
        for fn, params, seed in iter(conn.recv, None):
            start = time.monotonic()
            try:
                value = resolve_worker(fn)(params, seed)
                conn.send((True, value, None, time.monotonic() - start,
                           drain_reports()))
            except BaseException as exc:  # report, don't die: the pool retries
                drain_reports()  # discard partial reports of the failed attempt
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
                conn.send((False, None, detail, time.monotonic() - start,
                           None))
    except EOFError:  # the supervisor is gone
        pass


def _spawn(i: int) -> Supervised:
    return Supervised(_point_worker, name=f"repro-worker-{i}")


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
        tasks = [_TaskState(point=p) for p in points]
        waiting = deque(range(len(tasks)))
        workers: List[Supervised] = []
        # The index of the task each worker runs (None: idle).
        running: List[Optional[int]] = []
        left = len(tasks)
        try:
            for i in range(min(self.config.jobs, len(tasks))):
                workers.append(_spawn(i))
                running.append(None)
            while left:
                now = time.monotonic()
                for idx, task in enumerate(tasks):
                    if task.retry_at is not None and now >= task.retry_at:
                        task.retry_at = None
                        waiting.append(idx)
                for i, worker in enumerate(workers):
                    if running[i] is None and waiting:
                        running[i] = waiting.popleft()
                        self._assign(worker, tasks[running[i]], on_start)
                wake = [t for task in tasks
                        for t in (task.deadline, task.retry_at)
                        if t is not None]
                wait([h for w in workers for h in (w.conn, w.proc.sentinel)],
                     max(0.0, min(wake) - now) if wake else None)
                for i in range(len(workers)):
                    left -= self._collect(i, workers, running, tasks,
                                          on_done)
        finally:
            stop_all(workers)
        return [t.outcome for t in tasks]

    # -- supervisor steps ----------------------------------------------
    def _assign(self, worker: Supervised, task: _TaskState,
                on_start) -> None:
        task.attempts += 1
        if on_start:
            on_start(task.point, task.attempts)
        timeout = self.config.timeout
        task.deadline = time.monotonic() + timeout if timeout else None
        try:
            worker.conn.send((task.point.fn, dict(task.point.params),
                              task.point.seed))
        except OSError:  # died while idle: the collect reports it
            pass

    def _collect(self, i: int, workers: List[Supervised],
                 running: List[Optional[int]], tasks, on_done) -> int:
        """Take worker ``i``'s reply, if any; replace the worker if it
        died or overran its point's deadline. Returns the number of
        points this finished (0 or 1)."""
        task = None if running[i] is None else tasks[running[i]]
        try:
            reply = workers[i].reply(0)
            if reply is None:
                if (task is None or task.deadline is None
                        or time.monotonic() < task.deadline):
                    return 0
                error = f"timeout after {self.config.timeout}s"
        except WorkerLost as lost:
            reply, error = None, str(lost)
        if reply is None:
            workers[i].kill()
            workers[i] = _spawn(i)
        running[i] = None
        if task is None:  # died between points
            return 0
        task.deadline = None
        if reply is not None:
            ok, value, error, elapsed, audit = reply
            if ok:
                task.outcome = PointOutcome(
                    point=task.point, ok=True, value=value,
                    attempts=task.attempts, elapsed=elapsed, audit=audit)
                if on_done:
                    on_done(task.outcome)
                return 1
        task.errors.append(error)
        return self._fail_or_retry(task, on_done)

    def _fail_or_retry(self, task: _TaskState, on_done) -> int:
        if task.attempts <= self.config.retries:
            task.retry_at = time.monotonic() + self.config.backoff * (
                2 ** (task.attempts - 1))
            return 0
        task.outcome = PointOutcome(
            point=task.point, ok=False, value=None,
            error="; ".join(task.errors), attempts=task.attempts)
        if on_done:
            on_done(task.outcome)
        return 1
