"""Process-backed shard execution with runlog heartbeats and supervision.

The coordinator (:func:`repro.shard.run_sharded` with
``mode="process"``) runs the plan's heaviest cell in its own process
and one long-lived worker process per other cell, driven over pipes:
each barrier window it issues the workers' commands, advances its own
kernel, then collects the replies. With ``N`` shards that is ``N``
busy processes, not ``N + 1``, and the coordinator's routing work
overlaps the workers' windows instead of waiting on them.

**Placement.** When the coordinator's allowed CPU set holds at least
``N`` CPUs and it is not itself a supervised child (a sweep-pool
worker, :func:`repro.runner.pool.in_supervised_child`), it pins
itself to the lowest allowed CPU and each worker to one of the next
``N - 1`` (a rerun's workers land on the same CPUs), restoring its own
mask in :meth:`ProcessShards.close`. Linux treats a pipe write as a
*sync* wake-up, placing the woken reader on the writer's CPU on the
assumption that the writer is about to sleep; the coordinator instead
goes on to run its own kernel, so without pinning the two would share
one core while the other idles. Placement touches no simulated state.
In every other case the OS places the processes.

The workers are :class:`~repro.runner.pool.Supervised` children, as
the sweep pool's are, but the failure unit here is a worker shard, not
a point (the hosted shard cannot die apart from the coordinator):

- **heartbeats** — at most every ``heartbeat_s`` of wall time, one
  ``shard_heartbeat`` runlog event per shard records its simulated time
  and cumulative event count, so a shard that stops progressing is
  visible (its ``events_executed`` flatlines while the others grow);
- **stall attribution** — a worker that leaves the coordinator waiting
  longer than ``stall_s`` *after the hosted kernel's window* gets a
  ``shard_stall`` event naming it (and a ``shard_resume`` when it
  recovers), instead of the whole run surfacing as an opaque point
  timeout;
- **death** — a worker that dies, reads EOF, tears its pipe, or
  overruns ``timeout_s`` ends the attempt: the pool tears itself down
  and raises :class:`ShardDied`, and :func:`repro.shard.run_sharded`
  reruns from t = 0 within the shard's ``max_restarts`` budget;
- **failure** — a worker raising a (deterministic, hence
  rerun-futile) exception, or an attempt whose cumulative event counts
  differ from an earlier attempt's at the same window
  (:class:`~repro.runner.shardjournal.ShardJournal`), fails the run
  with a ``shard_failed`` event and an exception naming the shard.

Every exit path runs the same *bounded* teardown
(:func:`~repro.runner.pool.stop_all`), which joins every worker and
closes every pipe end, so no orphan survives an attempt.
Events append to the same JSONL format the sweep runner's
:class:`~repro.runner.progress.Progress` writes (``{"ts": ..., "event":
...}`` per line), so a shard pool can share ``runlog.jsonl`` with the
surrounding sweep.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .pool import Supervised, WorkerLost, in_supervised_child, stop_all
from .shardjournal import ShardJournal

__all__ = ["ShardPoolConfig", "ProcessShards", "ShardDied",
           "check_kill_plan", "log_event", "worker_shards"]


@dataclass
class ShardPoolConfig:
    #: Minimum wall-clock seconds between heartbeat event batches.
    heartbeat_s: float = 5.0
    #: Seconds a worker may keep the coordinator waiting, counted from
    #: the end of the hosted kernel's window, before a stall is logged.
    stall_s: float = 30.0
    #: Hard per-reply budget in seconds, counted the same way (``None``
    #: = wait, logging stalls).
    timeout_s: Optional[float] = None
    #: Path of the JSONL runlog to append shard events to (``None`` =
    #: no logging).
    runlog: Optional[str] = None
    #: Per-shard budget of worker deaths the run recovers from by a
    #: rerun before it fails (0 = fail on the first death).
    max_restarts: int = 2
    #: Chaos hook: ``(window_index, shard)`` pairs — kill that shard's
    #: worker right after the coordinator issues that barrier window's
    #: advance command (0-based), the first time any attempt issues it,
    #: exercising the recovery path deterministically (``--shard-kill``
    #: on the scenario CLI). Every shard must be one of
    #: :func:`worker_shards`.
    kill_plan: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)


class ShardDied(Exception):
    """A worker died, closed its pipe, or overran ``timeout_s``. The
    pool is already torn down; unlike a worker's deterministic
    ``("error", ...)`` reply, a rerun may succeed."""

    def __init__(self, shard: int, reason: str):
        super().__init__(f"shard {shard} died: {reason}")
        self.shard = shard
        self.reason = reason


def worker_shards(plan) -> Tuple[int, ...]:
    """The shards :class:`ProcessShards` runs in worker processes: every
    cell but the plan's heaviest, which the coordinator runs itself."""
    return tuple(i for i in range(plan.n_shards) if i != plan.heaviest)


def check_kill_plan(plan, kill_plan) -> None:
    """Reject a kill plan entry with a negative window or a shard that
    is not a worker of ``plan`` (out of range, or the hosted shard)."""
    workers = worker_shards(plan)
    for entry in kill_plan:
        window, shard = entry
        if window < 0 or shard not in workers:
            raise ValueError(
                f"kill_plan entry {tuple(entry)!r}: needs a window >= 0 "
                f"and a worker shard {list(workers)} (shard "
                f"{plan.heaviest} runs in the coordinator)")


def log_event(runlog: Optional[str], record: Dict[str, Any]) -> None:
    """Append one event to the JSONL runlog at ``runlog`` (``None``: no
    logging), in :class:`repro.runner.progress.Progress`'s line
    format."""
    if runlog is None:
        return
    path = Path(runlog)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"ts": time.time(), **record}) + "\n")


def _placement(order: Tuple[int, ...]) -> List[Optional[int]]:
    """Each shard's CPU, shard ``order[k]`` getting the ``k``-th lowest
    allowed CPU — or ``None`` for every shard when the platform cannot
    pin, fewer CPUs than shards are allowed, or this process is a
    supervised child such as a sweep-pool worker (whose siblings would
    all pin onto the same CPUs)."""
    cpus: List[Optional[int]] = [None] * len(order)
    if not hasattr(os, "sched_setaffinity") or in_supervised_child():
        return cpus
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < len(order):
        return cpus
    for shard, cpu in zip(order, allowed):
        cpus[shard] = cpu
    return cpus


def _shard_worker(conn, normal, shards: int, index: int) -> None:
    """Worker main: build shard ``index`` of a ``shards``-way
    partition, then serve coordinator commands until told to exit.

    Commands: ``("advance", horizon, inclusive, inbox)`` injects the
    inbox and runs one window, replying ``("advanced", executed,
    outbox)``; ``("open",)`` opens measurement windows; ``("finish",)``
    replies with the kernel's final export; ``None`` (the polite exit of
    :func:`~repro.runner.pool.stop_all`) returns. Any exception is
    reported as ``("error", detail)`` rather than killing the pipe
    silently.
    """
    from ..scenario.schema import build_topology
    from ..shard.kernel import ShardKernel
    from ..topo.partition import partition
    try:
        plan = partition(build_topology(normal), shards)
        kernel = ShardKernel(normal, plan, index)
        conn.send(("ready", sorted(kernel.fabric.endpoints)))
        for msg in iter(conn.recv, None):
            cmd = msg[0]
            if cmd == "advance":
                _cmd, horizon, inclusive, inbox = msg
                executed, out = kernel.advance(horizon, inclusive, inbox)
                conn.send(("advanced", executed, out))
            elif cmd == "open":
                kernel.open_windows()
                conn.send(("opened",))
            elif cmd == "finish":
                conn.send(("finished",) + kernel.finish())
    except EOFError:
        return
    except BaseException as exc:
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
        try:
            conn.send(("error", detail))
        except (BrokenPipeError, OSError):
            pass


class ProcessShards:
    """The shard-executor protocol of :mod:`repro.shard.coordinator`:
    the heaviest cell's kernel runs in this process, every other cell in
    a worker process. One instance is one attempt at the run;
    ``journal`` carries what earlier attempts did."""

    def __init__(self, normal: Dict[str, Any], plan, config=None,
                 journal: Optional[ShardJournal] = None):
        self.config = config or ShardPoolConfig()
        self.plan = plan
        self.n = plan.n_shards
        #: The shard whose kernel runs in this process.
        self.hosted = plan.heaviest
        self.workers = worker_shards(plan)
        check_kill_plan(plan, self.config.kill_plan)
        self.journal = journal if journal is not None else ShardJournal()
        self._closed = False
        # The coordinator's CPU mask before pinning, which close()
        # restores (``None``: never pinned).
        self._saved_mask = None
        self._last_events = [0] * self.n
        self._last_beat = time.monotonic()
        self._window = 0
        # The coordinator's host-clock split: own kernel, issuing
        # commands, collecting replies.
        self._kernel_s = self._send_s = self._wait_s = 0.0
        #: Each shard's CPU, or ``None`` where the OS places it: the
        #: lowest allowed CPU for the hosted shard, the next ones for
        #: the workers in shard order.
        self.cpus = _placement((self.hosted,) + self.workers)
        self._log({"event": "shard_pool_start", "shards": self.n,
                   "hosted": self.hosted, "cpus": self.cpus,
                   "plan": plan.describe()})
        #: Each worker shard's process (``None`` at the hosted one).
        self._workers: List[Optional[Supervised]] = [None] * self.n
        from ..shard.kernel import ShardKernel
        try:
            for i in self.workers:
                self._workers[i] = Supervised(
                    _shard_worker, (normal, self.n, i),
                    name=f"repro-shard-{i}", cpu=self.cpus[i])
            # Pinned after the spawns, so the workers start from the
            # full mask and pin themselves.
            if self.cpus[self.hosted] is not None:
                self._saved_mask = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {self.cpus[self.hosted]})
            # Built while the workers build theirs.
            self.kernel = ShardKernel(normal, plan, self.hosted)
        except BaseException:
            self.close()
            raise
        for i in range(self.n):
            if i == self.hosted:
                hosts = sorted(self.kernel.fabric.endpoints)
            else:
                hosts = self._recv(i)[1]
            self._log({"event": "shard_ready", "shard": i,
                       "hosts": hosts})

    def _log(self, record: Dict[str, Any]) -> None:
        log_event(self.config.runlog, record)

    # -- supervised receive ---------------------------------------------
    def _recv(self, index: int) -> Tuple:
        """Wait for shard ``index``'s next reply, logging stalls.
        Raises :class:`ShardDied` on crash, pipe corruption, or
        timeout; fails the run outright on a worker's ``("error",
        ...)`` reply. Either way the pool is torn down first."""
        cfg = self.config
        start = time.monotonic()
        stalled = False
        while True:
            waited = time.monotonic() - start
            if not stalled and waited >= cfg.stall_s:
                stalled = True
                self._log({"event": "shard_stall", "shard": index,
                           "waited_s": round(waited, 3),
                           "events_executed": self._last_events[index]})
            if cfg.timeout_s is not None and waited >= cfg.timeout_s:
                self._died(index, f"timeout after {cfg.timeout_s}s")
            limits = [cfg.timeout_s] if cfg.timeout_s is not None else []
            if not stalled:
                limits.append(cfg.stall_s)
            try:
                reply = self._workers[index].reply(
                    min(limits) - waited if limits else None)
            except WorkerLost as lost:
                self._died(index, str(lost))
            if reply is None:
                continue
            if reply[0] == "error":
                self._fail(index, reply[1])
            if stalled:
                self._log({"event": "shard_resume", "shard": index,
                           "waited_s": round(time.monotonic() - start, 3)})
            return reply

    def _died(self, index: int, reason: str) -> None:
        """Tear the pool down (bounded) and raise :class:`ShardDied`."""
        self.close()
        raise ShardDied(index, reason)

    def _fail(self, index: int, detail: str) -> None:
        """Record the failure, tear the pool down (bounded), and
        raise."""
        self._log({"event": "shard_failed", "shard": index,
                   "error": detail})
        self.close()
        raise RuntimeError(f"shard {index} failed: {detail}")

    # -- executor protocol ----------------------------------------------
    def _round(self, command, hosted_step, window: Optional[int] = None
               ) -> Tuple[Any, List[Optional[Tuple]]]:
        """Send ``command(i)`` to every worker, run ``hosted_step()``
        on the hosted kernel while they work, then collect their
        replies, charging the host clock to send, kernel and wait.
        ``window`` fires the kill plan's entries for that window right
        after the commands go out, the first time any attempt issues
        it. A send on a broken pipe is swallowed: the collect detects
        the death. Returns the hosted step's result and the replies
        indexed by shard (``None`` at the hosted one)."""
        t0 = time.perf_counter()
        for i in self.workers:
            try:
                self._workers[i].conn.send(command(i))
            except OSError:
                pass
        if window is not None and self.journal.issue(window):
            for kill_window, shard in self.config.kill_plan:
                proc = self._workers[shard].proc
                if kill_window == window and proc.is_alive():
                    proc.kill()
        t1 = time.perf_counter()
        hosted = hosted_step()
        t2 = time.perf_counter()
        replies: List[Optional[Tuple]] = [None] * self.n
        for i in self.workers:
            replies[i] = self._recv(i)
        t3 = time.perf_counter()
        self._send_s += t1 - t0
        self._kernel_s += t2 - t1
        self._wait_s += t3 - t2
        return hosted, replies

    def advance(self, horizon: float, inclusive: bool,
                inboxes: List[List[Tuple]]) -> List[List[Tuple]]:
        """Run one barrier window on every shard: the workers' windows
        run while this process advances the hosted kernel. Fails the
        run if the shards' cumulative event counts differ from an
        earlier attempt's at this window."""
        window = self._window
        self._window += 1
        (executed, hosted_out), replies = self._round(
            lambda i: ("advance", horizon, inclusive, inboxes[i]),
            lambda: self.kernel.advance(horizon, inclusive,
                                        inboxes[self.hosted]),
            window)
        outs: List[List[Tuple]] = [[] for _ in range(self.n)]
        self._last_events[self.hosted] += executed
        outs[self.hosted] = hosted_out
        for i in self.workers:
            self._last_events[i] += replies[i][1]
            outs[i] = replies[i][2]
        shard = self.journal.acknowledge(window, tuple(self._last_events))
        if shard is not None:
            self._fail(shard, f"rerun diverged at window {window}: "
                              f"{self._last_events[shard]} events vs "
                              f"{self.journal.counts[window][shard]} in "
                              "an earlier attempt")
        now = time.monotonic()
        if now - self._last_beat >= self.config.heartbeat_s:
            self._last_beat = now
            for i in range(self.n):
                self._log({"event": "shard_heartbeat", "shard": i,
                           "sim_now_ns": horizon,
                           "events_executed": self._last_events[i]})
        return outs

    def open_windows(self) -> None:
        """Open measurement windows on every shard."""
        self._round(lambda i: ("open",), self.kernel.open_windows)

    def finish(self) -> List[Tuple]:
        """Collect every shard's final export and log its event
        count."""
        hosted, replies = self._round(lambda i: ("finish",),
                                      self.kernel.finish)
        finals: List[Tuple] = [()] * self.n
        finals[self.hosted] = hosted
        for i in self.workers:
            finals[i] = replies[i][1:]
        for i, final in enumerate(finals):
            self._log({"event": "shard_done", "shard": i,
                       "events_executed": final[3]})
        return finals

    def close(self) -> None:
        """Shut the workers down (idempotent) through the bounded
        :func:`~repro.runner.pool.stop_all` — also the teardown path of
        a failed or dead attempt, so no orphaned process or fd survives
        — and restore the coordinator's CPU mask from before the pool
        pinned it."""
        if self._closed:
            return
        self._closed = True
        if self._saved_mask is not None:
            os.sched_setaffinity(0, self._saved_mask)
        stop_all([w for w in self._workers if w is not None])
        self._log({"event": "shard_pool_done", "shards": self.n,
                   "events_executed": list(self._last_events),
                   "kernel_s": round(self._kernel_s, 6),
                   "send_s": round(self._send_s, 6),
                   "wait_s": round(self._wait_s, 6)})
