"""Discrete-event simulation kernel.

This module implements a small, self-contained discrete-event engine in the
style of SimPy: a :class:`Simulator` owns an event calendar (a binary heap
keyed on simulated time) and *processes* are plain Python generators that
yield :class:`Event` objects to suspend until those events fire.

Time is a ``float`` measured in **nanoseconds** throughout the code base;
helpers for other units live in :mod:`repro.sim.units`.

Hot-path idioms
---------------
The kernel is the per-packet cost floor of every experiment, so the
dominant operations have allocation-free fast paths (see
``docs/ARCHITECTURE.md`` -> "Kernel fast paths" for the full contract):

- ``yield <float>`` from a process means "timeout of that many
  nanoseconds": the process is rescheduled directly on the calendar with
  no :class:`Timeout` (or any other) object constructed. This is the
  preferred way to suspend when the timeout's event object is not needed.
- :meth:`Simulator.call_later` / :meth:`Simulator.call_at` push a plain
  callable (plus positional args) onto the calendar — no ``Event``, no
  closure. They return a *handle* that :meth:`Simulator.cancel` turns
  into a no-op in O(1) without unlinking from the heap.
- ``Simulator.timeout()`` recycles fired :class:`Timeout` objects through
  a small free-list when the sole waiter was a process (the ``yield
  sim.timeout(d)`` idiom). A timeout yielded to the kernel is owned by
  the kernel once the process resumes and must not be retained across
  the resume.

Determinism contract: every scheduling action — event trigger, timeout,
bare-float yield, ``call_later`` — consumes exactly one monotonically
increasing sequence number, and ties at equal simulated time are broken
by that sequence number. Fast paths change *what is allocated*, never
the (time, sequence) order, so identical seeds produce identical event
ordering on either idiom.

Event domains (sharded parallel DES)
------------------------------------
For :mod:`repro.shard`, the calendar supports *domains*: disjoint
sequence-number ranges, one per partition atom (a switch plus its
attached hosts). :meth:`Simulator.set_domain` switches the active
counter; a sequence number drawn in domain ``d`` is the composite
``(d << DOMAIN_SHIFT) | count``, so ties at equal time order by
``(domain, per-domain count)`` — an order every shard can reproduce
locally because it never needs to know how many events *other* domains
scheduled. A simulator that never leaves domain 0 behaves bit-identically
to the historical single-counter kernel (composite == plain count).
Cross-shard messages carry their full ``(time, composite seq)`` key,
computed by the sending shard, and are inserted verbatim with
:meth:`Simulator.post_keyed` — no local sequence number is consumed, so
the merged calendar order equals the single-kernel order. The run loops
restore the *scheduling* domain of each entry (``seq >> DOMAIN_SHIFT``)
before executing it, so work scheduled by a resumed callback is charged
to the correct counter; callbacks that act on another domain's state
(the fabric's boundary-link deliveries and ACK executions) switch
domains explicitly at the top. :meth:`Simulator.run_until` is the
bounded-horizon variant of :meth:`run` used by the conservative
barrier-window protocol: it drains events strictly below (or up to,
inclusive) a horizon and counts executed events.

Sanitizer (debug) mode
----------------------
``Simulator(debug=True)`` — or setting ``REPRO_SIM_DEBUG=1`` in the
environment — turns on a dynamic sanitizer (see ``docs/DETERMINISM.md``
for the full contract). The release hot path is unchanged and stays
allocation-free; when the sanitizer is on the kernel additionally

- asserts monotonic event time in the run loop (and rejects NaN times),
- rejects NaN timeout delays at every scheduling entry point (negative
  delays are rejected unconditionally, debug or not),
- poisons sole-waiter :class:`Timeout` objects after they fire instead
  of recycling them, so a process that illegally retains one across its
  resume gets a hard error instead of silent state aliasing,
- detects events triggered and callbacks scheduled after
  :meth:`Simulator.close` (run teardown), and
- tracks every spawned :class:`Process` so :meth:`Simulator.close`
  can report never-terminated processes at shutdown.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, period):
...     while sim.now < 10:
...         yield period
...         log.append((name, sim.now))
>>> _ = sim.process(worker(sim, "a", 3))
>>> _ = sim.process(worker(sim, "b", 5))
>>> sim.run(until=10)
>>> log
[('a', 3.0), ('b', 5.0), ('a', 6.0), ('a', 9.0), ('b', 10.0)]
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "SimulationError",
    "DOMAIN_SHIFT",
]

#: Bits reserved for the per-domain event count in a composite sequence
#: number: domain ``d``'s counters live in ``[d << 40, (d+1) << 40)``,
#: giving every domain ~1.1e12 events before overflow into the next
#: domain's range (far beyond any run; the debug loop asserts it).
DOMAIN_SHIFT = 40


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown *into* a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch the exception and continue; ``cause``
    carries an arbitrary, caller-supplied payload describing the reason.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


#: Sentinel distinguishing "not yet triggered" from a ``None`` event value.
_PENDING = object()

#: Sanitizer poison value: a recycled Timeout retained across a resume.
_RECYCLED = object()

#: Sentinel target for a process suspended on a bare-float timeout.
_BARE = object()

#: Fired Timeouts kept for reuse, per simulator.
_POOL_MAX = 128

_EMPTY = ()


def _cancelled(*_args) -> None:
    """Replacement callable for cancelled calendar entries."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    *triggers* it, scheduling all registered callbacks at the current
    simulated time. Events are single-use: triggering twice is an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with this event when it fires. ``None`` once fired.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire (value is set)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        if self._value is _RECYCLED:
            raise SimulationError(
                "timeout was recycled by the kernel: a timeout yielded to "
                "the kernel must not be retained across the resume")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        sim = self.sim
        if sim._debug and sim._closed:
            raise SimulationError(
                f"{self!r} triggered after Simulator.close()")
        self._value = value
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, [sim._now, seq, self._process, _EMPTY])
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        sim = self.sim
        if sim._debug and sim._closed:
            raise SimulationError(
                f"{self!r} triggered after Simulator.close()")
        self._ok = False
        self._value = exception
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, [sim._now, seq, self._process, _EMPTY])
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event fires.

        If the event has already been processed the callback runs at the
        *current* simulation step instead of being lost.
        """
        if self.callbacks is None:
            # Already fired: deliver at the current step.
            sim = self.sim
            if sim._debug:
                if self._value is _RECYCLED:
                    raise SimulationError(
                        "waiting on a timeout the kernel already recycled")
                if sim._closed:
                    raise SimulationError(
                        f"callback scheduled on {self!r} after "
                        "Simulator.close()")
            seq = sim._seq + 1
            sim._seq = seq
            heappush(sim._queue, [sim._now, seq, fn, (self,)])
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation.

    Instances whose sole waiter is a process (``yield sim.timeout(d)``)
    are recycled through the simulator's free-list after firing; such a
    timeout must not be retained by the process across the resume.
    """

    __slots__ = ("delay", "_delayed_value", "_armed")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        Event.__init__(self, sim)
        self.delay = delay
        self._delayed_value = value
        #: True when the kernel may recycle this instance after it fires.
        self._armed = False
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, [sim._now + delay, seq, self._process, _EMPTY])

    def _process(self) -> None:
        # The value is only published when the timeout actually fires so
        # that ``triggered`` stays False while the timeout is pending.
        if self._value is _PENDING:
            self._value = self._delayed_value
        callbacks, self.callbacks = self.callbacks, None
        if self._armed and len(callbacks) == 1:
            # Sole waiter is a process: deliver, then recycle. The resumed
            # generator runs inside this call and reads the value before
            # the reset below.
            callbacks[0](self)
            if self.sim._debug:
                # Sanitizer: poison instead of recycling, so a process
                # that retained this timeout across its resume trips a
                # hard error on the next value/wait instead of silently
                # aliasing a reused instance.
                self._value = _RECYCLED
                self._ok = True
                self._delayed_value = None
                self._armed = False
                return
            self._value = _PENDING
            self._ok = True
            self._delayed_value = None
            self._armed = False
            self.callbacks = []
            pool = self.sim._timeout_pool
            if len(pool) < _POOL_MAX:
                pool.append(self)
            return
        for fn in callbacks:
            fn(self)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The event value is the generator's return value (``StopIteration.value``).

    A process may suspend on any :class:`Event` — or on a bare ``float``
    (or ``int``), meaning a timeout of that many nanoseconds with no event
    object constructed.
    """

    __slots__ = ("generator", "name", "_target", "_send", "_resume_cb",
                 "_bare_cb", "_bare_entry")

    def __init__(self, sim: "Simulator",
                 generator: Generator[Any, Any, Any],
                 name: str = ""):
        Event.__init__(self, sim)
        send = getattr(generator, "send", None)
        if send is None:
            raise SimulationError(
                f"process() requires a generator, got {generator!r}")
        self.generator = generator
        self._send = send
        self.name = name or getattr(generator, "__name__", "process")
        #: What this process is waiting on: an Event, the bare-timeout
        #: sentinel, or None while running.
        self._target: Any = None
        self._bare_entry: Optional[list] = None
        # Prebound callbacks: created once so the per-suspend cost is a
        # plain attribute load instead of a bound-method allocation.
        self._resume_cb = self._resume
        self._bare_cb = self._bare_resume
        # Kick off on the next simulation step.
        if sim._debug:
            if sim._closed:
                raise SimulationError(
                    f"process {self.name!r} spawned after Simulator.close()")
            sim._procs.append(self)
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue, [sim._now, seq, self._start, _EMPTY])

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        target = self._target
        if target is None:
            raise SimulationError(
                "cannot interrupt a process that is not waiting")
        self._target = None
        if target is _BARE:
            # Neutralise the pending calendar entry in place.
            entry = self._bare_entry
            entry[2] = _cancelled
            entry[3] = _EMPTY
            self._bare_entry = None
        elif target.callbacks is not None:
            # Detach from the event we were waiting on so its eventual
            # firing does not resume us a second time.
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        sim = self.sim
        seq = sim._seq + 1
        sim._seq = seq
        heappush(sim._queue,
                 [sim._now, seq, self._step_throw, (Interrupt(cause),)])

    # -- internal --------------------------------------------------------
    def _start(self) -> None:
        self._step_send(None)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step_send(event._value)
        else:
            self._step_throw(event._value)

    def _bare_resume(self) -> None:
        self._target = None
        self._bare_entry = None
        self._step_send(None)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Exception as exc:
            self._crash(exc)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Bare-number yield: a timeout with nothing allocated beyond
            # the calendar entry itself.
            if target < 0:
                self._step_throw(
                    SimulationError(f"negative timeout delay: {target!r}"))
                return
            sim = self.sim
            if sim._debug and target != target:
                self._step_throw(
                    SimulationError(f"NaN timeout delay in {self.name!r}"))
                return
            seq = sim._seq + 1
            sim._seq = seq
            entry = [sim._now + target, seq, self._bare_cb, _EMPTY]
            heappush(sim._queue, entry)
            self._bare_entry = entry
            self._target = _BARE
            return
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self.generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not catch an Interrupt")
        except Exception as inner:
            self._crash(inner)
            return
        cls = target.__class__
        if cls is float or cls is int:
            if target < 0:
                self._step_throw(
                    SimulationError(f"negative timeout delay: {target!r}"))
                return
            sim = self.sim
            if sim._debug and target != target:
                self._step_throw(
                    SimulationError(f"NaN timeout delay in {self.name!r}"))
                return
            seq = sim._seq + 1
            sim._seq = seq
            entry = [sim._now + target, seq, self._bare_cb, _EMPTY]
            heappush(sim._queue, entry)
            self._bare_entry = entry
            self._target = _BARE
            return
        self._wait_on(target)

    def _crash(self, exc: BaseException) -> None:
        """An exception escaped the generator. If another process is
        waiting on this one, deliver the failure there (a parent can catch
        it); otherwise re-raise so the error never passes silently."""
        if self.callbacks:
            self.fail(exc)
        else:
            raise exc

    def _wait_on(self, target: Event) -> None:
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an "
                "Event or a bare number of nanoseconds")
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._target = target
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume_cb)
            return
        if not callbacks and type(target) is Timeout:
            # Sole waiter on a plain timeout: arm it for free-list reuse.
            target._armed = True
        callbacks.append(self._resume_cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
        else:
            for ev in self.events:
                ev.add_callback(self._check)

    def _collect(self) -> dict:
        return {ev: ev._value for ev in self.events if ev.triggered}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires once every constituent event has fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Simulator:
    """The event calendar and simulated clock.

    All model components hold a reference to one ``Simulator`` and interact
    through :meth:`timeout`, :meth:`event`, :meth:`process`, and the
    allocation-free :meth:`call_later` / :meth:`call_at`.

    Calendar entries are ``[time, seq, fn, args]`` lists; ``fn(*args)``
    runs when the entry fires. ``seq`` breaks ties at equal times in
    scheduling order, which is what makes runs deterministic.
    """

    def __init__(self, debug: Optional[bool] = None) -> None:
        if debug is None:
            debug = os.environ.get("REPRO_SIM_DEBUG", "") not in ("", "0")
        self._now: float = 0.0
        self._queue: List[list] = []  # heap of [time, seq, fn, args]
        self._seq = 0
        #: Active event domain and the saved composite counters of the
        #: inactive ones (see module docstring, "Event domains"). A
        #: simulator that never leaves domain 0 keeps ``_multi_domain``
        #: False and pays nothing on the hot run loop.
        self._domain = 0
        self._domain_seqs: dict = {}
        self._multi_domain = False
        #: Events executed by :meth:`run_until` (the shard scaling
        #: metric); plain :meth:`run` does not count.
        self.events_executed = 0
        self._timeout_pool: List[Timeout] = []
        #: Sanitizer mode (see module docstring). Checked with a plain
        #: attribute load on a handful of scheduling paths; never causes
        #: an allocation when off.
        self._debug = debug
        self._closed = False
        #: Every process ever spawned (debug mode only) so close() can
        #: report the never-terminated ones.
        self._procs: List[Process] = []

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def debug(self) -> bool:
        """Whether the dynamic sanitizer is on for this simulator."""
        return self._debug

    @property
    def closed(self) -> bool:
        return self._closed

    # -- event domains ----------------------------------------------------
    @property
    def domain(self) -> int:
        """The active event domain (0 unless domains are in use)."""
        return self._domain

    def set_domain(self, domain: int) -> None:
        """Make ``domain`` the active sequence-number range.

        Every subsequent scheduling action draws composite sequence
        numbers ``(domain << DOMAIN_SHIFT) | count`` until the next
        switch. Counters are preserved across switches. Switching to the
        already-active domain is a no-op, so single-domain code (domain
        0 throughout) is bit-identical to the pre-domain kernel.
        """
        if domain == self._domain:
            return
        self._domain_seqs[self._domain] = self._seq
        self._seq = self._domain_seqs.get(domain, domain << DOMAIN_SHIFT)
        self._domain = domain
        self._multi_domain = True

    def reserve_key(self, delay: float) -> tuple:
        """Consume one sequence number ``delay`` ns from now *without*
        scheduling anything; returns the ``(time, seq)`` calendar key.

        This is how a shard kernel stands in for a ``call_later`` whose
        callback runs in a peer shard: the local counter advances exactly
        as the single-kernel run's would, and the returned key rides the
        cross-shard channel so the peer can insert the entry verbatim.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        if self._debug:
            self._debug_check_delay(delay)
        seq = self._seq + 1
        self._seq = seq
        return (self._now + delay, seq)

    def post_keyed(self, when: float, seq: int, fn: Callable,
                   *args: Any) -> list:
        """Insert a calendar entry with an explicit ``(when, seq)`` key.

        No local sequence number is consumed: the key was allocated by
        whoever scheduled the work (possibly another shard's kernel, via
        :meth:`reserve_key`). ``when`` must not be in the past. Returns
        the entry as a :meth:`cancel`-able handle.
        """
        if when < self._now:
            raise SimulationError(
                f"post_keyed({when}) is in the past (now={self._now})")
        if self._debug:
            self._debug_check_delay(when - self._now)
        entry = [when, seq, fn, args]
        heappush(self._queue, entry)
        return entry

    # -- sanitizer teardown ----------------------------------------------
    def alive_processes(self) -> List[Process]:
        """Never-terminated processes spawned so far (debug mode only;
        always empty in release mode, which does not track processes)."""
        return [p for p in self._procs if p.is_alive]

    def close(self) -> List[Process]:
        """Tear the simulator down and return the leak report.

        After ``close()`` a debug-mode simulator rejects every further
        scheduling action (event triggers, timeouts, process spawns,
        ``call_later``/``call_at``, ``run``) with :class:`SimulationError`
        — catching components that keep scheduling work past the end of
        an experiment. The returned list contains the never-terminated
        processes at shutdown (empty in release mode). Closing twice is
        harmless.
        """
        leaked = self.alive_processes()
        self._closed = True
        return leaked

    # -- event creation ---------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now.

        Prefer ``yield <delay>`` inside processes when the event object is
        not needed — it allocates nothing.
        """
        if self._debug:
            self._debug_check_delay(delay)
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay!r}")
            t = pool.pop()
            t.delay = delay
            t._delayed_value = value
            seq = self._seq + 1
            self._seq = seq
            heappush(self._queue, [self._now + delay, seq, t._process,
                                   _EMPTY])
            return t
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Any, Any, Any],
                name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- allocation-free scheduling ---------------------------------------
    def call_at(self, when: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` at absolute time ``when``; returns a handle
        accepted by :meth:`cancel`."""
        if when < self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})")
        if self._debug:
            self._debug_check_delay(when - self._now)
        seq = self._seq + 1
        self._seq = seq
        entry = [when, seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def call_later(self, delay: float, fn: Callable, *args: Any) -> list:
        """Run ``fn(*args)`` ``delay`` ns from now; returns a handle
        accepted by :meth:`cancel`. Allocation-free: no Event, no closure."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        if self._debug:
            self._debug_check_delay(delay)
        seq = self._seq + 1
        self._seq = seq
        entry = [self._now + delay, seq, fn, args]
        heappush(self._queue, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Neutralise a pending :meth:`call_later`/:meth:`call_at` entry.

        O(1): the entry stays on the calendar but fires as a no-op.
        Cancelling an entry that already fired is harmless.
        """
        handle[2] = _cancelled
        handle[3] = _EMPTY

    # -- sanitizer checks -------------------------------------------------
    def _debug_check_delay(self, delay: float) -> None:
        """Debug-only scheduling guard: closed simulator, NaN delay."""
        if self._closed:
            raise SimulationError(
                "scheduling a callback after Simulator.close()")
        if delay != delay:
            raise SimulationError("NaN delay scheduled on the calendar")

    # -- execution ---------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        """Schedule ``event._process`` ``delay`` ns from now (internal)."""
        seq = self._seq + 1
        self._seq = seq
        heappush(self._queue, [self._now + delay, seq, event._process,
                               _EMPTY])

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one scheduled event."""
        entry = heappop(self._queue)
        if self._debug and not entry[0] >= self._now:
            raise SimulationError(
                f"event time went backwards: {entry[0]!r} < {self._now!r}")
        self._now = entry[0]
        if self._multi_domain:
            domain = entry[1] >> DOMAIN_SHIFT
            if domain != self._domain:
                self.set_domain(domain)
        args = entry[3]
        if args:
            entry[2](*args)
        else:
            entry[2]()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar empties or simulated time reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so rate computations based on
        ``sim.now`` are well-defined.
        """
        if self._debug:
            self._run_debug(until)
            return
        if self._multi_domain:
            self._run_domains(until)
            return
        queue = self._queue
        pop = heappop
        if until is None:
            while queue:
                entry = pop(queue)
                self._now = entry[0]
                args = entry[3]
                if args:
                    entry[2](*args)
                else:
                    entry[2]()
            return
        if until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        while queue:
            entry = queue[0]
            when = entry[0]
            if when > until:
                break
            pop(queue)
            self._now = when
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        if self._now < until:
            self._now = until

    def _run_domains(self, until: Optional[float]) -> None:
        """Release run loop for multi-domain simulators: identical to
        :meth:`run` plus restoring each entry's scheduling domain
        (``seq >> DOMAIN_SHIFT``) before executing it, so cascaded
        scheduling draws from the correct per-domain counter."""
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        pop = heappop
        while queue:
            entry = queue[0]
            when = entry[0]
            if until is not None and when > until:
                break
            pop(queue)
            self._now = when
            domain = entry[1] >> DOMAIN_SHIFT
            if domain != self._domain:
                self.set_domain(domain)
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        if until is not None and self._now < until:
            self._now = until

    def run_until(self, until: float, inclusive: bool = False) -> int:
        """Bounded-horizon run for the conservative shard protocol.

        Drains every entry with time strictly below ``until`` — or at
        most ``until`` when ``inclusive`` — then advances the clock to
        exactly ``until`` and returns the number of events executed
        (also accumulated on :attr:`events_executed`). Exclusive windows
        are what barrier synchronisation needs: events *at* a barrier
        belong to the next window, except at the final horizon where
        ``inclusive=True`` reproduces ``run(until=T)`` semantics.
        """
        if until < self._now:
            raise SimulationError(
                f"run_until({until}) is in the past (now={self._now})")
        if self._debug and self._closed:
            raise SimulationError("run_until() after Simulator.close()")
        queue = self._queue
        pop = heappop
        debug = self._debug
        executed = 0
        while queue:
            entry = queue[0]
            when = entry[0]
            if when > until or (when == until and not inclusive):
                break
            if debug and not when >= self._now:
                raise SimulationError(
                    f"event time went backwards: {when!r} < {self._now!r}")
            pop(queue)
            self._now = when
            domain = entry[1] >> DOMAIN_SHIFT
            if domain != self._domain:
                self.set_domain(domain)
            executed += 1
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        if self._now < until:
            self._now = until
        self.events_executed += executed
        return executed

    def _run_debug(self, until: Optional[float]) -> None:
        """Sanitizer run loop: same semantics as :meth:`run`, plus a
        monotonic-time assertion (which also rejects NaN event times) on
        every entry popped from the calendar."""
        if self._closed:
            raise SimulationError("run() after Simulator.close()")
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        queue = self._queue
        while queue:
            when = queue[0][0]
            if not when >= self._now:
                raise SimulationError(
                    f"event time went backwards: {when!r} < {self._now!r}")
            if until is not None and when > until:
                break
            entry = heappop(queue)
            self._now = when
            if self._multi_domain:
                domain = entry[1] >> DOMAIN_SHIFT
                if domain != self._domain:
                    self.set_domain(domain)
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        if until is not None and self._now < until:
            self._now = until

    def run_process(self, generator: Generator[Any, Any, Any],
                    until: Optional[float] = None) -> Any:
        """Convenience: start ``generator``, run, and return its value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError("process did not finish before run() ended")
        if not proc.ok:
            raise proc._value
        return proc.value
