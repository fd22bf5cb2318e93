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
  no event object constructed. It is the one way to wait for a delay.
- :meth:`Simulator.call_later` / :meth:`Simulator.call_at` push a plain
  callable (plus positional args) onto the calendar — no ``Event``, no
  closure. They return a *handle* that :meth:`Simulator.cancel` turns
  into a no-op in O(1) without unlinking from the heap.
- :meth:`Simulator.drive` runs a generator inline for a callback state
  machine and calls back when it returns; it reaches the calendar only
  when the generator suspends.

Determinism contract: every scheduling action — event trigger,
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
the merged calendar order equals the single-kernel order. The run loop
restores the *scheduling* domain of each entry (``seq >> DOMAIN_SHIFT``)
before executing it, so work scheduled by a resumed callback is charged
to the correct counter; callbacks that act on another domain's state
(the fabric's boundary-link deliveries and ACK executions) switch
domains explicitly at the top.

One run loop
------------
:meth:`Simulator.run` and :meth:`Simulator.run_until` drain the calendar
through one release loop that executes every entry up to a limit: ``inf``
for ``run()``, the horizon for ``run(until=T)`` and inclusive windows,
and the float just below it (``math.nextafter``) for the exclusive
windows of the conservative barrier protocol. Every call counts the
entries it executed. Under the sanitizer the same calls go through one
debug loop with the same semantics. :meth:`Simulator.step` executes a
single entry.

Sanitizer (debug) mode
----------------------
``Simulator(debug=True)`` — or setting ``REPRO_SIM_DEBUG=1`` in the
environment — turns on a dynamic sanitizer (see ``docs/DETERMINISM.md``
for the full contract). The release hot path is unchanged and stays
allocation-free; when the sanitizer is on the kernel additionally

- asserts monotonic event time in the debug run loop (and rejects NaN
  times),
- rejects NaN delays at every scheduling entry point (negative
  delays are rejected unconditionally, debug or not),
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
from itertools import count
from math import inf, nextafter
from typing import Any, Callable, Generator, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Process",
    "Interrupt",
    "SimulationError",
    "DOMAIN_SHIFT",
]

#: Bits reserved for the per-domain event count in a composite sequence
#: number: domain ``d``'s counters live in ``[d << 40, (d+1) << 40)``,
#: giving every domain ~1.1e12 events before overflow into the next
#: domain's range (far beyond any run).
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

#: Sentinel target for a process suspended on a bare-float timeout.
_BARE = object()

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
            if sim._debug and sim._closed:
                raise SimulationError(
                    f"callback scheduled on {self!r} after Simulator.close()")
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


def _yielded(target: Any) -> Any:
    """``resume`` for a generator that has already yielded ``target``."""
    return target


class _Resumable:
    """What :class:`Process` and :class:`_Driven` share: resuming a
    generator and suspending it on what it yields next.

    A bare number is one calendar entry that calls ``_bare_cb`` (the
    prebound :meth:`_bare_resume`); a negative delay (or, under the
    sanitizer, a NaN) is thrown back into the generator; an
    :class:`Event` of the same simulator gets ``_resume_cb`` (the
    prebound :meth:`_resume`) as a callback. The wait is recorded on
    ``_target`` (and a bare entry on ``_bare_entry``) so
    :meth:`Process.interrupt` can detach it. Subclasses provide those
    attributes, ``sim``, ``generator``, its ``_send`` and ``name``, and
    say what a return (``_finish``) and an escaping exception
    (``_crash``) do.
    """

    __slots__ = ()

    def _step(self, resume: Callable, value: Any) -> None:
        """Resume the generator with ``resume(value)`` — its ``send`` or
        ``throw`` — and suspend it on what it yields."""
        try:
            target = resume(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            raise SimulationError(
                f"process {self.name!r} did not catch an Interrupt")
        except Exception as exc:
            self._crash(exc)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Bare-number yield: a timeout with nothing allocated beyond
            # the calendar entry itself.
            if target < 0:
                self._step(self.generator.throw, SimulationError(
                    f"negative timeout delay: {target!r}"))
                return
            sim = self.sim
            if sim._debug and target != target:
                self._step(self.generator.throw, SimulationError(
                    f"NaN timeout delay in {self.name!r}"))
                return
            seq = sim._seq + 1
            sim._seq = seq
            entry = [sim._now + target, seq, self._bare_cb, _EMPTY]
            heappush(sim._queue, entry)
            self._bare_entry = entry
            self._target = _BARE
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"{self.name!r} yielded {target!r}, expected an Event or a "
                "bare number of nanoseconds")
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._target = target
        callbacks = target.callbacks
        if callbacks is None:
            target.add_callback(self._resume_cb)
        else:
            callbacks.append(self._resume_cb)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(self._send, event._value)
        else:
            self._step(self.generator.throw, event._value)

    def _bare_resume(self) -> None:
        self._target = None
        self._bare_entry = None
        self._step(self._send, None)


class Process(Event, _Resumable):
    """A running generator; also an event that fires when the generator ends.

    The event value is the generator's return value (``StopIteration.value``).

    A process may suspend on any :class:`Event` — or on a bare ``float``
    (or ``int``), meaning a timeout of that many nanoseconds with no event
    object constructed.
    """

    __slots__ = ("generator", "name", "_target", "_send", "_resume_cb",
                 "_bare_cb", "_bare_entry")

    #: The generator's return value triggers the process event.
    _finish = Event.succeed

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
        heappush(sim._queue, [sim._now, seq, self._step,
                              (self.generator.throw, Interrupt(cause))])

    # -- internal --------------------------------------------------------
    def _start(self) -> None:
        self._step(self._send, None)

    def _crash(self, exc: BaseException) -> None:
        """An exception escaped the generator. If another process is
        waiting on this one, deliver the failure there (a parent can catch
        it); otherwise re-raise so the error never passes silently."""
        if self.callbacks:
            self.fail(exc)
        else:
            raise exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} alive={self.is_alive}>"


class _Driven(_Resumable):
    """A generator suspended under :meth:`Simulator.drive`.

    Built only when the generator first suspends; resumes it exactly as
    :class:`Process` would, calls ``done(*args)`` when it returns and
    lets an escaping exception propagate.
    """

    __slots__ = ("sim", "generator", "done", "args", "_target",
                 "_bare_entry", "_send", "_bare_cb", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator[Any, Any, Any],
                 done: Callable, args: tuple):
        self.sim = sim
        self.generator = generator
        self.done = done
        self.args = args
        self._send = generator.send
        self._bare_cb = self._bare_resume
        self._resume_cb = self._resume

    @property
    def name(self) -> str:
        return getattr(self.generator, "__name__", "generator")

    def _finish(self, _value: Any) -> None:
        self.done(*self.args)

    def _crash(self, exc: BaseException) -> None:
        raise exc


class Simulator:
    """The event calendar and simulated clock.

    All model components hold a reference to one ``Simulator`` and interact
    through :meth:`event`, :meth:`process`, :meth:`drive`, ``yield
    <delay>`` and the allocation-free :meth:`call_later` / :meth:`call_at`.

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
        #: False and pays one local test per entry on the run loop.
        self._domain = 0
        self._domain_seqs: dict = {}
        self._multi_domain = False
        #: Events executed by every :meth:`run` and :meth:`run_until`
        #: call (the shard scaling metric); :meth:`step` does not count.
        self.events_executed = 0
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
        # The key may carry a domain this kernel never entered: the run
        # loop must restore it.
        self._multi_domain = True
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
        scheduling action (event triggers, process spawns,
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

    def process(self, generator: Generator[Any, Any, Any],
                name: str = "") -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator, name=name)

    def drive(self, generator: Generator[Any, Any, Any], done: Callable,
              *args: Any) -> None:
        """Run ``generator`` now, as a process would, then ``done(*args)``.

        For a callback state machine that hands one step of its work to
        a generator (the NIC firmware running an I/O architecture's
        ``on_packet``). Nothing is scheduled to start it: it runs inside
        this call until its first suspension, and a generator that never
        suspends costs no calendar entry and no object. A suspension
        costs what it costs a :class:`Process` — one entry per bare
        number, a callback on a yielded :class:`Event` — with the same
        checks. An exception that escapes the generator propagates.
        """
        try:
            target = generator.send(None)
        except StopIteration:
            done(*args)
            return
        _Driven(self, generator, done, args)._step(_yielded, target)

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
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

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

        When ``until`` is given, entries at exactly ``until`` still run
        and the clock is advanced to exactly ``until`` even if the last
        event fires earlier, so rate computations based on ``sim.now``
        are well-defined. Without it the clock stays at the last entry.
        """
        if until is None:
            self._run(inf, None, "run")
        else:
            self._run(until, until, "run")

    def run_until(self, until: float, inclusive: bool = False) -> int:
        """Bounded-horizon run for the conservative shard protocol.

        Drains every entry with time strictly below ``until`` — or at
        most ``until`` when ``inclusive`` — then advances the clock to
        exactly ``until`` and returns the number of events executed.
        Exclusive windows are what barrier synchronisation needs: events
        *at* a barrier belong to the next window, except at the final
        horizon where ``inclusive=True`` reproduces ``run(until=T)``
        semantics.
        """
        limit = until if inclusive else nextafter(until, -inf)
        return self._run(limit, until, "run_until")

    def _run(self, limit: float, until: Optional[float], name: str) -> int:
        """The one release run loop behind :meth:`run` and
        :meth:`run_until`: execute every entry whose time is at most
        ``limit`` in ``(time, seq)`` order, then advance the clock to
        ``until`` when one is given. Returns the number of entries
        executed, also added to :attr:`events_executed`.

        Whether entries need their domain restored (module docstring,
        "Event domains") is read once per call: domains are entered at
        build time or by :meth:`post_keyed`, before a run.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"{name}(until={until}) is in the past (now={self._now})")
        if self._debug:
            executed = self._run_debug(limit, name)
        else:
            queue = self._queue
            pop = heappop
            multi = self._multi_domain
            # ``executed`` is the number of entries already run; the
            # for loop counts them cheaper than an increment per entry.
            for executed in count():
                if not queue:
                    break
                entry = queue[0]
                when = entry[0]
                if when > limit:
                    break
                pop(queue)
                self._now = when
                if multi:
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
        self.events_executed += executed
        return executed

    def _run_debug(self, limit: float, name: str) -> int:
        """Sanitizer run loop: the release loop of :meth:`_run`, plus a
        closed-simulator check and a monotonic-time assertion (which
        also rejects NaN event times) on every entry at the head of the
        calendar."""
        if self._closed:
            raise SimulationError(f"{name}() after Simulator.close()")
        queue = self._queue
        multi = self._multi_domain
        for executed in count():
            if not queue:
                break
            when = queue[0][0]
            if not when >= self._now:
                raise SimulationError(
                    f"event time went backwards: {when!r} < {self._now!r}")
            if when > limit:
                break
            entry = heappop(queue)
            self._now = when
            if multi:
                domain = entry[1] >> DOMAIN_SHIFT
                if domain != self._domain:
                    self.set_domain(domain)
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        return executed

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
