"""Unit tests for the DES kernel: events, processes, delays, interrupts."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield 5
        assert sim.now == 5.0
        yield 2.5
        assert sim.now == 7.5

    sim.run_process(proc(sim))
    assert sim.now == 7.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1, print)
    with pytest.raises(SimulationError):
        sim.reserve_key(-1)


def test_timeout_carries_value():
    sim = Simulator()

    def proc(sim):
        ev = sim.event()
        sim.call_later(1, ev.succeed, "hello")
        got = yield ev
        return got

    assert sim.run_process(proc(sim)) == "hello"


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield 10
        fired.append(sim.now)
        yield 10
        fired.append(sim.now)

    sim.process(proc(sim))
    sim.run(until=15)
    assert fired == [10.0]
    assert sim.now == 15.0


def test_run_until_sets_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 100.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulator()
    order = []

    def proc(sim, name, delay):
        yield delay
        order.append(name)

    sim.process(proc(sim, "late", 2))
    sim.process(proc(sim, "a", 1))
    sim.process(proc(sim, "b", 1))
    sim.run()
    assert order == ["a", "b", "late"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim, ev):
        value = yield ev
        return value

    def firer(sim, ev):
        yield 3
        ev.succeed(42)

    proc = sim.process(waiter(sim, ev))
    sim.process(firer(sim, ev))
    sim.run()
    assert proc.value == 42
    assert sim.now == 3.0


def test_event_double_succeed_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim, ev):
        try:
            yield ev
        except ValueError as exc:
            return str(exc)
        return "no exception"

    proc = sim.process(waiter(sim, ev))
    sim.call_later(1, lambda: ev.fail(ValueError("boom")))
    sim.run()
    assert proc.value == "boom"


def test_callback_on_already_processed_event_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]


def test_process_return_value():
    sim = Simulator()

    def proc(sim):
        yield 1
        return "done"

    assert sim.run_process(proc(sim)) == "done"


def test_process_waits_for_subprocess():
    sim = Simulator()

    def child(sim):
        yield 7
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result, sim.now

    assert sim.run_process(parent(sim)) == ("child-result", 7.0)


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_number_yield_is_a_timeout():
    """``yield <float|int>`` suspends for that many nanoseconds."""
    sim = Simulator()

    def proc(sim):
        yield 5
        assert sim.now == 5.0
        got = yield 2.5
        assert got is None
        return sim.now

    assert sim.run_process(proc(sim)) == 7.5


def test_bare_negative_yield_raises_in_process():
    sim = Simulator()

    def bad(sim):
        yield -1.0

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_yield_orders_like_timeout_yield():
    """A bare delay and an event scheduled for the same time fire in
    scheduling order."""
    sim = Simulator()
    log = []

    def bare(sim):
        yield 5.0
        log.append("bare")

    def evented(sim):
        ev = sim.event()
        sim.call_later(5.0, ev.succeed)
        yield ev
        log.append("evented")

    sim.process(bare(sim))
    sim.process(evented(sim))
    sim.run()
    assert log == ["bare", "evented"]


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield 100
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "slept"

    proc = sim.process(sleeper(sim))

    def interrupter(sim, target):
        yield 5
        target.interrupt("wake")

    sim.process(interrupter(sim, proc))
    sim.run()
    assert proc.value == ("interrupted", "wake", 5.0)


def test_interrupted_process_can_continue():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield 100
        except Interrupt:
            pass
        yield 10
        return sim.now

    proc = sim.process(sleeper(sim))

    def interrupter(sim, target):
        yield 5
        target.interrupt()

    sim.process(interrupter(sim, proc))
    sim.run()
    assert proc.value == 15.0


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick(sim):
        yield 1

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupt_detaches_original_target():
    """After an interrupt, the event the process waited on must not
    resume it when it fires."""
    sim = Simulator()
    resumed = []
    target = sim.event()
    sim.call_later(10, target.succeed)

    def sleeper(sim):
        try:
            yield target
        except Interrupt:
            resumed.append(("interrupt", sim.now))
        yield 100
        resumed.append(("end", sim.now))

    proc = sim.process(sleeper(sim))
    sim.call_later(5, lambda: proc.interrupt())
    sim.run()
    assert resumed == [("interrupt", 5.0), ("end", 105.0)]


def test_schedule_runs_plain_callable():
    sim = Simulator()
    hits = []
    sim.call_later(3, lambda: hits.append(sim.now))
    sim.call_later(1, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [1.0, 3.0]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_later(4, lambda: None)
    assert sim.peek() == 0.0 or sim.peek() <= 4.0  # init event first
    sim.run()
    assert sim.peek() == float("inf")


def test_run_process_propagates_process_failure():
    sim = Simulator()

    def failing(sim):
        yield 1
        raise RuntimeError("inner failure")

    with pytest.raises(RuntimeError, match="inner failure"):
        sim.run_process(failing(sim))


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(sim, name, period, n):
        for _ in range(n):
            yield period
            log.append((sim.now, name))

    sim.process(worker(sim, "x", 2, 5))
    sim.process(worker(sim, "y", 3, 3))
    sim.run()
    assert log == sorted(log, key=lambda p: p[0])
    assert len(log) == 8


# ---------------------------------------------------------------------------
# Simulator.drive: a generator run inline for a callback state machine
# ---------------------------------------------------------------------------

def test_drive_without_suspension_calls_done_inline():
    sim = Simulator()
    log = []

    def body(sim):
        log.append("body")
        return
        yield  # pragma: no cover - makes this function a generator

    sim.drive(body(sim), log.append, "done")
    assert log == ["body", "done"]
    assert sim.peek() == float("inf")  # no calendar entry


def _mixed(sim, ev, log):
    yield 5
    log.append(("bare", sim.now))
    value = yield ev
    log.append(("event", sim.now, value))
    yield 2
    log.append(("timeout", sim.now))


def _schedule_log(start):
    """Run ``_mixed`` through ``start`` next to a same-time peer and
    return the interleaving and each calendar entry's (time, seq)."""
    sim = Simulator()
    log = []
    ev = sim.event()
    sim.call_later(10, ev.succeed, "v")
    start(sim, _mixed(sim, ev, log), log)
    for t in (5, 10, 12):
        sim.call_at(t, log.append, ("peer", t))
    keys = []
    while sim.peek() != float("inf"):
        keys.append(tuple(sim._queue[0][:2]))
        sim.step()
    return log, keys


def test_drive_suspends_and_resumes_like_a_process():
    def as_process(sim, gen, log):
        def wrapper():
            yield from gen
            log.append(("done", sim.now))
        sim.call_later(0.0, sim.process, wrapper())

    def as_drive(sim, gen, log):
        sim.call_later(0.0, sim.drive, gen,
                       lambda: log.append(("done", sim.now)))

    proc_log, proc_keys = _schedule_log(as_process)
    drive_log, drive_keys = _schedule_log(as_drive)
    # The peers were scheduled first, so they win each tie.
    assert drive_log == [("peer", 5), ("bare", 5.0), ("peer", 10),
                         ("event", 10.0, "v"), ("peer", 12),
                         ("timeout", 12.0), ("done", 12.0)]
    assert proc_log == drive_log
    # The process pays one start entry and one exit entry more.
    assert len(proc_keys) == len(drive_keys) + 2


def test_drive_negative_yield_raises_like_a_process():
    sim = Simulator()

    def bad(sim):
        yield -1.0

    with pytest.raises(SimulationError, match="negative"):
        sim.drive(bad(sim), lambda: None)

    def late(sim):
        yield 1.0
        yield -1.0

    sim.drive(late(sim), lambda: None)
    with pytest.raises(SimulationError, match="negative"):
        sim.run()


def test_drive_delivers_the_error_into_the_generator():
    sim = Simulator()
    caught = []

    def recovers(sim):
        try:
            yield -1.0
        except SimulationError as exc:
            caught.append(str(exc))
        yield 3.0

    done = []
    sim.drive(recovers(sim), done.append, "done")
    sim.run()
    assert caught and "negative" in caught[0]
    assert done == ["done"] and sim.now == 3.0


def test_drive_rejects_non_events_and_foreign_events():
    sim, other = Simulator(), Simulator()

    def yields(target):
        yield target

    with pytest.raises(SimulationError, match="expected an Event"):
        sim.drive(yields("soon"), lambda: None)
    with pytest.raises(SimulationError, match="another simulator"):
        sim.drive(yields(other.event()), lambda: None)


def test_drive_reraises_an_escaping_exception():
    sim = Simulator()

    def failing(sim):
        yield 1.0
        raise RuntimeError("handler bug")

    sim.drive(failing(sim), lambda: None)
    with pytest.raises(RuntimeError, match="handler bug"):
        sim.run()
