"""Unit tests for the DES kernel: events, processes, timeouts, conditions."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(5)
        assert sim.now == 5.0
        yield sim.timeout(2.5)
        assert sim.now == 7.5

    sim.run_process(proc(sim))
    assert sim.now == 7.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1)  # repro: noqa=D104 -- the rejection under test


def test_timeout_carries_value():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1, value="hello")
        return got

    assert sim.run_process(proc(sim)) == "hello"


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10)
        fired.append(sim.now)
        yield sim.timeout(10)
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
        yield sim.timeout(delay)
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
        yield sim.timeout(3)
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
        yield sim.timeout(1)
        return "done"

    assert sim.run_process(proc(sim)) == "done"


def test_process_waits_for_subprocess():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(7)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result, sim.now

    assert sim.run_process(parent(sim)) == ("child-result", 7.0)


def test_process_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield "not an event"  # repro: noqa=D104 -- the rejection under test

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_number_yield_is_a_timeout():
    """Fast path: ``yield <float|int>`` suspends like ``yield timeout()``."""
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
        yield -1.0  # repro: noqa=D104 -- the rejection under test

    sim.process(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_bare_yield_orders_like_timeout_yield():
    """Equal-time bare and event timeouts fire in scheduling order."""
    sim = Simulator()
    log = []

    def bare(sim):
        yield 5.0
        log.append("bare")

    def evented(sim):
        yield sim.timeout(5.0)
        log.append("evented")

    sim.process(bare(sim))
    sim.process(evented(sim))
    sim.run()
    assert log == ["bare", "evented"]


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, sim.now)
        return "slept"

    proc = sim.process(sleeper(sim))

    def interrupter(sim, target):
        yield sim.timeout(5)
        target.interrupt("wake")

    sim.process(interrupter(sim, proc))
    sim.run()
    assert proc.value == ("interrupted", "wake", 5.0)


def test_interrupted_process_can_continue():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt:
            pass
        yield sim.timeout(10)
        return sim.now

    proc = sim.process(sleeper(sim))

    def interrupter(sim, target):
        yield sim.timeout(5)
        target.interrupt()

    sim.process(interrupter(sim, proc))
    sim.run()
    assert proc.value == 15.0


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupt_detaches_original_target():
    """After an interrupt, the original timeout must not resume the process."""
    sim = Simulator()
    resumed = []

    def sleeper(sim):
        try:
            yield sim.timeout(10)
        except Interrupt:
            resumed.append(("interrupt", sim.now))
        yield sim.timeout(100)
        resumed.append(("end", sim.now))

    proc = sim.process(sleeper(sim))
    sim.call_later(5, lambda: proc.interrupt())
    sim.run()
    assert resumed == [("interrupt", 5.0), ("end", 105.0)]


def test_any_of_fires_on_first():
    sim = Simulator()
    t1 = None

    def proc(sim):
        a = sim.timeout(5, value="a")
        b = sim.timeout(10, value="b")
        results = yield AnyOf(sim, [a, b])
        return results, sim.now

    results, now = sim.run_process(proc(sim))
    assert now == 5.0
    assert list(results.values()) == ["a"]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc(sim):
        a = sim.timeout(5, value="a")
        b = sim.timeout(10, value="b")
        results = yield AllOf(sim, [a, b])
        return sorted(results.values()), sim.now

    values, now = sim.run_process(proc(sim))
    assert now == 10.0
    assert values == ["a", "b"]


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc(sim):
        yield AllOf(sim, [])
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


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
        yield sim.timeout(1)
        raise RuntimeError("inner failure")

    with pytest.raises(RuntimeError, match="inner failure"):
        sim.run_process(failing(sim))


def test_many_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def worker(sim, name, period, n):
        for _ in range(n):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.process(worker(sim, "x", 2, 5))
    sim.process(worker(sim, "y", 3, 3))
    sim.run()
    assert log == sorted(log, key=lambda p: p[0])
    assert len(log) == 8
