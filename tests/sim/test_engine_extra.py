"""Additional DES-kernel edge cases: event misuse, process lifecycle,
and scheduling determinism."""

import pytest

from repro.sim import SimulationError, Simulator


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_process_result_available_after_completion():
    sim = Simulator()

    def worker(sim):
        yield 3
        return 99

    proc = sim.process(worker(sim))
    assert proc.is_alive
    sim.run()
    assert not proc.is_alive
    assert proc.ok
    assert proc.value == 99


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_waiting_on_foreign_simulator_event_raises():
    sim1, sim2 = Simulator(), Simulator()

    def worker(sim):
        yield sim2.event()

    sim1.process(worker(sim1))
    with pytest.raises(SimulationError):
        sim1.run()


def test_nested_process_failure_propagates_to_parent():
    sim = Simulator()

    def child(sim):
        yield 1
        raise ValueError("child blew up")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as exc:
            return f"caught: {exc}"

    proc = sim.process(parent(sim))
    sim.run()
    assert proc.value == "caught: child blew up"


def test_same_time_events_fifo_across_mixed_sources():
    sim = Simulator()
    order = []
    sim.call_later(5, lambda: order.append("first-scheduled"))

    def driven(sim):
        yield 5
        order.append("second-bare-yield")

    sim.drive(driven(sim), lambda: None)
    sim.call_at(5, lambda: order.append("third-scheduled"))
    sim.run()
    assert order == ["first-scheduled", "second-bare-yield",
                     "third-scheduled"]


def test_run_to_exact_until_with_event_at_until():
    """Events exactly at `until` are NOT processed (strict bound)."""
    sim = Simulator()
    hits = []
    sim.call_later(10, lambda: hits.append(1))
    sim.run(until=10)
    # The event at t=10 fires only when the clock is allowed past it.
    assert sim.now == 10.0
    sim.run()
    assert hits == [1]


def test_interrupt_cause_none_by_default():
    sim = Simulator()
    from repro.sim import Interrupt

    def sleeper(sim):
        try:
            yield 100
        except Interrupt as intr:
            return intr.cause

    proc = sim.process(sleeper(sim))
    sim.call_later(1, proc.interrupt)
    sim.run()
    assert proc.value is None
