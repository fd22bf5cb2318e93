"""Event domains and the bounded-horizon shard protocol surface.

These are the kernel-level contracts ``repro.shard`` is built on: the
composite ``(domain << DOMAIN_SHIFT) | count`` sequence space, the
exclusive/inclusive window semantics of ``run_until``, and the
``reserve_key`` / ``post_keyed`` pair that lets one kernel consume a
calendar key another kernel executes.
"""

from math import inf

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.engine import DOMAIN_SHIFT


def _noop():
    pass


def test_default_domain_is_zero():
    sim = Simulator()
    assert sim.domain == 0
    entry = sim.call_later(1.0, _noop)
    assert entry[1] >> DOMAIN_SHIFT == 0


def test_set_domain_partitions_the_sequence_space():
    sim = Simulator()
    sim.set_domain(3)
    entry = sim.call_later(1.0, _noop)
    assert entry[1] >> DOMAIN_SHIFT == 3
    sim.set_domain(0)
    entry = sim.call_later(1.0, _noop)
    assert entry[1] >> DOMAIN_SHIFT == 0


def test_domain_counters_are_independent():
    sim = Simulator()
    sim.set_domain(1)
    first = sim.call_later(1.0, _noop)[1]
    sim.set_domain(2)
    other = sim.call_later(1.0, _noop)[1]
    sim.set_domain(1)
    second = sim.call_later(1.0, _noop)[1]
    assert second == first + 1  # domain 2's draw did not advance domain 1
    assert other >> DOMAIN_SHIFT == 2


def test_execution_restores_the_scheduling_domain():
    sim = Simulator()
    seen = []
    sim.set_domain(2)
    sim.call_later(1.0, lambda: seen.append(sim.domain))
    sim.set_domain(0)
    sim.run(until=2.0)
    assert seen == [2]


def test_same_time_ties_order_by_domain():
    sim = Simulator()
    order = []
    sim.set_domain(2)
    sim.call_later(5.0, order.append, "d2")
    sim.set_domain(1)
    sim.call_later(5.0, order.append, "d1")
    sim.set_domain(0)
    sim.run()
    assert order == ["d1", "d2"]


def test_run_until_exclusive_then_inclusive():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, fired.append, 1)
    assert sim.run_until(10.0) == 0  # exclusive: the t=10 event waits
    assert fired == [] and sim.now == 10.0
    assert sim.run_until(10.0, inclusive=True) == 1
    assert fired == [1]
    assert sim.events_executed == 1


def test_run_until_into_the_past_raises():
    sim = Simulator()
    sim.run_until(10.0, inclusive=True)
    with pytest.raises(SimulationError):
        sim.run_until(5.0)


def test_reserve_key_matches_the_call_later_key():
    mirror, sim = Simulator(), Simulator()
    entry = mirror.call_later(5.0, _noop)
    assert sim.reserve_key(5.0) == (entry[0], entry[1])


def test_reserve_key_consumes_one_sequence_number():
    sim = Simulator()
    _when, seq = sim.reserve_key(3.0)
    assert sim.call_later(3.0, _noop)[1] == seq + 1


def test_post_keyed_consumes_no_local_sequence_number():
    emitter, receiver = Simulator(), Simulator()
    when, seq = emitter.reserve_key(4.0)
    got = []
    receiver.post_keyed(when, seq, got.append, "x")
    # The receiver's own counter is untouched by the foreign entry.
    assert receiver.call_later(0.0, _noop)[1] == 1
    receiver.run_until(when, inclusive=True)
    assert got == ["x"]


def test_post_keyed_preserves_the_foreign_domain():
    emitter, receiver = Simulator(), Simulator()
    emitter.set_domain(7)
    when, seq = emitter.reserve_key(2.0)
    seen = []
    receiver.post_keyed(when, seq, lambda: seen.append(receiver.domain))
    receiver.run_until(when, inclusive=True)
    assert seen == [7]


def test_post_keyed_in_the_past_raises():
    sim = Simulator()
    sim.run(until=10.0)
    with pytest.raises(SimulationError):
        sim.post_keyed(5.0, 1, _noop)


# ---------------------------------------------------------------------------
# The run loop: every drain call, with and without domains and sanitizer
# ---------------------------------------------------------------------------

#: (call, horizon call ``f(sim, T)``, entries executed, final clock,
#: next pending time, return value) for a calendar holding entries at
#: t = 5, 10, 10 and 15 and a horizon T = 10.
_LOOP_CALLS = {
    "run()": (lambda sim, t: sim.run(), 4, 15.0, inf, None),
    "run(until=T)": (lambda sim, t: sim.run(until=t), 3, 10.0, 15.0, None),
    "run_until(T)": (lambda sim, t: sim.run_until(t), 1, 10.0, 10.0, 1),
    "run_until(T, inclusive=True)": (
        lambda sim, t: sim.run_until(t, inclusive=True), 3, 10.0, 15.0, 3),
}

#: (name, time, domain the execution must see) in execution order. One
#: domain: the two t = 10 entries tie in scheduling order. Three
#: domains: they tie by domain, and each runs in its own domain.
_ORDER = {
    False: [("a1", 5.0, 0), ("b2", 10.0, 0), ("b0", 10.0, 0), ("c1", 15.0, 0)],
    True: [("a1", 5.0, 1), ("b0", 10.0, 0), ("b2", 10.0, 2), ("c1", 15.0, 1)],
}


@pytest.mark.parametrize("call", list(_LOOP_CALLS))
@pytest.mark.parametrize("multi", [False, True], ids=["one-domain", "domains"])
@pytest.mark.parametrize("debug", [False, True], ids=["release", "debug"])
def test_run_loop_matrix(debug, multi, call):
    drain, count, clock, pending, returned = _LOOP_CALLS[call]
    sim = Simulator(debug=debug)
    ran = []
    # Scheduled out of time order; the name's digit is its domain.
    for when, name in ((10.0, "b2"), (5.0, "a1"), (10.0, "b0"), (15.0, "c1")):
        if multi:
            sim.set_domain(int(name[1]))
        sim.call_at(when, lambda name=name: ran.append(
            (name, sim.now, sim.domain)))
    sim.set_domain(0)

    assert drain(sim, 10.0) == returned
    assert ran == _ORDER[multi][:count]
    assert sim.now == clock
    assert sim.peek() == pending  # exclusive run_until leaves t = T queued
    assert sim.events_executed == count
    if call != "run()":
        with pytest.raises(SimulationError, match="in the past"):
            drain(sim, 5.0)
    sim.close()
    if debug:
        with pytest.raises(SimulationError, match="after Simulator.close"):
            drain(sim, 20.0)
    else:  # release close() is lenient: the rest of the calendar runs
        drain(sim, 20.0)
        assert [name for name, _, _ in ran] == [
            name for name, _, _ in _ORDER[multi]]
        assert sim.events_executed == 4
