"""Tests for the structured tracer."""

from repro.sim import NullTracer, Simulator, Tracer


def test_tracer_records_with_timestamps():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("nic.rx", size=64)
    sim.call_later(10, lambda: tracer.emit("nic.rx", size=128))
    sim.run()
    events = tracer.category("nic.rx")
    assert [e.time for e in events] == [0.0, 10.0]
    assert events[1].fields["size"] == 128


def test_tracer_category_filter():
    sim = Simulator()
    tracer = Tracer(sim, categories={"keep"})
    tracer.emit("keep", a=1)
    tracer.emit("drop", b=2)
    assert len(tracer.events) == 1
    assert tracer.enabled("keep") and not tracer.enabled("drop")


def test_tracer_limit_and_dropped_count():
    sim = Simulator()
    tracer = Tracer(sim, limit=2)
    for i in range(5):
        tracer.emit("x", i=i)
    assert len(tracer.events) == 2
    assert tracer.dropped == 3


def test_tracer_drop_accounting_and_dump_report():
    """Regression: every event past ``limit`` counts exactly once (events
    from disabled categories never count) and ``dump()`` reports the drop
    count so truncated traces are never mistaken for complete ones."""
    sim = Simulator()
    tracer = Tracer(sim, categories={"keep"}, limit=2)
    for i in range(6):
        tracer.emit("keep", i=i)
        tracer.emit("ignored", i=i)  # filtered out: must not count as drop
    assert len(tracer.events) == 2
    assert tracer.dropped == 4
    lines = []
    tracer.dump(write=lines.append)
    assert lines[-1] == "... 4 events dropped (limit 2)"
    assert len(lines) == 3  # 2 events + 1 drop report


def test_tracer_dump_silent_when_nothing_dropped():
    sim = Simulator()
    tracer = Tracer(sim, limit=10)
    tracer.emit("a", x=1)
    lines = []
    tracer.dump(write=lines.append)
    assert len(lines) == 1 and "dropped" not in lines[0]


def test_tracer_queries():
    sim = Simulator()
    tracer = Tracer(sim)
    for t, cat in [(1, "a"), (2, "b"), (3, "a")]:
        sim.call_later(t, lambda c=cat: tracer.emit(c))
    sim.run()
    assert tracer.counts() == {"a": 2, "b": 1}
    assert tracer.first("b").time == 2.0
    assert tracer.first("zzz") is None
    assert len(tracer.between(1.5, 3.5)) == 2


def test_tracer_dump_filtered():
    sim = Simulator()
    tracer = Tracer(sim)
    tracer.emit("a", x=1)
    tracer.emit("b", y=2)
    lines = []
    tracer.dump(write=lines.append, categories={"b"})
    assert len(lines) == 1
    assert "y=2" in lines[0]


def test_null_tracer_noop():
    tracer = NullTracer()
    tracer.emit("anything", k=1)
    assert not tracer.enabled("anything")
