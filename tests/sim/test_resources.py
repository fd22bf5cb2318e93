"""Unit tests for Store, Container, Resource, and TokenBucket."""

import pytest

from repro.sim import Container, Resource, SimulationError, Simulator, Store, TokenBucket


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)

    def producer(sim, store):
        for i in range(3):
            yield store.put(i)

    def consumer(sim, store):
        out = []
        for _ in range(3):
            item = yield store.get()
            out.append(item)
        return out

    sim.process(producer(sim, store))
    proc = sim.process(consumer(sim, store))
    sim.run()
    assert proc.value == [0, 1, 2]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    timeline = []

    def producer(sim, store):
        yield store.put("a")
        timeline.append(("put-a", sim.now))
        yield store.put("b")
        timeline.append(("put-b", sim.now))

    def consumer(sim, store):
        yield sim.timeout(10)
        item = yield store.get()
        timeline.append(("got", item, sim.now))

    sim.process(producer(sim, store))
    sim.process(consumer(sim, store))
    sim.run()
    assert ("put-a", 0.0) in timeline
    assert ("put-b", 10.0) in timeline


def test_store_get_blocks_when_empty():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim, store):
        item = yield store.get()
        return item, sim.now

    proc = sim.process(consumer(sim, store))
    sim.call_later(7, lambda: store.try_put("late"))
    sim.run()
    assert proc.value == ("late", 7.0)


def test_store_try_put_respects_capacity():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert store.level == 2


def test_store_try_get_empty_returns_none():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None


def test_store_get_batch_drains_up_to_n():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.try_put(i)
    assert store.get_batch(3) == [0, 1, 2]
    assert store.get_batch(10) == [3, 4]
    assert store.get_batch(4) == []


def test_store_get_batch_unblocks_putters():
    sim = Simulator()
    store = Store(sim, capacity=2)
    store.try_put("a")
    store.try_put("b")
    done = []

    def producer(sim, store):
        yield store.put("c")
        done.append(sim.now)

    sim.process(producer(sim, store))
    sim.run()
    assert not done  # still blocked
    store.get_batch(2)
    sim.run()
    assert done == [0.0]
    assert list(store.items) == ["c"]


def test_store_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_direct_handoff_to_waiting_getter():
    sim = Simulator()
    store = Store(sim, capacity=1)

    def getter(sim, store):
        item = yield store.get()
        return item

    proc = sim.process(getter(sim, store))
    sim.run()
    assert store.try_put("direct")
    sim.run()
    assert proc.value == "direct"
    assert store.level == 0


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

def test_container_get_put_levels():
    sim = Simulator()
    c = Container(sim, capacity=10, init=5)
    assert c.try_get(3)
    assert c.level == 2
    assert c.try_put(8)
    assert c.level == 10
    assert not c.try_put(1)


def test_container_get_blocks_until_put():
    sim = Simulator()
    c = Container(sim, capacity=10, init=0)

    def getter(sim, c):
        yield c.get(4)
        return sim.now

    proc = sim.process(getter(sim, c))
    sim.call_later(5, lambda: c.try_put(2))
    sim.call_later(9, lambda: c.try_put(2))
    sim.run()
    assert proc.value == 9.0


def test_container_fifo_getters_no_starvation():
    sim = Simulator()
    c = Container(sim, capacity=100, init=0)
    order = []

    def getter(sim, c, name, amount):
        yield c.get(amount)
        order.append(name)

    sim.process(getter(sim, c, "big", 10))
    sim.process(getter(sim, c, "small", 1))
    sim.run()
    c.try_put(5)   # not enough for 'big'; 'small' must still wait (FIFO)
    sim.run()
    assert order == []
    c.try_put(6)
    sim.run()
    assert order == ["big", "small"]


def test_container_try_get_fails_when_waiters_exist():
    sim = Simulator()
    c = Container(sim, capacity=10, init=3)

    def getter(sim, c):
        yield c.get(5)

    sim.process(getter(sim, c))
    sim.run()
    assert not c.try_get(1)  # must not jump the queue


def test_container_init_bounds_checked():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Container(sim, capacity=5, init=6)
    with pytest.raises(SimulationError):
        Container(sim, capacity=5, init=-1)


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    c = Container(sim, capacity=5, init=5)

    def putter(sim, c):
        yield c.put(3)
        return sim.now

    proc = sim.process(putter(sim, c))
    sim.call_later(4, lambda: c.try_get(3))
    sim.run()
    assert proc.value == 4.0
    assert c.level == 5


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serialises_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def user(sim, res, name, hold):
        yield res.request()
        start = sim.now
        yield sim.timeout(hold)
        res.release()
        spans.append((name, start, sim.now))

    sim.process(user(sim, res, "a", 5))
    sim.process(user(sim, res, "b", 5))
    sim.run()
    assert spans == [("a", 0.0, 5.0), ("b", 5.0, 10.0)]


def test_resource_parallel_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def user(sim, res):
        yield res.request()
        yield sim.timeout(10)
        res.release()
        ends.append(sim.now)

    for _ in range(4):
        sim.process(user(sim, res))
    sim.run()
    assert ends == [10.0, 10.0, 20.0, 20.0]


def test_resource_release_without_request_raises():
    sim = Simulator()
    res = Resource(sim)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_use_helper():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield from res.use(8)
        return sim.now

    p1 = sim.process(user(sim, res))
    p2 = sim.process(user(sim, res))
    sim.run()
    assert (p1.value, p2.value) == (8.0, 16.0)


def test_resource_queue_length_visible():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user(sim, res):
        yield res.request()
        yield sim.timeout(100)
        res.release()

    for _ in range(3):
        sim.process(user(sim, res))
    sim.run(until=1)
    assert res.in_use == 1
    assert res.queue_length == 2


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

def test_token_bucket_immediate_when_tokens_available():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=10)

    def taker(sim, tb):
        yield tb.take(5)
        return sim.now

    assert sim.run_process(taker(sim, tb)) == 0.0


def test_token_bucket_waits_for_refill():
    sim = Simulator()
    tb = TokenBucket(sim, rate=2.0, burst=10, init=0)

    def taker(sim, tb):
        yield tb.take(10)
        return sim.now

    assert sim.run_process(taker(sim, tb)) == 5.0


def test_token_bucket_rate_determines_sustained_throughput():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=4, init=0)

    def taker(sim, tb, n):
        for _ in range(n):
            yield tb.take(4)
        return sim.now

    # 5 takes of 4 tokens at 1 token/ns from empty: 4, 8, ..., 20 ns.
    assert sim.run_process(taker(sim, tb, 5)) == 20.0


def test_token_bucket_burst_caps_accrual():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=5)

    def proc(sim, tb):
        yield sim.timeout(1000)  # idle long; tokens cap at burst
        assert tb.tokens == 5
        yield tb.take(5)
        t0 = sim.now
        yield tb.take(5)
        return sim.now - t0

    assert sim.run_process(proc(sim, tb)) == 5.0


def test_token_bucket_set_rate_mid_wait():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=100, init=0)

    def taker(sim, tb):
        yield tb.take(100)
        return sim.now

    proc = sim.process(taker(sim, tb))
    # After 10 ns, 10 tokens accrued; speed up x10 => remaining 90 tokens
    # in 9 ns, finishing at t=19.
    sim.call_later(10, lambda: tb.set_rate(10.0))
    sim.run()
    assert proc.value == pytest.approx(19.0)


def test_token_bucket_zero_rate_pauses():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=10, init=0)

    def taker(sim, tb):
        yield tb.take(5)
        return sim.now

    proc = sim.process(taker(sim, tb))
    sim.call_later(1, lambda: tb.set_rate(0.0))
    sim.call_later(50, lambda: tb.set_rate(1.0))
    sim.run()
    # 1 token by t=1, stalled until t=50, 4 more tokens by t=54.
    assert proc.value == pytest.approx(54.0)


def test_token_bucket_take_exceeding_burst_raises():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=10)
    with pytest.raises(SimulationError):
        tb.take(11)


def test_token_bucket_fifo_ordering():
    sim = Simulator()
    tb = TokenBucket(sim, rate=1.0, burst=10, init=0)
    order = []

    def taker(sim, tb, name, amount):
        yield tb.take(amount)
        order.append((name, sim.now))

    sim.process(taker(sim, tb, "first-big", 8))
    sim.process(taker(sim, tb, "second-small", 1))
    sim.run()
    assert order == [("first-big", 8.0), ("second-small", 9.0)]


def test_token_bucket_try_take():
    sim = Simulator()
    tb = TokenBucket(sim, rate=0.0, burst=10, init=3)
    assert tb.try_take(3)
    assert not tb.try_take(1)
