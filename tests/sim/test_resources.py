"""Unit tests for TokenBucket."""

import pytest

from repro.sim import SimulationError, Simulator, TokenBucket


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
        yield 1000  # idle long; tokens cap at burst
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
