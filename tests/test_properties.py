"""Property-based tests (hypothesis) for the core data structures.

Invariants covered:

- **credit conservation** — no sequence of Algorithm 1 operations creates
  or destroys credits;
- **SW-ring ordering** — any interleaving of fast deliveries, degradation
  barriers, slow arrivals, and fetch completions pops records in seq
  order, and the ring's counted residency answers equal their scans;
- **LLC capacity** — the DDIO partition never exceeds its byte budget and
  both cache models agree that a buffer inserted and not evicted hits;
- **token bucket** — served amounts never exceed rate x time + burst;
- **histogram percentiles** — monotone in p and within the sample range.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import CreditController, SwRing
from repro.hw import CacheConfig, FullyAssociativeLLC, SetAssociativeLLC
from repro.sim import Simulator, TokenBucket
from repro.sim.stats import Histogram


# ---------------------------------------------------------------------------
# Credit conservation
# ---------------------------------------------------------------------------

credit_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 7)),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(st.just("consume"), st.integers(0, 7)),
        st.tuples(st.just("overdraft"), st.integers(0, 7)),
        st.tuples(st.just("release"), st.integers(0, 7), st.integers(1, 8)),
        st.tuples(st.just("donate"), st.integers(0, 7), st.booleans()),
        st.tuples(st.just("reclaim"), st.integers(0, 7)),
        st.tuples(st.just("grant"), st.integers(0, 7)),
        st.tuples(st.just("reserve_grant"), st.integers(0, 7),
                  st.floats(0, 50)),
    ),
    min_size=1, max_size=120,
)


@given(total=st.integers(10, 5000), ops=credit_ops)
@settings(max_examples=150, deadline=None)
def test_credit_conservation_under_arbitrary_ops(total, ops):
    ctl = CreditController(total)
    for op in ops:
        kind, fid = op[0], op[1]
        if kind == "add":
            ctl.add_flows([fid])
        elif kind == "remove":
            ctl.remove_flow(fid)
        elif kind == "consume":
            ctl.consume(fid)
        elif kind == "overdraft":
            ctl.consume_overdraft(fid)
        elif kind == "release":
            ctl.release(fid, op[2])
        elif kind == "donate":
            ctl.set_donating(fid, op[2])
        elif kind == "reclaim":
            ctl.reclaim(fid)
        elif kind == "grant":
            ctl.grant_share(fid)
        elif kind == "reserve_grant":
            ctl.grant_from_reserve(fid, op[2])
        assert math.isclose(ctl.audit(), total, rel_tol=1e-9, abs_tol=1e-6)


@given(total=st.integers(100, 3000), n=st.integers(1, 16),
       m=st.integers(1, 16))
@settings(max_examples=100, deadline=None)
def test_algorithm1_assignment_totals(total, n, m):
    """After assignment, newcomers' holdings + owed credits equal the fair
    share, and nothing is lost."""
    ctl = CreditController(total)
    ctl.add_flows(range(n))
    ctl.add_flows(range(100, 100 + m))
    share = total / (n + m)
    for j in range(100, 100 + m):
        acct = ctl.account(j)
        owed_to_j = sum(a.owed.get(j, 0.0) for a in ctl.accounts.values())
        assert acct.available + owed_to_j <= share + 1e-6
    assert math.isclose(ctl.audit(), total, rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# SW ring ordering
# ---------------------------------------------------------------------------

class _Pkt:
    def __init__(self, seq):
        self.seq = seq
        self.retransmitted = False


class _Rec:
    def __init__(self, seq):
        self.packet = _Pkt(seq)


ring_script = st.lists(
    st.sampled_from(["fast", "degrade", "slow", "upgrade", "fetch",
                     "fetch_last", "pop"]),
    min_size=1, max_size=200)


def _assert_counts_match_scan(ring):
    """``has_nonresident``, ``ready_count`` and ``head_ready`` equal their
    brute-force definitions over the ring's two deques."""
    entries = list(ring._entries)
    assert ring.has_nonresident == (
        any(not e.resident for e in entries) or bool(ring._pending_slow))
    ready = 0
    for entry in entries:
        if not entry.resident:
            break
        ready += 1
    assert ring.ready_count == ready
    assert ring.head_ready == (ready > 0)


@given(script=ring_script)
@settings(max_examples=200, deadline=None)
def test_swring_pops_in_order_under_any_interleaving(script):
    """Simulates the runtime's contract: while 'fast', packets are issued
    to the fast path (delivered after all earlier fast issues); after a
    degrade, packets go to the slow path until an upgrade (which only
    happens once the slow side is fully fetched & popped - phase
    exclusivity). Pops must always come out in global seq order, and the
    counted residency answers must equal their scans after every step."""
    ring = SwRing(1)
    seq = 0
    mode = "fast"
    inflight_fast = []  # fast-path packets issued but not yet delivered
    popped = []

    def deliver_one_fast():
        if inflight_fast:
            ring.push_fast(_Rec(inflight_fast.pop(0)))

    for op in script:
        if op == "fast" and mode == "fast":
            ring.note_fast_issued()
            inflight_fast.append(seq)
            seq += 1
        elif op == "degrade" and mode == "fast":
            ring.set_barrier()
            mode = "slow"
        elif op == "slow" and mode == "slow":
            ring.push_slow(_Rec(seq))
            seq += 1
        elif op == "upgrade" and mode == "slow":
            # Phase exclusivity: only upgrade once everything slow is
            # resident and the fast pipeline flushed.
            while inflight_fast:
                deliver_one_fast()
            for entry in ring.nonresident_head(10_000):
                ring.mark_resident(entry)
            if not ring.has_nonresident:
                ring.clear_barrier()
                mode = "fast"
        elif op == "fetch":
            for entry in ring.nonresident_head(4):
                ring.mark_resident(entry)
        elif op == "fetch_last":
            # An out-of-order DMA completion behind the head.
            pending = ring.nonresident_head(10_000)
            if pending:
                ring.mark_resident(pending[-1])
        elif op == "pop":
            deliver_one_fast()
            popped.extend(r.packet.seq for r in ring.pop_ready(8))
        _assert_counts_match_scan(ring)

    while inflight_fast:
        deliver_one_fast()
    for entry in ring.nonresident_head(10_000):
        ring.mark_resident(entry)
    # A residual barrier from a still-degraded flow is released here to
    # flush pending entries for the final check.
    ring.clear_barrier()
    for entry in ring.nonresident_head(10_000):
        ring.mark_resident(entry)
    popped.extend(r.packet.seq for r in ring.pop_ready(10_000))
    _assert_counts_match_scan(ring)
    assert not ring.has_nonresident
    assert popped == sorted(popped)
    assert ring.out_of_order == 0


# ---------------------------------------------------------------------------
# LLC capacity + model agreement
# ---------------------------------------------------------------------------

@given(inserts=st.lists(st.integers(64, 4096), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_fa_llc_never_exceeds_capacity(inserts):
    llc = FullyAssociativeLLC(CacheConfig(size=64 * 1024, ways=8,
                                          ddio_ways=4))
    for i, nbytes in enumerate(inserts):
        llc.io_insert(i, min(nbytes, llc.capacity))
        assert llc.occupancy <= llc.capacity


@given(keys=st.lists(st.integers(0, 30), min_size=1, max_size=60))
@settings(max_examples=100, deadline=None)
def test_llc_models_agree_resident_buffers_hit(keys):
    """Any buffer both models still consider resident must hit in both."""
    cfg = CacheConfig(size=64 * 1024, ways=8, ddio_ways=4)
    fa, sa = FullyAssociativeLLC(cfg), SetAssociativeLLC(cfg)
    for key in keys:
        fa.io_insert(key, 2048)
        sa.io_insert(key, 2048)
    for key in set(keys):
        if fa.is_resident(key) and sa.is_resident(key):
            assert fa.cpu_read(key, 2048) == 1.0
            assert sa.cpu_read(key, 2048) > 0.0


# ---------------------------------------------------------------------------
# Token bucket rate bound
# ---------------------------------------------------------------------------

@given(rate=st.floats(0.1, 50.0), burst=st.floats(10.0, 1000.0),
       takes=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_token_bucket_never_exceeds_rate_plus_burst(rate, burst, takes):
    sim = Simulator()
    tb = TokenBucket(sim, rate=rate, burst=burst)
    served = []

    def taker(sim):
        for amount in takes:
            amount = min(amount, burst)
            yield tb.take(amount)
            served.append((sim.now, amount))

    sim.process(taker(sim))
    sim.run()
    for now, _amt in served:
        upto = sum(a for t, a in served if t <= now)
        assert upto <= rate * now + burst + 1e-6


# ---------------------------------------------------------------------------
# Histogram percentiles
# ---------------------------------------------------------------------------

# Values stay <= 1e9: beyond the histogram's last bucket bound (~1e10) a
# sample clamps into the final bucket, whose bound legitimately undershoots
# the sample — the min/max bound below would not (and should not) hold.
@given(values=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=500),
       ps=st.lists(st.floats(0, 100), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_histogram_percentiles_monotone_and_bounded(values, ps):
    h = Histogram()
    for v in values:
        h.record(v)
    ps = sorted(ps)
    results = [h.percentile(p) for p in ps]
    assert results == sorted(results)
    # Every percentile lies within the recorded sample range: a bucket's
    # upper bound is >= any sample it holds, and percentile() caps at the
    # recorded max.
    for r in results:
        assert min(values) <= r <= max(values)


@given(values=st.lists(st.floats(1e-3, 1e9), min_size=1, max_size=200),
       split=st.integers(0, 200),
       ps=st.lists(st.floats(0, 100), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_histogram_merge_matches_single_recording(values, split, ps):
    split = min(split, len(values))
    one = Histogram()
    for v in values:
        one.record(v)
    a, b = Histogram(), Histogram()
    for v in values[:split]:
        a.record(v)
    for v in values[split:]:
        b.record(v)
    a.merge(b)
    assert a.count == one.count
    assert a.min == one.min and a.max == one.max
    for p in ps:
        assert a.percentile(p) == one.percentile(p)
