"""Unit tests for the steering table and the order-preserving SW ring."""

import pytest

from repro.core import SteeringAction, SteeringTable, SwRing


# ---------------------------------------------------------------------------
# Steering table
# ---------------------------------------------------------------------------

def test_install_and_match():
    table = SteeringTable()
    table.install(1)
    assert table.match(1, 1024, now=5.0) is SteeringAction.FAST_PATH
    rule = table.get(1)
    assert rule.hit_count == 1
    assert rule.hit_bytes == 1024
    assert rule.last_hit_time == 5.0


def test_match_unknown_flow_uses_default():
    table = SteeringTable()
    assert table.match(42, 100, 0.0) is SteeringAction.DROP


def test_set_action_redirects():
    table = SteeringTable()
    table.install(1)
    table.set_action(1, SteeringAction.SLOW_PATH)
    assert table.match(1, 100, 0.0) is SteeringAction.SLOW_PATH


def test_set_action_missing_rule_raises():
    table = SteeringTable()
    with pytest.raises(KeyError):
        table.set_action(9, SteeringAction.SLOW_PATH)


def test_remove_rule():
    table = SteeringTable()
    table.install(1)
    table.remove(1)
    assert table.get(1) is None
    assert len(table) == 0
    table.remove(1)  # idempotent


def test_counters_accumulate_across_hits():
    table = SteeringTable()
    table.install(7)
    for t in range(10):
        table.match(7, 64, float(t))
    rule = table.get(7)
    assert rule.hit_count == 10
    assert rule.hit_bytes == 640
    assert rule.last_hit_time == 9.0


# ---------------------------------------------------------------------------
# SW ring
# ---------------------------------------------------------------------------

class _FakePacket:
    def __init__(self, seq):
        self.seq = seq
        self.retransmitted = False


class _FakeRecord:
    def __init__(self, seq):
        self.packet = _FakePacket(seq)


def test_fast_records_pop_in_order():
    ring = SwRing(1)
    for seq in range(3):
        ring.note_fast_issued()
        ring.push_fast(_FakeRecord(seq))
    records = ring.pop_ready(10)
    assert [r.packet.seq for r in records] == [0, 1, 2]
    assert len(ring) == 0


def test_pop_ready_respects_max():
    ring = SwRing(1)
    for seq in range(5):
        ring.push_fast(_FakeRecord(seq))
    assert len(ring.pop_ready(2)) == 2
    assert len(ring) == 3


def test_slow_records_not_ready_until_resident():
    ring = SwRing(1)
    ring.push_slow(_FakeRecord(0))
    assert ring.pop_ready(10) == []
    assert ring.has_nonresident
    entries = ring.nonresident_head(10)
    assert len(entries) == 1
    ring.mark_resident(entries[0])
    assert [r.packet.seq for r in ring.pop_ready(10)] == [0]


def test_barrier_holds_slow_behind_inflight_fast():
    """Fast packets issued before the degrade must pop before slow ones,
    even if the slow ones arrive (are buffered) first."""
    ring = SwRing(1)
    ring.note_fast_issued()   # fast pkt 0 in DMA pipeline
    ring.note_fast_issued()   # fast pkt 1 in DMA pipeline
    ring.set_barrier()        # flow degrades
    ring.push_slow(_FakeRecord(2))  # slow pkt arrives immediately
    # Slow entry must be invisible until the fast pipeline flushes.
    assert ring.nonresident_head(10) == []
    ring.push_fast(_FakeRecord(0))
    assert ring.nonresident_head(10) == []
    ring.push_fast(_FakeRecord(1))
    # Barrier satisfied: the slow entry enters the ring.
    entries = ring.nonresident_head(10)
    assert len(entries) == 1
    ring.mark_resident(entries[0])
    assert [r.packet.seq for r in ring.pop_ready(10)] == [0, 1, 2]
    assert ring.out_of_order == 0


def test_clear_barrier_flushes_pending():
    ring = SwRing(1)
    ring.note_fast_issued()
    ring.set_barrier()
    ring.push_slow(_FakeRecord(5))
    assert not ring.nonresident_head(10)
    ring.clear_barrier()
    assert len(ring.nonresident_head(10)) == 1


def test_head_of_line_blocking_on_nonresident_entry():
    """Resident entries behind a non-resident head must not pop (ordering)."""
    ring = SwRing(1)
    ring.push_slow(_FakeRecord(0))
    ring.push_slow(_FakeRecord(1))
    entries = ring.nonresident_head(10)
    ring.mark_resident(entries[1])  # second fetched first (out-of-order DMA)
    assert ring.pop_ready(10) == []
    ring.mark_resident(entries[0])
    assert [r.packet.seq for r in ring.pop_ready(10)] == [0, 1]


def test_nonresident_head_skips_fetching_entries():
    ring = SwRing(1)
    ring.push_slow(_FakeRecord(0))
    ring.push_slow(_FakeRecord(1))
    first = ring.nonresident_head(1)
    assert len(first) == 1
    first[0].fetching = True
    second = ring.nonresident_head(1)
    assert len(second) == 1
    assert second[0] is not first[0]


def test_unordered_push_detects_out_of_order():
    """Ablation: without phase exclusivity the consumer sees reordering."""
    ring = SwRing(1)
    ring.push_slow_unordered(_FakeRecord(5))
    ring.push_fast(_FakeRecord(3))  # arrives later, lower seq
    for entry in ring.nonresident_head(10):
        ring.mark_resident(entry)
    records = ring.pop_ready(10)
    assert [r.packet.seq for r in records] == [5, 3]
    assert ring.out_of_order == 1


def test_ready_count():
    ring = SwRing(1)
    ring.push_fast(_FakeRecord(0))
    ring.push_fast(_FakeRecord(1))
    ring.push_slow(_FakeRecord(2))
    assert ring.ready_count == 2
