"""Graceful-degradation tests: the §5 recovery mechanisms, unit-level and
end-to-end through the chaos credit-loss scenario.

The end-to-end pair is the tentpole acceptance test: under a
full-magnitude descriptor-drop fault, CEIO with its watchdogs sustains
goodput and recovers to pre-fault levels, while the watchdog-disabled
ablation deadlocks — and both outcomes are bit-identical whether the
points run serially or across a process pool.
"""

import pytest

from repro.core import CreditController, SwRing
from repro.experiments import chaos


# ---------------------------------------------------------------------------
# Credit reclaim (unit)
# ---------------------------------------------------------------------------

def test_reclaim_inflight_conserves_credits():
    ctl = CreditController(1000)
    ctl.add_flows([1])
    for _ in range(400):
        assert ctl.consume(1)
    acct = ctl.account(1)
    assert acct.inflight == pytest.approx(400)
    lost = ctl.reclaim_inflight(1, now=123.0)
    assert lost == 400
    assert acct.inflight == 0
    assert acct.available == pytest.approx(1000)
    assert acct.last_activity == 123.0
    assert ctl.audit() == pytest.approx(1000)


def test_reclaim_inflight_noop_cases():
    ctl = CreditController(1000)
    ctl.add_flows([1])
    assert ctl.reclaim_inflight(1) == 0        # nothing in flight
    assert ctl.reclaim_inflight(99) == 0       # unknown flow


def test_release_after_reclaim_cannot_mint_credits():
    """A mistakenly-reclaimed write that later completes must not create
    credits: release clamps to what is actually in flight."""
    ctl = CreditController(1000)
    ctl.add_flows([1])
    for _ in range(10):
        ctl.consume(1)
    ctl.reclaim_inflight(1)
    ctl.release(1, 10)                         # late completions arrive
    assert ctl.account(1).available <= 1000
    assert ctl.audit() == pytest.approx(1000)


# ---------------------------------------------------------------------------
# SW-ring stuck-slot release (unit)
# ---------------------------------------------------------------------------

class _Rec:
    class packet:
        seq = 0
        retransmitted = False

    def __init__(self, seq):
        self.packet = type("P", (), {"seq": seq, "retransmitted": False})()


def test_release_barrier_holes_flushes_and_forgives():
    ring = SwRing(flow_id=1)
    for _ in range(5):
        ring.note_fast_issued()
    for seq in range(3):                       # two writes lost in flight
        ring.push_fast(_Rec(seq))
    ring.set_barrier()
    ring.push_slow(_Rec(10))
    assert ring.barrier_unmet()
    assert ring.ready_count == 3               # slow entry held back
    released = ring.release_barrier_holes()
    assert released == 2
    assert ring.holes_released == 2
    assert not ring.barrier_unmet()
    assert len(ring) == 4                      # slow entry joined the ring
    assert ring.has_nonresident
    (slow,) = ring.nonresident_head(10)
    ring.mark_resident(slow)
    assert not ring.has_nonresident
    assert [r.packet.seq for r in ring.pop_ready(10)] == [0, 1, 2, 10]
    # fast_issued realigned: a re-degrade cannot recreate the dead barrier.
    assert ring.fast_issued == ring.fast_delivered
    ring.set_barrier()
    assert not ring.barrier_unmet()


def test_release_barrier_holes_noop_when_barrier_met():
    ring = SwRing(flow_id=1)
    ring.note_fast_issued()
    ring.push_fast(_Rec(0))
    ring.set_barrier()
    assert ring.release_barrier_holes() == 0
    assert ring.holes_released == 0


# ---------------------------------------------------------------------------
# End-to-end: the chaos credit-loss scenario (tentpole acceptance)
# ---------------------------------------------------------------------------

def _point(variant, magnitude=1.0):
    pts = [p for p in chaos.points(quick=True)
           if p.params["variant"] == variant
           and p.params["magnitude"] == magnitude]
    assert len(pts) == 1
    return pts[0]


@pytest.fixture(scope="module")
def chaos_pair():
    """Run the ceio and ablation points once for the whole module."""
    out = {}
    for variant in ("ceio", "ceio-norecovery"):
        point = _point(variant)
        out[variant] = chaos.run_point(dict(point.params), point.seed)
    return out


def test_ceio_sustains_goodput_through_full_drop_fault(chaos_pair):
    ceio = chaos_pair["ceio"]
    assert ceio["during"] > 0
    assert ceio["dropped_writes"] > 0          # the fault actually bit


def test_ceio_recovers_after_fault(chaos_pair):
    ceio = chaos_pair["ceio"]
    assert ceio["post"][-1] >= 0.5 * ceio["pre"]
    # Recovery came from the watchdogs, not luck: every lost credit was
    # reclaimed and every ordering hole forgiven.
    assert ceio["credit_reclaimed"] == ceio["dropped_writes"]
    assert ceio["swring_holes"] == ceio["dropped_writes"]


def test_watchdog_disabled_ablation_deadlocks(chaos_pair):
    ablation = chaos_pair["ceio-norecovery"]
    assert ablation["dropped_writes"] > 0
    assert ablation["credit_reclaimed"] == 0
    assert ablation["post"][-1] < 0.1 * ablation["pre"]


def test_chaos_points_reproducible_across_pool(chaos_pair):
    """jobs-1 vs jobs-4 parity for the two acceptance points: pool
    execution returns bit-identical results to in-process execution."""
    from repro.runner import RunnerOptions, execute_points

    points = [_point("ceio"), _point("ceio-norecovery")]
    pooled, failures = execute_points(
        points, RunnerOptions(jobs=4, use_cache=False))
    assert not failures
    assert pooled["chaos/ceio.m1"] == chaos_pair["ceio"]
    assert pooled["chaos/ceio-norecovery.m1"] == chaos_pair["ceio-norecovery"]
