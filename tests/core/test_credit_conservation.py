"""Credit-flux conservation: every credit consumed is eventually released,
reclaimed by the watchdog, or still in flight — across arbitrary operation
interleavings (hypothesis), the over-release clamp, and real crash_restart
/ watchdog-backoff scenarios."""

from hypothesis import given, settings, strategies as st

from repro.core import CreditController
from repro.faults import FaultPlan, FaultSpec
from repro.sim.units import US
from repro.workloads import compile_scenario, two_host_spec


def _flux_balanced(ctl: CreditController) -> bool:
    inflight = sum(a.inflight for a in ctl.accounts.values())
    flux = (ctl.released_total + ctl.reclaimed_total + inflight
            + ctl._departed_inflight)
    return (abs(ctl.consumed_total - flux) < 1e-9
            and abs(ctl.audit() - ctl.total) < 1e-6)


# ---------------------------------------------------------------------------
# Unit: the over-release clamp
# ---------------------------------------------------------------------------

def test_over_release_clamps_and_stays_balanced():
    ctl = CreditController(32)
    ctl.add_flows([1])
    for _ in range(3):
        assert ctl.consume(1)
    # Watchdog presumed all three lost; a late delivery then releases the
    # same buffers anyway — the clamp must not mint credits.
    assert ctl.reclaim_inflight(1) == 3
    ctl.release(1, 3)
    assert ctl.released_total == 0          # nothing in flight: clamped
    assert ctl.reclaimed_total == 3
    assert _flux_balanced(ctl)


def test_release_beyond_inflight_clamps():
    ctl = CreditController(16)
    ctl.add_flows([1])
    assert ctl.consume(1)
    ctl.release(1, 10)                      # caller bug: 10 > 1 in flight
    assert ctl.released_total == 1
    assert ctl.account(1).inflight == 0
    assert _flux_balanced(ctl)


def test_departed_flow_releases_return_to_reserve():
    ctl = CreditController(16)
    ctl.add_flows([1])
    for _ in range(4):
        assert ctl.consume(1)
    ctl.remove_flow(1)                      # crash teardown: 4 in flight
    assert ctl._departed_inflight == 4
    assert _flux_balanced(ctl)
    ctl.release(1, 6)                       # late frees, over-counted
    assert ctl._departed_inflight == 0
    assert ctl.released_total == 4          # clamped to what departed held
    assert _flux_balanced(ctl)


# ---------------------------------------------------------------------------
# Property: arbitrary interleavings
# ---------------------------------------------------------------------------

flux_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5)),
        st.tuples(st.just("remove"), st.integers(0, 5)),
        st.tuples(st.just("consume"), st.integers(0, 5)),
        st.tuples(st.just("overdraft"), st.integers(0, 5)),
        st.tuples(st.just("release"), st.integers(0, 5), st.integers(1, 12)),
        st.tuples(st.just("reclaim_inflight"), st.integers(0, 5)),
        st.tuples(st.just("donate"), st.integers(0, 5), st.booleans()),
    ),
    max_size=60)


@given(total=st.integers(1, 256), ops=flux_ops)
@settings(max_examples=200, deadline=None)
def test_flux_conserved_under_arbitrary_ops(total, ops):
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
            if fid in ctl.accounts:
                ctl.consume_overdraft(fid)
        elif kind == "release":
            ctl.release(fid, op[2])
        elif kind == "reclaim_inflight":
            ctl.reclaim_inflight(fid)
        elif kind == "donate":
            ctl.set_donating(fid, op[2])
        assert _flux_balanced(ctl), (op, ctl.consumed_total,
                                     ctl.released_total, ctl.reclaimed_total)


# ---------------------------------------------------------------------------
# Compiled scenarios: crash_restart and watchdog reclaim under descriptor loss
# ---------------------------------------------------------------------------

def _run(faults):
    scenario = compile_scenario(two_host_spec(
        [{"name": "kv", "workload": "kvstore", "flows": 3,
          "outstanding": 32}],
        seed=5, arch="ceio", scale=8, warmup_us=150.0, duration_us=300.0,
        fault_plan=faults.to_dicts()))
    measurement = scenario.run_measure()["host"]
    return scenario.fabric.endpoints["host"].io_arch, measurement


def test_crash_restart_conserves_credits():
    plan = FaultPlan((FaultSpec("apps", "crash_restart",
                                start=200 * US, duration=80 * US),))
    arch, measurement = _run(plan)
    assert measurement.audit["ok"], measurement.audit["violations"]
    ctl = arch.credits
    assert _flux_balanced(ctl)
    assert ctl.consumed_total > 0


def test_watchdog_reclaim_cycles_conserve_credits():
    # Full-magnitude descriptor loss wedges every involved flow's credits;
    # the watchdog's reclaim_inflight backoff cycles bring them back.
    plan = FaultPlan((FaultSpec("hw.nic", "descriptor_drop",
                                start=200 * US, duration=150 * US,
                                magnitude=1.0),))
    arch, measurement = _run(plan)
    assert measurement.audit["ok"], measurement.audit["violations"]
    ctl = arch.credits
    assert ctl.reclaimed_total > 0          # the watchdog actually fired
    assert _flux_balanced(ctl)


def test_crash_during_descriptor_loss_conserves_credits():
    plan = FaultPlan((
        FaultSpec("hw.nic", "descriptor_drop", start=180 * US,
                  duration=120 * US, magnitude=0.8),
        FaultSpec("apps", "crash_restart", start=220 * US,
                  duration=100 * US),
    ))
    arch, measurement = _run(plan)
    assert measurement.audit["ok"], measurement.audit["violations"]
    assert _flux_balanced(arch.credits)
