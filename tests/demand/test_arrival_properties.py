"""Property tests (hypothesis) for the open-loop demand layer.

Invariants:

- **determinism** — the arrival timestamp sequence is a pure function of
  (seed, stream name, profile, parameters): two independently built
  registries yield identical prefixes, and consuming a prefix leaves the
  stream at a position determined only by the count (the ``--jobs`` /
  sharding contract of ``docs/WORKLOADS.md``);
- **shape** — arrivals are strictly positive, non-decreasing, and bounded
  by the horizon; rates respect the profile's declared peak;
- **admission conservation** — for any admit/shed interleaving,
  ``offered == admitted + shed`` holds exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.core.admission import AdmissionController
from repro.demand import (DiurnalProfile, FlashCrowdProfile, ScaledProfile,
                          SteadyProfile, WindowsProfile, poisson_times,
                          profile_from_dict, session_times)
from repro.sim.rng import RngRegistry

profiles = st.one_of(
    st.builds(SteadyProfile,
              rate_mpps=st.floats(0.1, 64.0)),
    st.builds(DiurnalProfile,
              base_mpps=st.floats(0.5, 32.0),
              amplitude=st.floats(0.0, 0.95),
              period_us=st.floats(10.0, 400.0),
              phase_us=st.floats(0.0, 100.0)),
    st.builds(FlashCrowdProfile,
              base_mpps=st.floats(0.5, 16.0),
              peak_mpps=st.floats(16.0, 128.0),
              start_us=st.floats(0.0, 100.0),
              ramp_us=st.floats(1.0, 50.0),
              hold_us=st.floats(1.0, 100.0),
              decay_us=st.floats(1.0, 50.0)),
)


def _take(gen, n):
    out = []
    for t in gen:
        out.append(t)
        if len(out) == n:
            break
    return out


@given(profile=profiles, seed=st.integers(0, 2**31 - 1),
       n=st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_poisson_arrivals_deterministic_across_registries(profile, seed, n):
    a = poisson_times(RngRegistry(seed).stream("demand-kv.0"), profile)
    b = poisson_times(RngRegistry(seed).stream("demand-kv.0"), profile)
    assert _take(a, n) == _take(b, n)


@given(profile=profiles, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_poisson_prefix_consumption_is_position_independent(profile, seed):
    """Consuming K arrivals then continuing equals taking K+M up front —
    lazy generation never looks ahead, so a source stopped mid-stream
    (shard boundary, measure end) has drawn exactly what it yielded."""
    whole = _take(poisson_times(RngRegistry(seed).stream("d"), profile), 50)
    split = poisson_times(RngRegistry(seed).stream("d"), profile)
    head = _take(split, 20)
    tail = _take(split, 30)
    assert head + tail == whole


@given(profile=profiles, seed=st.integers(0, 2**31 - 1),
       horizon_us=st.floats(10.0, 500.0))
@settings(max_examples=60, deadline=None)
def test_poisson_arrivals_positive_monotone_bounded(profile, seed,
                                                    horizon_us):
    horizon = horizon_us * 1000.0
    rng = RngRegistry(seed).stream("d")
    times = list(poisson_times(rng, profile, horizon=horizon))
    assert all(t > 0.0 for t in times)
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert all(t < horizon for t in times)


@given(profile=profiles, seed=st.integers(0, 2**31 - 1),
       mean=st.floats(1.0, 40.0), shape=st.floats(1.05, 3.0),
       gap=st.floats(100.0, 5000.0))
@settings(max_examples=40, deadline=None)
def test_session_arrivals_deterministic_and_monotone(profile, seed, mean,
                                                     shape, gap):
    def stream():
        return session_times(RngRegistry(seed).stream("s"), profile,
                             mean_messages=mean, shape=shape,
                             intra_gap_ns=gap, horizon=200_000.0)
    a = list(stream())
    assert a == list(stream())
    assert all(t > 0.0 for t in a)
    assert all(x <= y for x, y in zip(a, a[1:]))
    assert all(t < 200_000.0 for t in a)


@given(profile=profiles, factor=st.floats(0.01, 4.0),
       t_us=st.floats(0.0, 1000.0))
@settings(max_examples=100, deadline=None)
def test_profile_rate_bounded_by_peak_and_scales(profile, factor, t_us):
    t = t_us * 1000.0
    assert 0.0 <= profile.rate(t) <= profile.peak() + 1e-12
    scaled = ScaledProfile(profile, factor)
    assert abs(scaled.rate(t) - profile.rate(t) * factor) < 1e-12


@given(profile=profiles)
@settings(max_examples=60, deadline=None)
def test_profile_dict_round_trip(profile):
    data = profile.to_dict()
    again = profile_from_dict(data)
    assert again.to_dict() == data
    for t in (0.0, 5_000.0, 123_456.0, 900_000.0):
        assert abs(again.rate(t) - profile.rate(t)) < 1e-12


def test_windows_profile_rate_is_piecewise():
    profile = WindowsProfile([(0.0, 50.0, 4.0), (100.0, 150.0, 8.0)])
    assert profile.rate(25_000.0) == 4.0 * 1e-3
    assert profile.rate(75_000.0) == 0.0
    assert profile.rate(125_000.0) == 8.0 * 1e-3
    assert profile.peak() == 8.0 * 1e-3


# ---------------------------------------------------------------------------
# Admission conservation
# ---------------------------------------------------------------------------

admission_ops = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 200_000)),
    min_size=1, max_size=400)


@given(ring_limit=st.integers(1, 128),
       slow_limit=st.integers(1, 100_000), ops=admission_ops)
@settings(max_examples=150, deadline=None)
def test_admission_conserves_offered(ring_limit, slow_limit, ops):
    ctl = AdmissionController(ring_limit=ring_limit,
                              slow_bytes_limit=slow_limit)
    admitted = shed = 0
    for depth, slow_bytes in ops:
        if ctl.admit(depth, slow_bytes):
            admitted += 1
            assert depth < ring_limit and slow_bytes < slow_limit
        else:
            shed += 1
            assert depth >= ring_limit or slow_bytes >= slow_limit
    assert ctl.offered == len(ops)
    assert ctl.admitted == admitted
    assert ctl.shed == shed
    assert ctl.offered == ctl.admitted + ctl.shed
