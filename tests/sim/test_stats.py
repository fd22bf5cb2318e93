"""Unit tests for measurement primitives."""

import pytest

from repro.sim import Histogram, RateMeter


def test_histogram_exact_small_values():
    h = Histogram()
    for v in [1, 2, 3, 4, 5]:
        h.record(v)
    assert h.count == 5
    assert h.mean == pytest.approx(3.0)
    assert h.percentile(50) == 3
    assert h.percentile(100) == 5
    assert h.min == 1 and h.max == 5


def test_histogram_percentile_bounded_error():
    h = Histogram()
    values = list(range(100, 10000, 7))
    for v in values:
        h.record(v)
    exact = sorted(values)[int(0.99 * len(values)) - 1]
    approx = h.percentile(99)
    assert abs(approx - exact) / exact < 0.05


def test_histogram_empty_percentile_zero():
    h = Histogram()
    assert h.percentile(99) == 0.0
    assert h.mean == 0.0


def test_histogram_percentile_range_checked():
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_bulk_record():
    h = Histogram()
    h.record(10, n=100)
    assert h.count == 100
    assert h.percentile(50) == 10


def test_histogram_merge():
    a, b = Histogram(), Histogram()
    a.record(5)
    b.record(500)
    a.merge(b)
    assert a.count == 2
    assert a.min == 5
    assert a.max == 500


def test_histogram_overflow_clamps_to_last_bucket():
    h = Histogram(hi=1000)
    h.record(10**15)
    assert h.count == 1
    assert h.percentile(100) > 0


def test_rate_meter_windowed_rate():
    m = RateMeter(window=10.0, keep=4)
    for t in range(0, 40):
        m.record(float(t), 2.0)  # 2 units per ns
    assert m.rate(40.0) == pytest.approx(2.0)
    assert m.total == 80.0


def test_rate_meter_partial_window_estimates():
    m = RateMeter(window=100.0)
    m.record(10.0, 30.0)
    assert m.rate(10.0) == pytest.approx(3.0)


def test_rate_meter_mean_rate():
    m = RateMeter(window=5.0)
    m.record(1.0, 10.0)
    assert m.mean_rate(10.0) == pytest.approx(1.0)

