"""Unit tests for the §6.3 ``limits`` and §6.4 ``lessons`` experiments:
point construction, and every shape check's pass and fail branch on
synthetic results (no simulation)."""

import pytest

from repro.experiments import lessons, limits


def _failed(result):
    return [c.name for c in result.checks if not c.passed]


# ----------------------------------------------------------------------
# lessons
# ----------------------------------------------------------------------
def test_lessons_points():
    pts = lessons.points(quick=True)
    assert [p.point_id for p in pts] == [
        "lessons/zero-copy.zero-copy", "lessons/zero-copy.copying",
        "lessons/transport-dpdk.baseline", "lessons/transport-dpdk.ceio",
        "lessons/transport-rdma.baseline", "lessons/transport-rdma.ceio"]
    assert all(p.seed == 37 for p in pts)
    # A root seed gives each point its own substream.
    assert len({p.seed for p in lessons.points(quick=True, seed=5)}) == 6


def _lessons_results(zc=10.0, copying=4.5, dpdk=(5.0, 10.0),
                     rdma=(5.0, 10.0)):
    results = {"lessons/zero-copy.zero-copy": {"mpps": zc},
               "lessons/zero-copy.copying": {"mpps": copying}}
    for transport, (base, ceio) in (("dpdk", dpdk), ("rdma", rdma)):
        results[f"lessons/transport-{transport}.baseline"] = {"mpps": base}
        results[f"lessons/transport-{transport}.ceio"] = {"mpps": ceio}
    return results


def test_lessons_collect_passes():
    result = lessons.collect(_lessons_results())
    assert result.all_passed, result.render()
    assert result.rows == [
        ["zero-copy", "zero-copy", 10.0], ["zero-copy", "copying", 4.5],
        ["transport-dpdk", "baseline", 5.0], ["transport-dpdk", "ceio", 10.0],
        ["transport-rdma", "baseline", 5.0], ["transport-rdma", "ceio", 10.0]]


@pytest.mark.parametrize("kwargs, check", [
    ({"copying": 9.0}, "copying forfeits"),
    ({"rdma": (5.0, 5.0)}, "comparable under DPDK and RDMA"),
])
def test_lessons_collect_fails(kwargs, check):
    failed = _failed(lessons.collect(_lessons_results(**kwargs)))
    assert len(failed) == 1 and check in failed[0]


# ----------------------------------------------------------------------
# limits
# ----------------------------------------------------------------------
def test_limits_points():
    pts = limits.points(quick=True)
    assert [p.point_id for p in pts] == [
        "limits/low-pressure.baseline", "limits/low-pressure.ceio",
        "limits/jumbo.baseline", "limits/jumbo.ceio"]
    assert all(p.seed == 23 for p in pts)
    assert len({p.seed for p in limits.points(quick=True, seed=5)}) == 4


def _limits_results(lp_base=(30.0, 0.01), lp_ceio=(30.0, 0.0),
                    jb_base=(2.5, 0.5), jb_ceio=(2.6, 0.0)):
    return {"limits/low-pressure.baseline": dict(zip(("mpps", "miss"),
                                                     lp_base)),
            "limits/low-pressure.ceio": dict(zip(("mpps", "miss"), lp_ceio)),
            "limits/jumbo.baseline": dict(zip(("mpps", "miss"), jb_base)),
            "limits/jumbo.ceio": dict(zip(("mpps", "miss"), jb_ceio))}


def test_limits_collect_passes():
    result = limits.collect(_limits_results())
    assert result.all_passed, result.render()
    assert [row[:2] for row in result.rows] == [
        ["64B-low-pressure", "baseline"], ["64B-low-pressure", "ceio"],
        ["9000B-jumbo", "baseline"], ["9000B-jumbo", "ceio"]]
    # gbps is derived from mpps and the frame size; miss_% from the rate.
    assert result.rows[2][3] == pytest.approx(2.5 * 9000 * 8 / 1000.0)
    assert result.rows[2][4] == pytest.approx(50.0)


@pytest.mark.parametrize("kwargs, check", [
    ({"lp_base": (20.0, 0.01)}, "baseline ~= CEIO"),
    ({"lp_base": (30.0, 0.2)}, "miss rate < 5%"),
    # 2.2 Mpps of 9000 B is 158 Gbps: line rate, but more than 15% under
    # CEIO's 202.
    ({"jb_base": (2.2, 0.5), "jb_ceio": (2.8, 0.0)}, "within 15% of CEIO"),
    # 2.0 Mpps is 144 Gbps, under line rate, though within 15% of CEIO's
    # 151.
    ({"jb_base": (2.0, 0.5), "jb_ceio": (2.1, 0.0)}, "holds line rate"),
    # A high miss rate does not excuse a baseline below line rate.
    ({"jb_base": (2.0, 0.9), "jb_ceio": (2.1, 0.0)}, "holds line rate"),
])
def test_limits_collect_fails(kwargs, check):
    failed = _failed(limits.collect(_limits_results(**kwargs)))
    assert len(failed) == 1 and check in failed[0]


def test_limits_jumbo_line_rate_excuses_a_low_miss_rate():
    result = limits.collect(_limits_results(jb_base=(2.5, 0.1)))
    assert result.all_passed, result.render()


def test_limits_jumbo_line_rate_passes_at_any_miss_rate():
    """The model's jumbo baseline misses 0%: line rate alone passes."""
    for miss in (0.0, 0.5):
        result = limits.collect(_limits_results(jb_base=(2.5, miss)))
        assert result.all_passed, result.render()
