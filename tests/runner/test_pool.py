"""WorkerPool fault tolerance: retries, crashes, timeouts, degradation."""

from repro.runner import Point, PoolConfig, WorkerPool

W = "tests.runner.workers:"


def _pt(fn, params, label):
    return Point("exp", W + fn, params, seed=0, label=label)


def _run(points, **cfg):
    cfg.setdefault("backoff", 0.01)
    pool = WorkerPool(PoolConfig(**cfg))
    outcomes = pool.run(points)
    return pool, outcomes


def test_serial_success_and_order():
    _, outcomes = _run([_pt("ok", {"a": n}, f"p{n}") for n in (1, 2, 3)],
                       jobs=1)
    assert [o.value["doubled"] for o in outcomes] == [2, 4, 6]
    assert all(o.ok and o.attempts == 1 for o in outcomes)


def test_pool_success_preserves_input_order():
    points = [_pt("ok", {"a": n}, f"p{n}") for n in range(6)]
    pool, outcomes = _run(points, jobs=3)
    assert [o.point.point_id for o in outcomes] == [p.point_id
                                                   for p in points]
    assert not pool.degraded_to_serial and pool.degradation_reason is None
    assert [o.value["doubled"] for o in outcomes] == [0, 2, 4, 6, 8, 10]


def test_serial_retries_transient_exception(tmp_path):
    params = {"dir": str(tmp_path), "name": "t", "fail_times": 1}
    _, outcomes = _run([_pt("fail_then_ok", params, "t")],
                       jobs=1, retries=2)
    (o,) = outcomes
    assert o.ok and o.attempts == 2 and o.value == {"attempt": 1}


def test_serial_gives_up_after_retries():
    _, outcomes = _run([_pt("boom", {"name": "x"}, "x")], jobs=1, retries=1)
    (o,) = outcomes
    assert not o.ok and o.attempts == 2
    assert "boom on x" in o.error


def test_pool_retries_exception_then_succeeds(tmp_path):
    params = {"dir": str(tmp_path), "name": "t", "fail_times": 1}
    _, outcomes = _run([_pt("fail_then_ok", params, "t"),
                        _pt("ok", {"a": 5}, "fine")], jobs=2, retries=2)
    assert outcomes[0].ok and outcomes[0].value == {"attempt": 1}
    assert outcomes[0].attempts == 2
    assert outcomes[1].ok and outcomes[1].attempts == 1


def test_pool_worker_crash_is_retried_then_succeeds(tmp_path):
    params = {"dir": str(tmp_path), "name": "c", "fail_times": 1}
    _, outcomes = _run([_pt("crash_then_ok", params, "c")],
                       jobs=2, retries=2)
    (o,) = outcomes
    assert o.ok and o.value == {"attempt": 1} and o.attempts == 2


def test_pool_persistent_crash_gives_up_without_killing_sweep(tmp_path):
    params = {"dir": str(tmp_path), "name": "h"}
    _, outcomes = _run([_pt("hard_crash", params, "h"),
                        _pt("ok", {"a": 2}, "fine")], jobs=2, retries=1)
    crash, fine = outcomes
    assert not crash.ok and crash.attempts == 2
    assert "worker died" in crash.error
    assert fine.ok and fine.value["doubled"] == 4
    # both attempts really ran (marker files survive the os._exit)
    assert len(list(tmp_path.glob("h.attempt-*"))) == 2


def test_pool_enforces_per_point_timeout():
    _, outcomes = _run([_pt("sleepy", {"sleep": 30}, "slow"),
                        _pt("ok", {"a": 1}, "fast")],
                       jobs=2, retries=0, timeout=0.5)
    slow, fast = outcomes
    assert not slow.ok and "timeout after 0.5s" in slow.error
    assert fast.ok


def test_degrades_to_serial_when_start_method_is_bogus():
    pool = WorkerPool(PoolConfig(jobs=4, start_method="no-such-method"))
    outcomes = pool.run([_pt("ok", {"a": 3}, "p")])
    assert pool.degraded_to_serial
    assert "no-such-method" in pool.degradation_reason
    assert outcomes[0].ok and outcomes[0].value["doubled"] == 6


def test_callbacks_fire_per_attempt_and_per_point(tmp_path):
    params = {"dir": str(tmp_path), "name": "t", "fail_times": 1}
    starts, dones = [], []
    pool = WorkerPool(PoolConfig(jobs=2, retries=1, backoff=0.01))
    pool.run([_pt("fail_then_ok", params, "t")],
             on_start=lambda p, attempt: starts.append((p.point_id, attempt)),
             on_done=lambda o: dones.append(o.point.point_id))
    assert starts == [("exp/t", 1), ("exp/t", 2)]
    assert dones == ["exp/t"]
