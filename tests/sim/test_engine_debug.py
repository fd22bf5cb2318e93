"""Sanitizer (debug) mode for the event kernel.

Everything here runs against ``Simulator(debug=True)``; a final test pins
the ``REPRO_SIM_DEBUG`` environment opt-in. Release-mode behaviour is
covered by test_engine.py — debug mode must not change results, only add
checks, so a handful of tests here assert debug/release equivalence.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import SimulationError, Simulator

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_debug_defaults_off(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_DEBUG", raising=False)
    assert Simulator().debug is False
    assert Simulator(debug=True).debug is True


def test_env_var_turns_debug_on():
    code = ("from repro.sim import Simulator; "
            "print(Simulator().debug)")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "REPRO_SIM_DEBUG": "1",
             "PYTHONPATH": str(REPO_ROOT / "src")},
    ).stdout.strip()
    assert out == "True"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "REPRO_SIM_DEBUG": "0",
             "PYTHONPATH": str(REPO_ROOT / "src")},
    ).stdout.strip()
    assert out == "False"


def test_explicit_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_DEBUG", "1")
    assert Simulator(debug=False).debug is False


# ---------------------------------------------------------------------------
# debug mode preserves results
# ---------------------------------------------------------------------------

def test_debug_run_matches_release_run():
    def workload(sim, log):
        def worker(sim, name, period, n):
            for _ in range(n):
                yield period
                log.append((sim.now, name))
        sim.process(worker(sim, "x", 2.0, 5))
        sim.process(worker(sim, "y", 3.0, 3))
        sim.call_later(4.0, log.append, (sim.now, "cb"))
        sim.run(until=12.0)
        return sim.now

    release_log, debug_log = [], []
    assert workload(Simulator(), release_log) \
        == workload(Simulator(debug=True), debug_log) == 12.0
    assert release_log == debug_log


def test_debug_run_until_advances_clock():
    sim = Simulator(debug=True)
    sim.run(until=100)
    assert sim.now == 100.0
    with pytest.raises(SimulationError):
        sim.run(until=5)


# ---------------------------------------------------------------------------
# NaN rejection
# ---------------------------------------------------------------------------

def test_debug_rejects_nan_delays():
    sim = Simulator(debug=True)
    with pytest.raises(SimulationError, match="NaN"):
        sim.reserve_key(math.nan)
    with pytest.raises(SimulationError, match="NaN"):
        sim.call_later(math.nan, lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        sim.call_at(math.nan, lambda: None)


def test_debug_rejects_nan_bare_yield():
    sim = Simulator(debug=True)

    def proc(sim):
        yield math.nan

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="NaN"):
        sim.run()


def test_debug_rejects_nan_yield_under_drive():
    sim = Simulator(debug=True)

    def proc(sim):
        yield 1.0
        yield math.nan

    sim.drive(proc(sim), lambda: None)
    with pytest.raises(SimulationError, match="NaN"):
        sim.run()


def test_release_mode_accepts_nan_silently():
    """The release hot path deliberately skips the check (documents the
    hazard the sanitizer exists for): NaN corrupts the heap invariant."""
    sim = Simulator(debug=False)
    sim.call_later(math.nan, lambda: None)  # no raise


# ---------------------------------------------------------------------------
# post-close detection
# ---------------------------------------------------------------------------

def test_close_rejects_further_scheduling():
    sim = Simulator(debug=True)
    sim.run()
    assert sim.close() == []
    assert sim.closed
    with pytest.raises(SimulationError):
        sim.call_later(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.process(iter(()))
    with pytest.raises(SimulationError):
        sim.run()


def test_close_rejects_late_event_triggers():
    sim = Simulator(debug=True)
    ev = sim.event()
    sim.close()
    with pytest.raises(SimulationError):
        ev.succeed(1)
    with pytest.raises(SimulationError):
        sim.event().fail(ValueError("late"))


def test_close_is_idempotent_and_release_mode_close_is_lenient():
    debug = Simulator(debug=True)
    assert debug.close() == [] and debug.close() == []
    release = Simulator(debug=False)
    release.close()
    release.call_later(1.0, lambda: None)  # release mode: no enforcement


# ---------------------------------------------------------------------------
# leaked-process reporting
# ---------------------------------------------------------------------------

def test_close_reports_never_terminated_processes():
    sim = Simulator(debug=True)

    def forever(sim):
        while True:
            yield 10.0

    def quick(sim):
        yield 1.0

    leaked_proc = sim.process(forever(sim), name="daemon")
    sim.process(quick(sim), name="quick")
    sim.run(until=100)
    leaked = sim.close()
    assert leaked == [leaked_proc]
    assert sim.alive_processes() == [leaked_proc]


def test_release_mode_does_not_track_processes():
    sim = Simulator(debug=False)

    def forever(sim):
        while True:
            yield 10.0

    sim.process(forever(sim))
    sim.run(until=50)
    assert sim.close() == []


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------

def test_debug_detects_backwards_event_time():
    sim = Simulator(debug=True)
    # Forge a corrupted calendar entry (no public API produces one).
    sim.call_later(5.0, lambda: None)
    sim._queue[0][0] = -1.0
    sim._now = 3.0
    with pytest.raises(SimulationError, match="backwards"):
        sim.run()


def test_debug_step_checks_monotonicity():
    sim = Simulator(debug=True)
    sim.call_later(5.0, lambda: None)
    sim._queue[0][0] = -1.0
    sim._now = 3.0
    with pytest.raises(SimulationError, match="backwards"):
        sim.step()
