"""Per-rule fixtures: snippets that must flag and must not flag."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

SIM_PKG = "repro.hw.fake"        # sim-side
HOST_PKG = "repro.runner.fake"   # host-side (runner: wall-clock exempt)


def codes(source: str, package: str = SIM_PKG, select=None):
    src = textwrap.dedent(source)
    return [f.code for f in lint_source("fake.py", src, select=select,
                                        package=package)]


# ---------------------------------------------------------------------------
# D101 — RNG discipline
# ---------------------------------------------------------------------------

def test_d101_flags_random_construction():
    assert codes("""
        import random
        RNG = random.Random(7)
    """) == ["D101"]


def test_d101_flags_module_level_random_calls():
    assert codes("""
        import random
        def jitter():
            return random.random() * 2
    """) == ["D101"]


def test_d101_flags_aliased_and_from_imports():
    assert "D101" in codes("""
        import random as rnd
        r = rnd.Random(0)
    """)
    assert "D101" in codes("""
        from random import Random
        r = Random(0)
    """)
    assert "D101" in codes("""
        from random import randint as ri
        x = ri(1, 6)
    """)


def test_d101_flags_numpy_random():
    assert "D101" in codes("""
        import numpy as np
        def noise():
            return np.random.rand()
    """)


def test_d101_allows_registry_streams_and_annotations():
    assert codes("""
        import random
        from repro.sim.rng import RngRegistry

        def draw(rng: random.Random) -> float:
            return rng.random()

        def setup(registry: RngRegistry):
            return registry.stream("fake.noise")
    """) == []


def test_d101_exempts_the_rng_module_itself():
    src = """
        import random
        def make(seed):
            return random.Random(seed)
    """
    assert codes(src, package="repro.sim.rng") == []
    assert codes(src, package="repro.sim.other") == ["D101"]


def test_d101_does_not_apply_outside_repro():
    assert codes("""
        import random
        r = random.Random(0)
    """, package="tests.sim.test_fake") == []


# ---------------------------------------------------------------------------
# D102 — wall clock
# ---------------------------------------------------------------------------

def test_d102_flags_time_and_datetime():
    assert codes("""
        import time
        def stamp(sim):
            return time.time()
    """) == ["D102"]
    assert codes("""
        import datetime
        def stamp():
            return datetime.datetime.now()
    """) == ["D102"]
    assert codes("""
        from time import monotonic
        def stamp():
            return monotonic()
    """) == ["D102"]
    assert codes("""
        from datetime import datetime
        def stamp():
            return datetime.utcnow()
    """) == ["D102"]


def test_d102_allows_sim_now_and_exempts_runner():
    assert codes("""
        def stamp(sim):
            return sim.now
    """) == []
    assert codes("""
        import time
        def stamp():
            return time.time()
    """, package=HOST_PKG) == []


# ---------------------------------------------------------------------------
# D103 — unordered iteration
# ---------------------------------------------------------------------------

def test_d103_flags_set_literal_iteration():
    assert codes("""
        def tick(sim):
            for x in {1, 2, 3}:
                sim.call_later(1.0, print, x)
    """) == ["D103"]


def test_d103_flags_inferred_set_attributes():
    assert codes("""
        class Ctl:
            def __init__(self):
                self._touched = set()

            def tick(self, sim):
                touched, self._touched = self._touched, set()
                for fid in touched:
                    sim.call_later(1.0, print, fid)
    """) == ["D103"]


def test_d103_flags_set_laundered_through_list():
    assert codes("""
        def tick(sim):
            pending = set()
            for x in list(pending):
                sim.call_later(1.0, print, x)
    """) == ["D103"]


def test_d103_flags_id_sort_key():
    assert codes("""
        def tick(sim, events):
            events.sort(key=id)
            sim.call_later(1.0, print)
    """) == ["D103"]


def test_d103_allows_sorted_iteration_and_membership():
    assert codes("""
        def tick(sim):
            pending = set()
            if 3 in pending:
                pass
            for x in sorted(pending):
                sim.call_later(1.0, print, x)
    """) == []


def test_d103_requires_scheduling_module():
    # Same set iteration, but the module never schedules: not flagged.
    assert codes("""
        def summarise(items):
            out = []
            for x in {1, 2, 3}:
                out.append(x)
            return out
    """) == []


def test_d103_name_demoted_when_rebound_ordered():
    assert codes("""
        def tick(sim):
            batch = set()
            batch = sorted(batch)
            for x in batch:
                sim.call_later(1.0, print, x)
    """) == []


# ---------------------------------------------------------------------------
# D105 — dropped handles
# ---------------------------------------------------------------------------

# D105 only applies to modules that touch the scheduler; fixtures that do
# not already call a scheduling API carry this helper to opt in.
SCHED = "\n        def _touch(sim):\n            sim.call_later(1.0, print)\n"

def test_d105_flags_discarded_process():
    assert codes("""
        def start(sim):
            sim.process(worker(sim))
    """) == ["D105"]


def test_d105_allows_kept_process_handle():
    assert codes("""
        class Server:
            def start(self):
                self._proc = self.sim.process(worker(self.sim))
    """) == []


def test_d105_flags_discarded_timeout_and_event():
    assert codes("""
        def proc(sim):
            sim.event()
            yield 1.0
    """ + SCHED) == ["D105"]


def test_d105_flags_never_read_cancel_handle():
    assert codes("""
        def arm(sim):
            handle = sim.call_later(5.0, print)
    """) == ["D105"]


def test_d105_allows_cancelled_handle_and_bare_call_later():
    assert codes("""
        def arm(sim, flag):
            handle = sim.call_later(5.0, print)
            if flag:
                sim.cancel(handle)
            sim.call_later(1.0, print)
    """) == []


def test_d105_sim_side_only():
    assert codes("""
        def start(sim):
            sim.process(worker(sim))
    """, package="repro.experiments.fake") == []


# ---------------------------------------------------------------------------
# D106 — mutable state
# ---------------------------------------------------------------------------

def test_d106_flags_mutable_defaults():
    assert codes("""
        def f(items=[]):
            return items
    """) == ["D106"]
    assert codes("""
        def f(*, table={}):
            return table
    """) == ["D106"]
    assert codes("""
        def f(seen=set()):
            return seen
    """) == ["D106"]


def test_d106_flags_module_level_mutable_state():
    assert codes("""
        CACHE = {}
    """) == ["D106"]
    assert codes("""
        from collections import deque
        PENDING = deque()
    """) == ["D106"]


def test_d106_allows_immutable_and_dunder_and_class_state():
    assert codes("""
        __all__ = ["f"]
        LIMITS = (1, 2, 3)
        NAMES = frozenset({"a"})

        class C:
            def __init__(self):
                self.items = []

        def f(items=None):
            return items or ()
    """) == []


def test_d106_sim_side_only():
    assert codes("CACHE = {}", package=HOST_PKG) == []


# ---------------------------------------------------------------------------
# cross-cutting: select + syntax errors
# ---------------------------------------------------------------------------

def test_select_restricts_rules():
    src = """
        import random
        RNG = random.Random(7)
        CACHE = {}
    """
    assert codes(src) == ["D101", "D106"]
    assert codes(src, select=["D106"]) == ["D106"]


def test_syntax_error_reported_as_finding():
    assert codes("def broken(:\n    pass") == ["E999"]
