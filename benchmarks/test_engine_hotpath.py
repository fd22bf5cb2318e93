"""Engine hot-path microbenchmark: events/sec through the DES kernel.

Unlike the experiment benchmarks (minutes-long simulations), this measures
the kernel itself: how many scheduler events per wall-clock second the
`Simulator` sustains on the two workload shapes that dominate every
reproduction run:

- **timer-churn** — many processes doing ``yield <delay>`` in a tight loop
  (the firmware/link/DMA serialisation idiom);
- **producer-consumer** — producer processes feeding callback servers
  through a deque with one waiter callback, each item served for a
  ``call_later`` delay (the ``IioBuffer``/memory-controller idiom);
- **callback-chain** — ``call_later`` callables rescheduling themselves
  (the propagation-delay / control-tick idiom).

Results are written to ``BENCH_engine.json`` next to the repo root so the
numbers form a trajectory across commits. Run standalone::

    PYTHONPATH=src python benchmarks/test_engine_hotpath.py

or through pytest (each workload is also a test with a loose floor so CI
catches catastrophic regressions without being flaky)::

    PYTHONPATH=src python -m pytest benchmarks/test_engine_hotpath.py -v
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from pathlib import Path

from repro.sim import Simulator

#: Events per workload run. Large enough that interpreter warm-up noise is
#: <1%, small enough that the whole file runs in a few seconds.
N_EVENTS = 200_000

#: CI smoke floor (events/sec): an order of magnitude below what even the
#: pre-refactor kernel sustains, so only a catastrophic regression trips it.
FLOOR = 20_000.0

_REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = _REPO_ROOT / "BENCH_engine.json"


def _bench(fn, *args):
    """Run ``fn`` once for warm-up, then timed; returns events/sec."""
    fn(*args)  # warm-up: heap growth, bytecode caches
    t0 = time.perf_counter()
    events = fn(*args)
    elapsed = time.perf_counter() - t0
    return events / elapsed


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def timer_churn(n_procs: int = 32, n_events: int = N_EVENTS) -> int:
    """Many processes suspending on plain timeouts in a tight loop."""
    sim = Simulator()
    per_proc = n_events // n_procs

    def ticker(period):
        for _ in range(per_proc):
            yield period

    for i in range(n_procs):
        sim.process(ticker(1.0 + 0.1 * i), name=f"tick{i}")
    sim.run()
    return n_procs * per_proc


class _Server:
    """A callback server fed through a deque: an idle server leaves one
    waiter callback that the next put calls (``IioBuffer.take``)."""

    def __init__(self, sim: Simulator, service: float):
        self.sim = sim
        self.service = service
        self.items: deque = deque()
        self.waiter = None
        self._next()

    def put(self, item) -> None:
        if self.waiter is None:
            self.items.append(item)
        else:
            self.waiter = None
            self._serve(item)

    def _next(self) -> None:
        if self.items:
            self._serve(self.items.popleft())
        else:
            self.waiter = self._serve

    def _serve(self, _item) -> None:
        self.sim.call_later(self.service, self._next)


def producer_consumer(n_pairs: int = 8, n_events: int = N_EVENTS) -> int:
    """Producer processes feeding idle callback servers through a deque."""
    sim = Simulator()
    per_pair = n_events // (2 * n_pairs)  # 2 kernel events per item

    def producer(server):
        for i in range(per_pair):
            server.put(i)
            yield 1.5

    for i in range(n_pairs):
        sim.process(producer(_Server(sim, 1.0)), name=f"prod{i}")
    sim.run()
    return 2 * n_pairs * per_pair


def callback_chain(n_chains: int = 16, n_events: int = N_EVENTS) -> int:
    """Self-rescheduling plain callables (the ``call_later`` idiom)."""
    sim = Simulator()
    per_chain = n_events // n_chains
    call_later = sim.call_later

    remaining = [per_chain] * n_chains

    def make_tick(idx, period):
        def tick():
            remaining[idx] -= 1
            if remaining[idx] > 0:
                call_later(period, tick)
        return tick

    for i in range(n_chains):
        call_later(0.5 * (i + 1), make_tick(i, 1.0 + 0.01 * i))
    sim.run()
    return n_chains * per_chain


WORKLOADS = {
    "timer_churn": timer_churn,
    "producer_consumer": producer_consumer,
    "callback_chain": callback_chain,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_all() -> dict:
    results = {}
    for name, fn in WORKLOADS.items():
        rate = _bench(fn)
        results[name] = round(rate, 1)
    return results


def write_json(results: dict) -> None:
    payload = {
        "bench": "engine_hotpath",
        "n_events": N_EVENTS,
        "python": sys.version.split()[0],
        "cores": len(os.sched_getaffinity(0)),
        "events_per_sec": results,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")


def main() -> int:
    results = run_all()
    for name, rate in results.items():
        print(f"{name:<20} {rate:>12,.0f} events/sec")
    write_json(results)
    print(f"wrote {BENCH_PATH}")
    return 0


# ---------------------------------------------------------------------------
# Pytest entry points (non-gating smoke: loose floors only)
# ---------------------------------------------------------------------------

def test_timer_churn_smoke():
    assert _bench(timer_churn, 32, 20_000) > FLOOR


def test_producer_consumer_smoke():
    assert _bench(producer_consumer, 8, 20_000) > FLOOR


def test_callback_chain_smoke():
    assert _bench(callback_chain, 16, 20_000) > FLOOR


if __name__ == "__main__":
    sys.exit(main())
