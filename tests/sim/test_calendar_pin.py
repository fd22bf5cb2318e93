"""Calendar pins for the per-packet fast paths.

The NIC receive path, the eRPC server and the DCTCP message path each
have a plain-call fast path and a waiting tail, and both must push
exactly the calendar entries the all-generator code pushed. A change
that adds or drops one entry (a "take now" that skips a wait, say) may
leave a coarse result unchanged, so each architecture's short run pins
two things: the digest of its result and the number of calendar entries
its kernel executed. The values were captured on the all-generator code.
Re-pin only for a deliberate model change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads import compile_scenario, two_host_spec

#: arch -> (sha256 of the sorted result JSON, sim.events_executed).
PINS = {
    "ceio": (
        "81d83f5301e7e83fe82208b86a288fc2ee60dd3762e5d207549c285cbf587a6e",
        53953),
    "baseline": (
        "b4b1a2c12d23fcc268466900455bf655a5b3865a7986b8875cd8852a470394ed",
        70749),
    "hostcc": (
        "5f44dd3f33208f939b798cc85f38568e9feaea22d44d7f18c3ac364de10b4fcc",
        80508),
    "mpq": (
        "e301a5ecabc3aa4f5ffff9dc9754fc47661e0144580e06c0185bcfe260ba8cf8",
        23463),
    "shring": (
        "d3d4ac6104da675aff44ebe065612cb8dae978f03b0d61a8bcb1c4d57c0cc1b8",
        37481),
}


def _run(arch: str):
    """8 KV flows of 144 B requests, 32 outstanding each, on a testbed
    with an eighth of the LLC: 80 us of simulated time."""
    spec = two_host_spec(
        [{"name": "kv", "workload": "kvstore", "flows": 8, "payload": 144,
          "outstanding": 32}],
        seed=3, arch=arch, scale=8, warmup_us=30.0, duration_us=50.0)
    scenario = compile_scenario(spec)
    result = scenario.run()
    digest = hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()
    return digest, scenario.fabric.sim.events_executed


@pytest.mark.parametrize("arch", sorted(PINS))
def test_calendar_is_pinned(arch):
    assert _run(arch) == PINS[arch]
