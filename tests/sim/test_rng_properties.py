"""Property tests for RngRegistry, plus the seed-plumbing regression test
for the architectures that draw randomness (HostCC, ShRing).

The Hypothesis suite pins the substream discipline the experiments rely
on: named streams are independent, stable under creation order, and fully
determined by ``(root_seed, name)``.
"""

from __future__ import annotations

import pytest

from repro.hw import HostConfig
from repro.io_arch import HostccArch, ShringArch
from repro.net import Flow, FlowKind
from repro.sim import RngRegistry
from tests.conftest import host_endpoint

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev extra
    HAVE_HYPOTHESIS = False

pytestmark = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
NAMES = st.text(
    alphabet=st.characters(codec="ascii", exclude_characters=":/"),
    min_size=1, max_size=40)


def draws(rng, n=8):
    return [rng.random() for _ in range(n)]


# ---------------------------------------------------------------------------
# substream discipline
# ---------------------------------------------------------------------------

@given(seed=SEEDS, a=NAMES, b=NAMES)
@settings(max_examples=50, deadline=None)
def test_distinct_names_give_independent_streams(seed, a, b):
    if a == b:
        return
    reg = RngRegistry(seed)
    assert draws(reg.stream(a)) != draws(reg.stream(b))


@given(seed=SEEDS, a=NAMES, b=NAMES)
@settings(max_examples=50, deadline=None)
def test_streams_stable_under_creation_order(seed, a, b):
    if a == b:
        return
    forward = RngRegistry(seed)
    fa = draws(forward.stream(a))
    fb = draws(forward.stream(b))
    backward = RngRegistry(seed)
    ba = draws(backward.stream(b))
    bb = draws(backward.stream(a))
    assert fa == bb and fb == ba


@given(seed=SEEDS, name=NAMES)
@settings(max_examples=50, deadline=None)
def test_same_seed_and_name_reproduce_exactly(seed, name):
    assert draws(RngRegistry(seed).stream(name)) \
        == draws(RngRegistry(seed).stream(name))


@given(seed=SEEDS, name=NAMES)
@settings(max_examples=50, deadline=None)
def test_stream_is_cached_per_registry(seed, name):
    reg = RngRegistry(seed)
    assert reg.stream(name) is reg.stream(name)


@given(seed=SEEDS, child=NAMES, name=NAMES)
@settings(max_examples=50, deadline=None)
def test_spawn_is_stable_and_independent_of_parent(seed, child, name):
    parent = RngRegistry(seed)
    assert parent.spawn(child).root_seed == parent.spawn(child).root_seed
    expected = draws(parent.spawn(child).stream(name))
    assert draws(parent.spawn(child).stream(name)) == expected
    # Consuming parent streams does not disturb freshly spawned children.
    draws(parent.stream(name))
    assert draws(parent.spawn(child).stream(name)) == expected


@given(seed=SEEDS, a=NAMES, b=NAMES)
@settings(max_examples=50, deadline=None)
def test_spawn_distinct_names_differ(seed, a, b):
    if a == b:
        return
    parent = RngRegistry(seed)
    assert parent.spawn(a).root_seed != parent.spawn(b).root_seed


# ---------------------------------------------------------------------------
# seed plumbing: the architectures that draw randomness
# ---------------------------------------------------------------------------

def _arch_stream(arch_cls, seed):
    """Build ``arch_cls`` on a seeded testbed host and sample its RNG
    stream."""
    bed = host_endpoint(HostConfig(), seed=seed)
    arch = arch_cls(bed.host)
    if arch_cls is ShringArch:  # per-flow guard streams
        flow = Flow(FlowKind.CPU_INVOLVED, flow_id=990_101)
        arch.register_flow(flow)
        return draws(arch._guard_streams[flow.flow_id])
    return draws(arch._rng)


@pytest.mark.parametrize("arch_cls", [HostccArch, ShringArch])
def test_seed_perturbs_architecture_randomness(arch_cls):
    """Different --seed values must reach HostCC's ECN jitter and ShRing's
    guard sampling (they used fixed-seed private Randoms before the
    RngRegistry migration, so --seed silently did not perturb them)."""
    assert _arch_stream(arch_cls, seed=1) != _arch_stream(arch_cls, seed=2)
    assert _arch_stream(arch_cls, seed=1) == _arch_stream(arch_cls, seed=1)


def test_architecture_streams_are_named_registry_streams():
    bed = host_endpoint(HostConfig(), seed=11)
    hostcc = HostccArch(bed.host)
    shring = ShringArch(bed.host)
    assert hostcc._rng is bed.rng.stream("hostcc.ecn")
    # ShRing assigns each registered flow its own guard stream off the
    # host registry (decorrelates concurrent flows' mark decisions),
    # keyed by registration ordinal so the global flow-id counter cannot
    # leak into the draws.
    a = Flow(FlowKind.CPU_INVOLVED, flow_id=990_201)
    b = Flow(FlowKind.CPU_INVOLVED, flow_id=990_202)
    shring.register_flow(a)
    shring.register_flow(b)
    assert shring._guard_streams[a.flow_id] \
        is bed.rng.stream("shring.guard.0")
    assert shring._guard_streams[b.flow_id] \
        is bed.rng.stream("shring.guard.1")
    assert shring._guard_streams[a.flow_id] \
        is not shring._guard_streams[b.flow_id]
