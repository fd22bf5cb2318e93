"""Shared pieces of the scenario builder (:mod:`repro.workloads.topo_scenario`).

The paper's evaluation (§2.3, §6) is traffic mixes into one receiver on
a two-server testbed: :func:`two_host_spec` writes that testbed as a
scenario spec, which :func:`~repro.workloads.topo_scenario.compile_scenario`
wires and runs. The rest of this module is what the builder (and
:mod:`repro.shard`) share: the scaled host, the per-host architecture,
the client stagger draw, the audited run loop and the arch's extras.

Experiments run on a *scaled* host by default (LLC divided by
``scale``): every capacity relationship of the paper's testbed is
preserved (baseline rings exceed the DDIO partition, ShRing's shared ring
stays below it, CEIO's credit pool equals it) while steady state arrives
``scale``-times sooner — essential for a packet-level simulation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..audit import Reconciler, record_report
from ..core import CeioConfig
from ..hw import CacheConfig, CpuConfig, HostConfig
from ..io_arch import build_arch
from ..io_arch.shring import ShringConfig
from ..sim import Simulator
from ..sim.units import MIB, US

__all__ = ["two_host_spec", "scaled_host_config", "shring_entries_for"]


def two_host_spec(tenants: List[Dict[str, Any]], *, seed: int = 0,
                  warmup_us: float = 400.0, duration_us: float = 600.0,
                  fault_plan: Sequence[Dict[str, Any]] = (),
                  **host: Any) -> Dict[str, Any]:
    """A scenario spec on the paper's two-server testbed: ``tenants``
    send from the ``two_host`` topology's client into its one receiver,
    whose ``hosts.*`` entry is ``host`` (``arch``, ``scale``, ``ceio``,
    ...). Run it with ``compile_scenario(spec).run_measure()["host"]``."""
    return {
        "version": 1,
        "seed": seed,
        "topology": {"kind": "two_host"},
        "hosts": {"*": host},
        "tenants": tenants,
        "fault_plan": list(fault_plan),
        "measure": {"warmup_us": warmup_us, "duration_us": duration_us},
    }


def scaled_host_config(scale: int = 4, set_associative: bool = False,
                       io_buf_size: int = 2048,
                       cores: Optional[int] = None) -> HostConfig:
    """The paper's testbed with the LLC divided by ``scale``.

    Only the cache shrinks: link, PCIe, DRAM, and ring sizes keep their
    real values, so the *pressure relationships* (rings vs DDIO capacity,
    shared ring vs DDIO capacity, credits vs DDIO capacity) are identical
    to the full-size testbed while transients are ``scale`` x shorter.
    ``cores`` widens the receiver's core pool beyond the testbed's 16
    (wide-fan-in scenarios dedicate one eRPC core per incoming flow);
    ``None`` keeps the default.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    cache = CacheConfig(size=12 * MIB // scale,
                        set_associative=set_associative)
    config = HostConfig(cache=cache, io_buf_size=io_buf_size)
    if cores is not None:
        config.cpu = CpuConfig(cores=cores)
    return config


def shring_entries_for(host_config: HostConfig) -> int:
    """ShRing's ring size rule from the paper's eval: 4096 entries under a
    12 MB LLC, i.e. two thirds of LLC-capacity-in-buffers."""
    return (host_config.cache.size // host_config.io_buf_size) * 2 // 3


def build_host_arch(arch: str, host, host_config: HostConfig,
                    ceio: Optional[CeioConfig] = None):
    """One host's I/O architecture: ShRing's ring sized by
    :func:`shring_entries_for`, CEIO under ``ceio`` when given, anything
    else at its defaults."""
    if arch == "shring":
        return build_arch("shring", host, config=ShringConfig(
            ring_entries=shring_entries_for(host_config)))
    if arch == "ceio" and ceio is not None:
        return build_arch("ceio", host, config=ceio)
    return build_arch(arch, host)


def client_stagger(rng) -> float:
    """Client threads come up a few microseconds apart, not in lockstep:
    one draw from ``rng``'s ``client-stagger`` stream (a host's RNG
    namespace)."""
    return rng.stream("client-stagger").uniform(0, 20_000.0)


#: Interval between mid-run conservation barriers under
#: ``REPRO_SIM_DEBUG=1``, ns.
AUDIT_BARRIER_NS = 50 * US


def run_audited(sim: Simulator, reconciler: Optional[Reconciler],
                until: float) -> None:
    """Advance ``sim`` to ``until``, reconciling at periodic barriers
    when the debug sanitizer is on.

    The barrier checks run from *outside* the event loop — between
    ``sim.run()`` chunks, never as an injected process — so debug mode
    keeps its contract of changing no results, only adding checks.
    """
    if reconciler is None or not sim.debug:
        sim.run(until=until)
        return
    while True:
        step_until = min(until, sim.now + AUDIT_BARRIER_NS)
        sim.run(until=step_until)
        report = reconciler.check(now=sim.now, barrier_only=True)
        if not report.ok:
            record_report(report)
        if step_until >= until:
            return


def arch_extras(arch) -> Dict[str, float]:
    """The architecture's path counters, for ``Measurement.extras``."""
    extras: Dict[str, float] = {}
    for attr in ("fast_packets", "slow_packets", "overdraft",
                 "ring_full_drops", "guard_marks", "congestion_events"):
        count = getattr(arch, attr, None)
        if count is not None:
            extras[attr] = count
    if hasattr(arch, "fast_fraction"):
        extras["fast_fraction"] = arch.fast_fraction()
    return extras
