"""Per-layer attribution of a cProfile run of the simulator.

Every module of the ``repro`` package belongs to exactly one layer of
:data:`LAYERS` (``test_layers.py`` enforces this, so a new module cannot
fall into ``other`` unnoticed). :func:`attribute` turns the raw
``cProfile.Profile.stats`` of a traced run into, per layer:

- ``self_s``: self time of the layer's functions, plus the self time of
  code outside ``repro`` (C builtins, the standard library) charged to
  the ``repro`` layer that called it, split by the callers' shares;
- ``calls``: calls into the layer's public functions (names that do not
  start with ``_`` or ``<``), an exact count for a deterministic run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "MODULE_LAYER", "attribute",
           "module_name"]

#: Layer name -> the ``repro`` modules in it (package ``__init__``
#: modules under their package's name).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("repro.sim.engine",),
    "sim.resources": ("repro.sim.resources",),
    "sim.stats": ("repro.sim.stats",),
    "net.dctcp": ("repro.net.dctcp",),
    "net.link": ("repro.net.link",),
    "net.packet": ("repro.net.packet",),
    "net.source": ("repro.net.source",),
    "topo": ("repro.topo", "repro.topo.builders", "repro.topo.fabric",
             "repro.topo.graph", "repro.topo.partition",
             "repro.net.fabric"),
    "hw.nic": ("repro.hw.nic",),
    "hw.pcie": ("repro.hw.pcie",),
    "hw.iio": ("repro.hw.iio",),
    "hw.memctrl": ("repro.hw.memctrl",),
    "hw.dram": ("repro.hw.dram",),
    "hw.cache": ("repro.hw.cache",),
    "hw.cpu": ("repro.hw.cpu",),
    "core.runtime": ("repro.core.runtime",),
    "core.sw_ring": ("repro.core.sw_ring",),
    "core.elastic_buffer": ("repro.core.elastic_buffer",),
    "core.steering": ("repro.core.steering",),
    "core.credit": ("repro.core.credit",),
    "core.driver": ("repro.core.driver",),
    "core.admission": ("repro.core.admission",),
    "io_arch": ("repro.io_arch", "repro.io_arch.base",
                "repro.io_arch.hostcc", "repro.io_arch.legacy",
                "repro.io_arch.mpq", "repro.io_arch.shring"),
    "apps": ("repro.apps", "repro.apps.dperf", "repro.apps.echo",
             "repro.apps.erpc", "repro.apps.kvstore", "repro.apps.linefs",
             "repro.apps.perftest", "repro.frameworks",
             "repro.frameworks.dpdk", "repro.frameworks.rdma"),
    "demand": ("repro.demand", "repro.demand.arrivals",
               "repro.demand.profiles", "repro.demand.source"),
    "workloads": ("repro.workloads", "repro.workloads.churn",
                  "repro.workloads.generators", "repro.workloads.measure",
                  "repro.workloads.scenarios", "repro.workloads.slo",
                  "repro.workloads.topo_scenario", "repro.scenario",
                  "repro.scenario.__main__", "repro.scenario.cli",
                  "repro.scenario.schema", "repro.scenario.templates"),
    "audit": ("repro.audit", "repro.audit.ledger", "repro.audit.merge",
              "repro.audit.reconcile", "repro.audit.wiring"),
    "shard": ("repro.shard", "repro.shard.channel",
              "repro.shard.coordinator", "repro.shard.kernel"),
    "runner": ("repro.runner", "repro.runner.cache", "repro.runner.cli",
               "repro.runner.pool", "repro.runner.progress",
               "repro.runner.shardjournal", "repro.runner.shardpool",
               "repro.runner.sweep"),
    # Package fronts, configuration and tooling: construction-time or
    # offline code with no per-packet work.
    "other": ("repro", "repro.sim", "repro.sim.rng", "repro.sim.trace",
              "repro.sim.units", "repro.net", "repro.hw", "repro.hw.config",
              "repro.hw.host", "repro.core", "repro.core.config",
              "repro.faults", "repro.faults.injectors", "repro.faults.plan",
              "repro.experiments", "repro.experiments.__main__",
              "repro.experiments.ablations", "repro.experiments.capacity",
              "repro.experiments.chaos", "repro.experiments.dynamic",
              "repro.experiments.fig09", "repro.experiments.fig11",
              "repro.experiments.fig12", "repro.experiments.incast",
              "repro.experiments.lessons", "repro.experiments.limits",
              "repro.experiments.report", "repro.experiments.shard_chaos",
              "repro.experiments.soak", "repro.experiments.table2",
              "repro.experiments.table3", "repro.experiments.table4",
              "repro.lint", "repro.lint.__main__", "repro.lint.cli",
              "repro.lint.config", "repro.lint.core", "repro.lint.detect",
              "repro.lint.project", "repro.lint.suppress",
              "repro.lint.rules", "repro.lint.rules.engine_idioms",
              "repro.lint.rules.ordering", "repro.lint.rules.registry",
              "repro.lint.rules.rng", "repro.lint.rules.shard",
              "repro.lint.rules.state", "repro.lint.rules.taint",
              "repro.lint.rules.wallclock"),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

MODULE_LAYER: Dict[str, str] = {
    module: layer for layer, modules in LAYERS.items() for module in modules}


def module_name(path: Path, src: Path) -> Optional[str]:
    """The dotted module name of ``path`` under the ``src`` directory, or
    None when the file is not part of the ``repro`` package."""
    try:
        parts = list(path.resolve().relative_to(src.resolve()).parts)
    except ValueError:
        return None
    if not parts or parts[0] != "repro" or not parts[-1].endswith(".py"):
        return None
    parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def attribute(stats: Mapping, src: Path) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s": ..., "calls": ...}}`` for every layer, from
    ``cProfile.Profile.stats`` (``{(file, line, name): (cc, nc, tt, ct,
    callers)}``; each ``callers`` value is ``(nc, cc, tt, ct)``)."""
    file_layer: Dict[str, Optional[str]] = {}

    def layer_of(func) -> Optional[str]:
        filename = func[0]
        if filename not in file_layer:
            module = (None if filename.startswith(("~", "<"))
                      else module_name(Path(filename), src))
            file_layer[filename] = (None if module is None
                                    else MODULE_LAYER.get(module, "other"))
        return file_layer[filename]

    shares: Dict[tuple, Dict[str, float]] = {}

    def split(func, active) -> Dict[str, float]:
        """How ``func``'s self time divides between layers."""
        layer = layer_of(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = stats[func][4] if func in stats else {}
        if func in active or not callers:
            return {"other": 1.0}
        active.add(func)
        weights = {caller: sub[2] for caller, sub in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {caller: float(sub[0]) for caller, sub in callers.items()}
        total = sum(weights.values()) or 1.0
        out: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, share in split(caller, active).items():
                out[name] = out.get(name, 0.0) + share * weight / total
        active.discard(func)
        shares[func] = out
        return out

    result = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        for name, share in split(func, set()).items():
            result[name]["self_s"] += tt * share
        layer = layer_of(func)
        if layer is not None and not func[2].startswith(("_", "<")):
            result[layer]["calls"] += nc
    return result
