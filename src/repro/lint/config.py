"""Configuration for the determinism linter.

The rules are scoped by *package*, not by path: ``src/repro/io_arch/...``
is the dotted module ``repro.io_arch...`` regardless of where the checkout
lives. Two scopes matter:

- the **repro package** (everything under ``src/repro``) — rules about
  how production code uses the kernel apply here;
- the **sim-side packages** — the subset of the repro package that runs
  *inside* a simulation and therefore must be bit-reproducible. Host-side
  orchestration (``repro.runner``, ``repro.experiments``, ``repro.lint``
  itself) may read wall clocks and use OS randomness; the simulated world
  must not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["LintConfig", "DEFAULT_CONFIG"]

#: Packages whose modules execute inside the simulated world. D102/D103/
#: D105/D106 apply only here.
SIM_PACKAGES: Tuple[str, ...] = (
    "repro.sim",
    "repro.hw",
    "repro.net",
    "repro.io_arch",
    "repro.core",
    "repro.faults",
    "repro.audit",
    "repro.apps",
    "repro.frameworks",
    "repro.workloads",
    "repro.demand",
    "repro.topo",
    "repro.scenario",
    "repro.shard",
)


@dataclass(frozen=True)
class LintConfig:
    #: Sim-side packages (prefix match on dotted module names).
    sim_packages: Tuple[str, ...] = SIM_PACKAGES
    #: Packages exempt from the wall-clock rule even if listed as
    #: sim-side in a future config: the runner runs on the host side of
    #: the wall (progress timestamps, cache mtimes) by design.
    wallclock_exempt: Tuple[str, ...] = ("repro.runner", "repro.experiments")
    #: The one module allowed to construct raw RNGs.
    rng_module: str = "repro.sim.rng"

    # -- whole-program rules (D107, D109, D111) --------------------------
    #: Modules implementing the cross-shard channel protocol. D107's
    #: structural checks (post_keyed/reserve_key placement, _wire_send
    #: installation) apply to these packages.
    shard_modules: Tuple[str, ...] = ("repro.topo", "repro.shard",
                                      "repro.sim")
    #: Methods allowed to call ``post_keyed`` (channel receivers: the
    #: only code that may schedule onto a foreign domain).
    channel_receivers: Tuple[str, ...] = ("inject_packet", "inject_ack")
    #: Functions allowed to install cross-shard emitters (assign to a
    #: ``_wire_send`` / outbox seam), directly or via helpers they call.
    channel_installers: Tuple[str, ...] = ("attach_channels",)
    #: Functions allowed to build dynamic RNG stream names (D109): the
    #: host-prefix helper and the fault controllers' per-spec streams.
    stream_helpers: Tuple[str, ...] = (
        "repro.topo.fabric.HostRng.stream",
        "repro.faults.injectors.FaultController.stream",
        "repro.shard.channel.ChannelFaultController.stream",
    )

    def is_repro(self, package: str) -> bool:
        return package == "repro" or package.startswith("repro.")

    def is_sim_side(self, package: str) -> bool:
        return any(package == p or package.startswith(p + ".")
                   for p in self.sim_packages)

    def is_wallclock_exempt(self, package: str) -> bool:
        return any(package == p or package.startswith(p + ".")
                   for p in self.wallclock_exempt)

    def is_shard_module(self, package: str) -> bool:
        return any(package == p or package.startswith(p + ".")
                   for p in self.shard_modules)


DEFAULT_CONFIG = LintConfig()
