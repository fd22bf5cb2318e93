"""Declarative fault plans: what breaks, where, when, and how badly.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries. Each spec
names an injection *site* (an existing simulator layer), a fault *kind*
the site supports, an onset time, a duration, a magnitude, and — for
stochastic faults — the name of the :class:`~repro.sim.rng.RngRegistry`
stream its draws come from. The plan itself is pure data: it is JSON
round-trippable, so it can ride inside a runner point's params (and its
cache key) and be reconstructed bit-identically inside a pool worker.

Compilation into live injector processes is :mod:`repro.faults.injectors`'
job; this module never touches the simulator.

Determinism contract (see ``docs/FAULTS.md``): every stochastic fault
draws from a named stream of the testbed's seeded registry, so a plan plus
a ``--seed`` fully determines every injected event — independent of
``--jobs`` scheduling, wall clock, or process layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["FAULT_SITES", "CHANNEL_SITE", "FaultSpec", "FaultPlan"]

#: site -> fault kinds it supports.
FAULT_SITES: Dict[str, Tuple[str, ...]] = {  # repro: noqa=D106 -- registry, never mutated
    "net.link": ("loss", "burst_loss", "corrupt"),
    "net.channel": ("loss", "latency"),
    "hw.pcie": ("stall", "latency"),
    "hw.nic": ("dma_stall", "descriptor_drop"),
    "hw.cache": ("ddio_reconfig",),
    "hw.cpu": ("slowdown",),
    "apps": ("crash_restart",),
}

#: The one site injected at the shard coordinator's channel layer
#: (:mod:`repro.shard.channel`) rather than compiled into a per-host
#: :class:`~repro.faults.injectors.FaultController`. Under ``--shards 1``
#: there are no cut links, so these specs are declared no-ops.
CHANNEL_SITE = "net.channel"


def _canonical_value(value: Any) -> Any:
    """JSON-stable representation (floats stay floats; ints stay ints)."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    raise TypeError(f"fault param values must be scalars, got {value!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: site + kind + window + magnitude (+ optional filters).

    ``magnitude`` is kind-specific: a probability for ``loss`` /
    ``burst_loss`` / ``corrupt`` / ``descriptor_drop``, extra nanoseconds
    for ``latency``, the residual-bandwidth fraction for ``stall``, the
    remaining DDIO fraction for ``ddio_reconfig``, and the execution-time
    multiplier for ``slowdown``. ``flow`` filters the fault to one flow by
    *name* where the site supports it. ``params`` carries kind-specific
    extras as a sorted tuple of (key, value) pairs so specs stay hashable.
    """

    site: str
    kind: str
    start: float = 0.0
    duration: float = math.inf
    magnitude: float = 1.0
    flow: Optional[str] = None
    #: Override for the RNG stream name (default: ``faults.<i>.<site>.<kind>``).
    stream: str = ""
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    #: Target host for multi-host fabrics (:mod:`repro.topo`): the fault
    #: is injected at that server's endpoint. ``None`` — the only value
    #: meaningful on the single-host ``two_host()`` fabric — targets the
    #: fabric's first (primary) server and keeps the canonical JSON
    #: byte-identical to pre-multi-host plans, so historical cache keys
    #: never move.
    host: Optional[str] = None

    def __post_init__(self):
        kinds = FAULT_SITES.get(self.site)
        if kinds is None:
            raise ValueError(f"unknown fault site {self.site!r}; "
                             f"choose from {sorted(FAULT_SITES)}")
        if self.kind not in kinds:
            raise ValueError(f"site {self.site!r} supports {kinds}, "
                             f"not {self.kind!r}")
        if self.start < 0:
            raise ValueError("fault start must be >= 0")
        if not self.duration > 0:
            raise ValueError("fault duration must be positive")
        if self.magnitude < 0:
            raise ValueError("fault magnitude must be >= 0")
        if self.site == CHANNEL_SITE:
            # Channel faults address cut links, which belong to no host
            # and carry whole messages, not flow-tagged packets.
            if self.host is not None:
                raise ValueError(
                    "net.channel faults target shard-boundary links, "
                    "not hosts; drop the host qualifier")
            if self.flow is not None:
                raise ValueError(
                    "net.channel faults apply per channel message and "
                    "do not support flow filters")
            if not self.finite:
                raise ValueError(
                    "net.channel faults need a finite duration")
        params = self.params
        if isinstance(params, Mapping):
            params = params.items()
        normalised = tuple(sorted(
            (str(k), _canonical_value(v)) for k, v in params))
        object.__setattr__(self, "params", normalised)

    # ------------------------------------------------------------------
    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @property
    def finite(self) -> bool:
        return math.isfinite(self.duration)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (an unbounded duration becomes ``None``).

        ``host`` is emitted only when set: single-host plans keep their
        historical serialisation (and thus ``FaultPlan.canonical()``
        output and every derived cache key) byte for byte.
        """
        data = {
            "site": self.site,
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration if self.finite else None,
            "magnitude": self.magnitude,
            "flow": self.flow,
            "stream": self.stream,
            "params": {k: v for k, v in self.params},
        }
        if self.host is not None:
            data["host"] = self.host
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        duration = data.get("duration")
        return cls(site=data["site"], kind=data["kind"],
                   start=float(data.get("start", 0.0)),
                   duration=math.inf if duration is None else float(duration),
                   magnitude=float(data.get("magnitude", 1.0)),
                   flow=data.get("flow"),
                   stream=data.get("stream", ""),
                   params=tuple((data.get("params") or {}).items()),
                   host=data.get("host"))


class FaultPlan:
    """An ordered, immutable collection of :class:`FaultSpec` entries.

    Empty plans are falsy; installing one is a guaranteed no-op (the
    golden-digest contract: fault seams add zero behaviour when unused).
    """

    __slots__ = ("specs",)

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"

    # ------------------------------------------------------------------
    def split_channel(self) -> Tuple[Tuple[FaultSpec, ...], "FaultPlan"]:
        """``(channel specs, host-site plan)`` — ``net.channel`` specs go
        to the shard coordinator's channel layer
        (:mod:`repro.shard.channel`); everything else compiles into
        per-host controllers via :meth:`split_by_host`. Spec order is
        preserved on both sides (it names the RNG streams)."""
        channel = tuple(s for s in self.specs if s.site == CHANNEL_SITE)
        hosts = FaultPlan(s for s in self.specs if s.site != CHANNEL_SITE)
        return channel, hosts

    def split_by_host(self, primary: str) -> Dict[str, "FaultPlan"]:
        """Partition the plan per target host for a multi-host fabric.

        Specs without a ``host`` qualifier go to ``primary`` (the
        fabric's first server), preserving single-host semantics. Hosts
        appear in first-mention order; empty hosts are absent.
        """
        buckets: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            buckets.setdefault(spec.host or primary, []).append(spec)
        return {host: FaultPlan(specs) for host, specs in buckets.items()}

    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        return [spec.to_dict() for spec in self.specs]

    @classmethod
    def from_dicts(cls, dicts: Iterable[Mapping[str, Any]]) -> "FaultPlan":
        return cls(FaultSpec.from_dict(d) for d in dicts)

    def canonical(self) -> str:
        """Deterministic compact JSON — the runner's ``faults=`` tag, so a
        cached healthy result can never be served for a faulted run."""
        return json.dumps(self.to_dicts(), sort_keys=True,
                          separators=(",", ":"))

    def to_json(self) -> str:
        return self.canonical()

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dicts(json.loads(text))
