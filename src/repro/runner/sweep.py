"""Declarative sweeps: parameter grids, simulation points, stable IDs.

A *point* is one independent simulation: a worker function (referenced as
``"module:attr"`` so any process can resolve it), a JSON-serialisable
parameter dict, and the seed its testbed will use. Everything downstream
— the worker pool, the result cache, the progress log — operates on
points, never on experiment internals.

Point identity is structural: ``content_key`` hashes the worker reference
plus the canonical JSON of the parameters, so the same simulation reached
from two different experiments (e.g. Fig. 4a's HostCC trajectory, which
Fig. 10a also needs) is one point, executed once and cached once.

Seeds and determinism: with no explicit root seed every point uses its
experiment's legacy default, reproducing the calibrated tables bit for
bit. With ``--seed N`` each point draws its own substream via
``RngRegistry(N).spawn(content_id)`` — independent streams per point, yet
bit-identical results for any ``--jobs`` value, because a point's seed
depends only on *what it computes*, never on scheduling order.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from ..sim.rng import RngRegistry

__all__ = ["Point", "grid", "canonical_params", "content_id", "make_point",
           "resolve_worker", "derive_seed", "run_points_serial"]


def canonical_params(params: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def content_id(fn: str, params: Mapping[str, Any]) -> str:
    """Short structural digest of (worker, params) — seed-independent."""
    digest = hashlib.sha256(
        f"{fn}|{canonical_params(params)}".encode()).hexdigest()
    return digest[:12]


def derive_seed(root_seed: int, fn: str, params: Mapping[str, Any]) -> int:
    """Per-point substream seed for an explicit root seed (see module doc)."""
    spawn_key = f"{fn}#{content_id(fn, params)}"
    return RngRegistry(root_seed).spawn(spawn_key).root_seed


@dataclass(frozen=True)
class Point:
    """One independent simulation point of a sweep."""

    exp_id: str
    #: Worker reference, ``"package.module:function"``.
    fn: str
    #: JSON-serialisable parameters; fully determine the computation
    #: together with ``seed``.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The simulation's root seed (``None`` = the worker's own default).
    seed: Optional[int] = None
    #: Human-readable suffix for progress lines (not part of identity).
    label: str = ""
    #: Canonical JSON of the point's fault plan (``FaultPlan.canonical()``),
    #: "" for healthy points. Part of identity: a cached healthy result
    #: must never be served for a faulted run, even if the worker reads the
    #: plan from ``params`` and an older cache entry predates the field.
    faults: str = ""
    #: Canonical JSON of the point's scenario spec
    #: (``repro.scenario.canonical()``), "" for hand-built scenarios.
    #: Part of identity for the same reason as ``faults``: a result
    #: computed for one declarative scenario must never be served for
    #: another, while hand-built points keep their historical keys.
    scenario: str = ""

    @property
    def content_key(self) -> str:
        """Cross-experiment identity: same worker+params+seed = same point.

        Healthy hand-built points keep the historical three-field format,
        so every pre-faults / pre-scenario cache entry and golden key
        stays valid byte for byte.
        """
        key = f"{self.fn}|{canonical_params(self.params)}|{self.seed}"
        if self.faults:
            key += f"|faults={self.faults}"
        if self.scenario:
            key += f"|scenario={self.scenario}"
        return key

    @property
    def point_id(self) -> str:
        return f"{self.exp_id}/{self.label or content_id(self.fn, self.params)}"

    def pretty(self) -> str:
        return f"{self.exp_id}/{self.label}" if self.label else self.point_id


def make_point(exp_id: str, fn: str, params: Mapping[str, Any],
               root_seed: Optional[int], default_seed: Optional[int],
               label: str = "", faults: str = "",
               scenario: str = "") -> Point:
    """Build a point, resolving its seed per the determinism contract."""
    if root_seed is None:
        seed = default_seed
    else:
        seed = derive_seed(root_seed, fn, params)
    return Point(exp_id=exp_id, fn=fn, params=dict(params), seed=seed,
                 label=label, faults=faults, scenario=scenario)


def grid(**axes: Iterable[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes, in axis-declaration order.

    >>> grid(arch=["a", "b"], size=[1, 2])
    [{'arch': 'a', 'size': 1}, {'arch': 'a', 'size': 2},
     {'arch': 'b', 'size': 1}, {'arch': 'b', 'size': 2}]
    """
    names = list(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(list(axes[n]) for n in names))]


def resolve_worker(fn: str) -> Callable[[Mapping[str, Any], Optional[int]], Any]:
    """Import and return the worker behind a ``"module:attr"`` reference."""
    module_name, _, attr = fn.partition(":")
    if not module_name or not attr:
        raise ValueError(f"worker reference must be 'module:attr', got {fn!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise AttributeError(
            f"module {module_name!r} has no worker {attr!r}") from None


def run_points_serial(points: Iterable[Point]) -> Dict[str, Any]:
    """Execute points in-process, in order — the ``--jobs 1`` reference
    path and the substrate for :func:`repro.experiments.run_experiment`."""
    from ..audit import drain_reports
    results: Dict[str, Any] = {}
    done: Dict[str, Any] = {}  # content_key -> value (intra-sweep dedupe)
    for point in points:
        if point.content_key not in done:
            worker = resolve_worker(point.fn)
            done[point.content_key] = worker(dict(point.params), point.seed)
            # Point boundary: clear the conservation-audit mailbox so the
            # in-process path never accumulates reports across points.
            drain_reports()
        results[point.point_id] = done[point.content_key]
    return results
