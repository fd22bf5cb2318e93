"""Experiment registry: one entry per paper figure/table.

Every experiment is an :class:`ExperimentSpec` with one contract:
``points(quick, seed)`` lists its independent simulation points (each
naming its picklable worker, ``run_point(params, seed)``), and
``collect(results, quick, seed)`` turns the ``point_id -> value`` mapping
into rows + shape checks. ``repro.runner`` executes the points across a
process pool and a result cache; :func:`run_experiment` runs the same
points serially, so results are bit-identical for any ``--jobs`` value.
Run from the command line::

    python -m repro.experiments fig09
    python -m repro.experiments all --full --jobs 8
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..runner.sweep import run_points_serial
from . import (
    ablations,
    capacity,
    chaos,
    dynamic,
    fig09,
    fig11,
    fig12,
    incast,
    lessons,
    limits,
    shard_chaos,
    soak,
    table2,
    table3,
    table4,
)
from .report import ExperimentResult, ShapeCheck, render_table

__all__ = ["EXPERIMENTS", "ExperimentSpec", "run_experiment",
           "ExperimentResult", "ShapeCheck", "render_table"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: how to sweep and collect one figure/table."""

    exp_id: str
    description: str
    #: ``points(quick, seed=None) -> List[Point]``.
    points: Callable
    #: ``collect(results, quick, seed=None) -> ExperimentResult``.
    collect: Callable


def _dynamic_spec(exp_id: str, description: str) -> ExperimentSpec:
    return ExperimentSpec(
        exp_id=exp_id,
        description=description,
        points=functools.partial(dynamic.points, exp_id),
        collect=functools.partial(dynamic.collect, exp_id),
    )


def _module_spec(exp_id: str, module, description: str) -> ExperimentSpec:
    return ExperimentSpec(exp_id=exp_id, description=description,
                          points=module.points, collect=module.collect)


_SPECS: List[ExperimentSpec] = [
    _dynamic_spec("fig04a",
                  "Motivation: HostCC/ShRing degrade when the flow mix "
                  "changes (dynamic flow distribution)"),
    _dynamic_spec("fig04b",
                  "Motivation: HostCC/ShRing degrade under network bursts"),
    _module_spec("fig09", fig09,
                 "Throughput & LLC miss rate vs packet size, static load"),
    _dynamic_spec("fig10a",
                  "End-to-end dynamic flow distribution, CEIO included"),
    _dynamic_spec("fig10b", "End-to-end network burst, CEIO included"),
    _module_spec("fig11", fig11,
                 "CEIO fast/slow path bandwidth vs raw ib_write_bw"),
    _module_spec("fig12", fig12,
                 "Aggregate throughput under UD flow churn (512B echo)"),
    _module_spec("capacity", capacity,
                 "SLO-preserving capacity search (open-loop demand) + "
                 "flash-crowd admission/shedding guardrails "
                 "(repro.demand)"),
    _module_spec("incast", incast,
                 "Incast fan-in sweep: N clients x arch on the star "
                 "topology (repro.topo / repro.scenario)"),
    _module_spec("table2", table2,
                 "P99/P99.9 latency under the 512B echo workload"),
    _module_spec("table3", table3,
                 "Fast/slow path latency vs raw RDMA write (ib_write_lat)"),
    _module_spec("table4", table4,
                 "Mixed involved/bypass flows with CEIO ablations"),
    _module_spec("limits", limits,
                 "Scenarios with limited benefit: low pressure & jumbo"),
    _module_spec("ablations", ablations,
                 "Design-choice ablations (credit release, exclusivity, "
                 "cache model)"),
    _module_spec("chaos", chaos,
                 "Chaos suite: goodput retention and recovery under "
                 "injected faults (repro.faults)"),
    _module_spec("shard_chaos", shard_chaos,
                 "Shard chaos suite: fault plans, cut-link channel "
                 "faults and worker kills under sharded execution, "
                 "gated on byte identity (repro.shard)"),
    _module_spec("soak", soak,
                 "Randomized invariant soak: sampled scenario x arch x "
                 "fault plans gated on conservation (repro.audit)"),
    _module_spec("lessons", lessons,
                 "§6.4 lessons: zero-copy necessity & transport "
                 "agnosticism"),
]

EXPERIMENTS: Dict[str, ExperimentSpec] = {s.exp_id: s for s in _SPECS}


def run_experiment(exp_id: str, quick: bool = True,
                   seed: Optional[int] = None) -> ExperimentResult:
    try:
        spec = EXPERIMENTS[exp_id]
    except KeyError:
        raise ValueError(f"unknown experiment {exp_id!r}; "
                         f"choose from {sorted(EXPERIMENTS)}") from None
    return spec.collect(run_points_serial(spec.points(quick, seed)),
                        quick, seed)
