"""Workloads: generators, measurement windows, and paper scenarios."""

from .generators import (
    FixedSize,
    LognormalSize,
    LongTailSize,
    UniformSize,
    pareto_burst_lengths,
    poisson_arrivals,
)
from .churn import ChurnConfig, ChurnResult, UdChurnScenario
from .measure import FlowMetrics, Measurement, MeasurementWindow
from .scenarios import scaled_host_config, shring_entries_for, two_host_spec
from .topo_scenario import TopoScenario, compile_scenario

__all__ = [
    "FixedSize", "LognormalSize", "LongTailSize", "UniformSize",
    "pareto_burst_lengths", "poisson_arrivals",
    "ChurnConfig", "ChurnResult", "UdChurnScenario",
    "FlowMetrics", "Measurement", "MeasurementWindow",
    "scaled_host_config", "shring_entries_for", "two_host_spec",
    "TopoScenario", "compile_scenario",
]
