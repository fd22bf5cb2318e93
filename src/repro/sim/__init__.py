"""Discrete-event simulation kernel used by all device and network models."""

from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    SimulationError,
    Timeout,
)
from .resources import Container, Resource, Store, TokenBucket
from .rng import RngRegistry
from .trace import NullTracer, TraceEvent, Tracer
from .stats import Histogram, RateMeter, TimeWeightedGauge
from . import units

__all__ = [
    "Simulator", "Event", "Timeout", "Process", "Interrupt",
    "AnyOf", "AllOf", "SimulationError",
    "Store", "Container", "Resource", "TokenBucket",
    "RngRegistry",
    "TimeWeightedGauge", "Histogram", "RateMeter",
    "NullTracer", "TraceEvent", "Tracer",
    "units",
]
