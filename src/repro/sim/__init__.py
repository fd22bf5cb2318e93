"""Discrete-event simulation kernel used by all device and network models."""

from .engine import Event, Interrupt, Process, Simulator, SimulationError
from .resources import TokenBucket
from .rng import RngRegistry
from .trace import NullTracer, TraceEvent, Tracer
from .stats import Histogram, RateMeter
from . import units

__all__ = [
    "Simulator", "Event", "Process", "Interrupt", "SimulationError",
    "TokenBucket",
    "RngRegistry",
    "Histogram", "RateMeter",
    "NullTracer", "TraceEvent", "Tracer",
    "units",
]
