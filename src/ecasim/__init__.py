"""Slot-accurate simulation of CSMA/CA and CSMA/ECA channel contention."""

from .config import Protocol, SimConfig, SATURATED
from .engine import Simulation, run_simulation
from .errors import ConfigError, ConsistencyError
from .metrics import MetricsReport
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConsistencyError", "MetricsReport", "Protocol",
    "SATURATED", "SimConfig", "Simulation", "SweepSpec", "run_simulation",
    "run_sweep",
]
