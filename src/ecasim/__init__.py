"""Slot-accurate simulation of CSMA/CA and CSMA/ECA channel contention."""

from .config import Protocol, SimConfig, SATURATED
from .errors import ConfigError, ConsistencyError
from .sweep import SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConsistencyError", "MetricsReport", "Protocol",
    "SATURATED", "SimConfig", "Simulation", "SweepSpec", "run_simulation",
    "run_sweep",
]


def __getattr__(name):
    """The simulator's names, loaded on first access: importing ecasim loads
    only the config grammar, so `validate` and `figures` never load the
    engine."""
    if name in ("Simulation", "run_simulation"):
        from . import engine as module
    elif name == "MetricsReport":
        from . import metrics as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
