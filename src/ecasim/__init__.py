"""Slot-accurate simulation of CSMA/CA and CSMA/ECA channel contention."""

from .config import Protocol, SimConfig, SATURATED
from .engine import (Collision, EMPTY, Empty, Simulation, SlotOutcome, Success,
                     run_simulation, slot_duration)
from .errors import ConfigError, ConsistencyError
from .metrics import MetricsAccumulator, MetricsReport, NodeStats
from .protocols import (NodeState, after_transmission, contention_window,
                        next_backoff_after_collision,
                        next_backoff_after_success, on_packet_arrival,
                        rejoin_backoff)
from .sweep import (ProtocolVariant, SweepResults, SweepSpec, load_results,
                    parse_config, parse_config_file, run_sweep)
from .figures import emit_figure_data, figure_filename
from .timing import DEFAULT_TIMING, TimingTable
from .traffic import ArrivalStream, sample_interarrival

__version__ = "0.1.0"

__all__ = [
    "ArrivalStream", "Collision", "ConfigError",
    "ConsistencyError", "DEFAULT_TIMING", "EMPTY", "Empty",
    "MetricsAccumulator", "MetricsReport", "NodeState", "NodeStats",
    "Protocol", "ProtocolVariant", "SATURATED", "SimConfig", "Simulation",
    "SlotOutcome", "Success", "SweepResults", "SweepSpec", "TimingTable",
    "after_transmission", "contention_window", "emit_figure_data",
    "figure_filename", "load_results", "next_backoff_after_collision",
    "next_backoff_after_success", "on_packet_arrival", "parse_config",
    "parse_config_file", "rejoin_backoff", "run_simulation", "run_sweep",
    "sample_interarrival", "slot_duration",
]
