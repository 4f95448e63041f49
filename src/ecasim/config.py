"""Run configuration for a single simulation."""

import math
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError
from .timing import TimingTable, DEFAULT_TIMING

SATURATED = math.inf
# A Poisson source costs one draw per arrival, and at a huge rate a gap falls
# below half an ulp of the arrival instant, so time stops and the run never
# ends.  1e9 pkt/s is about 9000 arrivals per default idle slot: saturation
# in all but cost.
MAX_ARRIVAL_RATE = 1e9
# The longest slot (idle, or an exchange of max_aggregation packets) in us: a
# huge slot stops time the same way, putting the clock where a gap is below
# half an ulp, and can overflow to inf.  16 default packets take 3.65 ms.
MAX_SLOT_US = 1e6
# The most packets one exchange may carry: a run tabulates the duration of an
# exchange of every batch size up to max_aggregation before its first slot.
MAX_AGGREGATION = 1024
# Each node's state is built before the first slot (10^4 nodes: 39 MB, 0.3 s),
# a saturated run fills every queue there, and a run holds n_nodes *
# queue_capacity packets with every queue full (10^7 filled: 87 MB).
MAX_NODES = 10_000
MAX_QUEUED_PACKETS = 10**7
# The most arrival instants a sweep process keeps to share between cells (see
# traffic.TraceBook): as many as the most packets one run may queue, 80 MB.
MAX_TRACED_INSTANTS = MAX_QUEUED_PACKETS


class Protocol(str, Enum):
    CSMA_CA = "csma-ca"
    CSMA_ECA = "csma-eca"

    def __str__(self) -> str:
        return self.value


class SimConfig(NamedTuple):
    """Everything a run depends on; two equal configs give identical runs."""

    protocol: Protocol = Protocol.CSMA_CA
    n_nodes: int = 2
    arrival_rate: float = 100.0     # packets/s per node; math.inf = saturated
    cw_min: int = 16
    max_stage: int = 5
    queue_capacity: int = 1000
    max_aggregation: int = 1        # packets drained per successful exchange
    hysteresis: bool = False        # csma-eca only: keep stage after success
    rejoin_inclusive: bool = False  # draw rejoin counter from [0, cw_min] instead
    sim_slots: int = 200_000
    warmup_slots: int = 20_000
    seed: int = 1
    timing: TimingTable = DEFAULT_TIMING

    @property
    def saturated(self) -> bool:
        return math.isinf(self.arrival_rate)

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be at least 1")
        if self.cw_min < 2 or self.cw_min & (self.cw_min - 1):
            raise ConfigError("cw_min must be a power of two, at least 2")
        if self.max_stage < 0:
            raise ConfigError("max_stage must be non-negative")
        if self.max_aggregation < 1:
            raise ConfigError("max_aggregation must be at least 1")
        if self.queue_capacity < self.max_aggregation:
            raise ConfigError("queue_capacity must be at least max_aggregation")
        if self.arrival_rate < 0 or math.isnan(self.arrival_rate):
            raise ConfigError("arrival_rate must be non-negative or inf")
        if MAX_ARRIVAL_RATE < self.arrival_rate < math.inf:
            raise ConfigError(f"arrival_rate must be at most "
                              f"{MAX_ARRIVAL_RATE:g} packets/s, or inf")
        if self.warmup_slots < 0:
            raise ConfigError("warmup_slots must be non-negative")
        if self.sim_slots <= self.warmup_slots:
            raise ConfigError("sim_slots must exceed warmup_slots")
        if self.hysteresis and self.protocol is not Protocol.CSMA_ECA:
            raise ConfigError("hysteresis applies to csma-eca only")
        t = self.timing
        t.validate()
        try:
            longest = t.exchange_us(self.max_aggregation * t.payload_bits)
        except OverflowError:   # a batch too large for a float
            longest = math.inf
        if not (t.slot_empty <= MAX_SLOT_US and longest <= MAX_SLOT_US):
            raise ConfigError(f"slot_empty and an exchange of max_aggregation "
                              f"packets must last at most {MAX_SLOT_US:g} us")
        if self.max_aggregation > MAX_AGGREGATION:
            raise ConfigError(
                f"max_aggregation must be at most {MAX_AGGREGATION}")
        if self.n_nodes > MAX_NODES:
            raise ConfigError(f"n_nodes must be at most {MAX_NODES}")
        if self.n_nodes * self.queue_capacity > MAX_QUEUED_PACKETS:
            raise ConfigError(f"n_nodes * queue_capacity must be at most "
                              f"{MAX_QUEUED_PACKETS}")
