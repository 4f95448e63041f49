"""Packet arrival processes feeding the MAC queues.

A queued packet is just its enqueue instant in microseconds: every packet of
a run carries the config-wide payload size, and its source is the node whose
queue holds it.  Poisson sources draw exponential interarrival gaps and stamp
each packet with its exact arrival instant, so delay measurements are not
quantised to slot boundaries.  A saturated source simply keeps the queue
topped up: it models a node that always has traffic waiting.
"""

import math
import random

from .errors import ConfigError


def sample_interarrival(rate: float, rng: random.Random) -> float:
    """One exponential gap in microseconds for a rate in packets/s."""
    assert rate > 0
    return rng.expovariate(rate) * 1e6


class ArrivalStream:
    """Per-node arrival state: the next pending instant of a Poisson source.

    rate is in packets/s; math.inf makes a saturated source, whose refills
    are demand-driven and draw nothing.  A stream owns its RNG so the arrival
    sequence of a node depends only on the run seed and the node id, never on
    what other nodes are doing.
    """

    def __init__(self, rate: float, rng: random.Random):
        if not rate > 0:
            raise ConfigError("arrival rate must be positive")
        self.rate = rate
        self.rng = rng
        self.next_us = math.inf if math.isinf(rate) else sample_interarrival(rate, rng)

    def drain_poisson(self, window_end_us: float) -> list[float]:
        """Enqueue instants of all arrivals strictly before window_end_us."""
        out = []
        while self.next_us < window_end_us:
            out.append(self.next_us)
            self.next_us += sample_interarrival(self.rate, self.rng)
        return out

    def refill(self, queue_len: int, capacity: int, now_us: float) -> list[float]:
        """Saturated top-up: enough packets to put the queue back at capacity."""
        assert math.isinf(self.rate)
        return [now_us] * (capacity - queue_len)
