"""Packet arrival processes feeding the MAC queues.

A queued packet is just its enqueue instant in microseconds: every packet of
a run carries the config-wide payload size, and its source is the node whose
queue holds it.  Poisson sources draw exponential interarrival gaps and stamp
each packet with its exact arrival instant, so delay measurements are not
quantised to slot boundaries.  A saturated source simply keeps the queue
topped up: it models a node that always has traffic waiting.

Node i's stream depends on the seed and the rate alone, so every protocol
variant and node count of a sweep at one seed sees the same instants.  A
sweep's cells at one (seed, arrival_rate) therefore share them through a
TraceBook: a process draws each instant once, for the first of its cells
that needs it, and its later cells read it back.
"""

import math
import random
from math import log

from . import config
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

    def __init__(self, rate: float, rng: random.Random,
                 next_us: float | None = None):
        """next_us, if given, is the first arrival, already drawn; rng then
        draws the gap after it."""
        if not rate > 0:
            raise ConfigError("arrival rate must be positive")
        self.rate = rate
        self.rng = rng
        if next_us is None:
            next_us = (math.inf if math.isinf(rate)
                       else sample_interarrival(rate, rng))
        self.next_us = next_us

    def drain_poisson(self, window_end_us: float) -> list[float]:
        """Enqueue instants of all arrivals strictly before window_end_us."""
        out = []
        while self.next_us < window_end_us:
            out.append(self.next_us)
            self.next_us += sample_interarrival(self.rate, self.rng)
        return out

    def refill(self, queue_len: int, capacity: int, now_us: float) -> list[float]:
        """Saturated top-up: enough packets to put the queue back at capacity.
        The engine tops saturated queues up inline and builds them no stream;
        perfbench/tracer.py still patches this name (ROADMAP item 2)."""
        assert math.isinf(self.rate)
        return [now_us] * (capacity - queue_len)


class Trace:
    """One node's Poisson instants, in order, from the first that a run
    still reads on, and the stream's RNG, which draws the gap after the last
    of them.  The book's traces keep every instant; a run trims its own."""

    __slots__ = ("instants", "rng")

    def __init__(self, instants, rng: random.Random):
        self.instants = instants
        self.rng = rng

    def grow(self, rate: float, until: float, least: int = 0,
             most: float = math.inf) -> int:
        """Draw the stream's next instants onto the end, up to the first at
        or past until and `least` at least, but `most` at most; returns how
        many.  run() draws every instant after a stream's first one here."""
        instants = self.instants
        append = instants.append
        rnd = self.rng.random
        t = instants[-1]
        drew = 0
        while drew < most and (t < until or drew < least):
            drew += 1
            t += -log(1.0 - rnd()) / rate * 1e6  # expovariate(rate) * 1e6
            append(t)
        return drew


# A trace grows by at least this many instants at a time, so that a run that
# records a node one arrival at a time extends it once per 32 draws.  Of the
# instants a sweep draws, at most this many per node go unread.
LOOKAHEAD = 32


class TraceBook:
    """The traces of one (seed, arrival_rate), shared by every cell of that
    key that a process runs, whatever pool chunk it came in.

    A run reads a node's instants from its trace, and the book draws more
    only past the trace's end.  The book holds at most
    config.MAX_TRACED_INSTANTS instants (`room` is what it may still take,
    `drawn` counts every instant it drew); once a run would need more, the
    book lets go of every trace and keeps none for the rest of its (seed,
    rate).  A trace the book does not hold is the run's own: it draws it on
    and trims it, charging the book nothing.  Which cells share what never
    changes a report, only how often an instant is drawn.
    """

    def __init__(self, seed: int, rate: float):
        self.key = (seed, rate)
        self.traces = {}       # node id -> Trace
        self.room = config.MAX_TRACED_INSTANTS
        self.drawn = 0

    def lend(self, nid: int, seed_bits: int):
        """The trace nid's stream reads in the next run, begun from
        Random(seed_bits) if the book has none yet, or None if it has none
        and no room: the run then builds a trace of its own."""
        trace = self.traces.get(nid)
        if trace is None and self.room:
            from array import array  # loaded only when cells share arrivals
            rng = random.Random(seed_bits)
            trace = Trace(array("d", (sample_interarrival(self.key[1], rng),)),
                          rng)
            self.traces[nid] = trace
            self.room -= 1
            self.drawn += 1
        return trace

    def extend(self, nid: int, trace: Trace, until: float) -> bool:
        """Draw nid's instants past the trace's end, up to the first at or
        past until and LOOKAHEAD at least.  False if the book does not hold
        trace (drawing nothing), or runs out of room first: it then lets go
        of every trace, and trace keeps what was drawn."""
        if self.traces.get(nid) is not trace:
            return False
        drew = trace.grow(self.key[1], until, LOOKAHEAD, self.room)
        self.room -= drew
        self.drawn += drew
        if trace.instants[-1] >= until:
            return True
        self.let_go()
        return False

    def let_go(self) -> None:
        """Out of room: hold no trace and take none, for good."""
        self.traces.clear()
        self.room = 0


# The trace book of the sweep cells this process is running; None outside a
# sweep, so that a standalone run shares nothing.
book = None


def share(seed: int, rate: float) -> None:
    """Set up book for the next run, at (seed, rate): the book of that key
    this process already holds, or a new one for a Poisson rate.  A book of
    another (seed, rate) is dropped."""
    global book
    if book is None or book.key != (seed, rate):
        book = TraceBook(seed, rate) if 0 < rate < math.inf else None
