"""Packet arrival processes feeding the MAC queues.

A queued packet is just its enqueue instant in microseconds: every packet of
a run carries the config-wide payload size, and its source is the node whose
queue holds it.  A Poisson node's arrivals are one ArrivalStream: the
instants its RNG has drawn, each the last plus an exponential gap, so delay
measurements are not quantised to slot boundaries.  run() and the reference
stepper read the same stream, with the same one draw.  A saturated or
silent source's stream never fires: it is one instant, inf, and no RNG.

Node i's stream depends on the seed and the rate alone, so every protocol
variant and node count of a sweep at one seed sees the same instants.  A
sweep's cells at one (seed, arrival_rate) therefore share them through a
TraceBook: a process draws each instant once, for the first of its cells
that needs it, and its later cells read it back.
"""

import math
import random
from bisect import bisect_left
from math import log

from . import config


class ArrivalStream:
    """One node's arrivals: its instants, in order, from the first that is
    not yet applied on, and its own RNG (None if it never fires), which
    draws the gap after the last of them.  The arrival sequence of a node
    depends only on the run seed and the node id, never on what other nodes
    are doing.  The book's streams keep every instant; a run trims its own."""

    __slots__ = ("instants", "rng")

    def __init__(self, instants, rng: random.Random):
        self.instants = instants
        self.rng = rng

    def grow(self, rate: float, until: float, least: int = 0,
             most: float = math.inf) -> int:
        """Draw the stream's next instants onto the end, up to the first at
        or past until and `least` at least, but `most` at most; returns how
        many.  An empty stream starts at 0.0.  Every instant of a stream is
        drawn here."""
        instants = self.instants
        append = instants.append
        rnd = self.rng.random
        t = instants[-1] if instants else 0.0
        drew = 0
        while drew < most and (t < until or drew < least):
            drew += 1
            t += -log(1.0 - rnd()) / rate * 1e6  # random's exponential gap, us
            append(t)
        return drew

    def drain_poisson(self, rate: float, until: float) -> list[float]:
        """The reference stepper's read: the instants strictly before until,
        taken off the front, after drawing past until."""
        self.grow(rate, until)
        instants = self.instants
        k = bisect_left(instants, until)
        out = instants[:k]
        del instants[:k]
        return out

    def refill(self) -> None:
        """Does nothing: kept only for perfbench/tracer.py, which patches
        this name (ROADMAP item 2)."""


# A book's stream grows by at least this many instants at a time, so that a
# run that records a node one arrival at a time extends it once per 32 draws.
# Of the instants a sweep draws, at most this many per node go unread.
LOOKAHEAD = 32


class TraceBook:
    """The streams of one (seed, arrival_rate), shared by every cell of that
    key that a process runs, whatever pool chunk it came in.

    A run reads a node's instants from its stream, and the book draws more
    only past the stream's end.  The book holds at most
    config.MAX_TRACED_INSTANTS instants (`room` is what it may still take,
    `drawn` counts every instant it drew); once a run would need more, the
    book lets go of every stream and keeps none for the rest of its (seed,
    rate).  A stream the book does not hold is the run's own: it draws it on
    and trims it, charging the book nothing.  Which cells share what never
    changes a report, only how often an instant is drawn.
    """

    def __init__(self, seed: int, rate: float):
        self.key = (seed, rate)
        self.traces = {}       # node id -> ArrivalStream
        self.room = config.MAX_TRACED_INSTANTS
        self.drawn = 0

    def lend(self, nid: int, seed_bits: int):
        """nid's stream for the next run, begun from Random(seed_bits) with
        its first instant if the book has none yet, or None if it has none
        and no room: the run then draws a stream of its own."""
        stream = self.traces.get(nid)
        if stream is None and self.room:
            from array import array  # loaded only when cells share arrivals
            stream = ArrivalStream(array("d"), random.Random(seed_bits))
            drew = stream.grow(self.key[1], 0.0, 1)
            self.traces[nid] = stream
            self.room -= drew
            self.drawn += drew
        return stream

    def extend(self, nid: int, stream: ArrivalStream, until: float) -> bool:
        """Draw nid's instants past the stream's end, up to the first at or
        past until and LOOKAHEAD at least.  False if the book does not hold
        stream (drawing nothing), or runs out of room first: it then lets go
        of every stream, and stream keeps what was drawn."""
        if self.traces.get(nid) is not stream:
            return False
        drew = stream.grow(self.key[1], until, LOOKAHEAD, self.room)
        self.room -= drew
        self.drawn += drew
        if stream.instants[-1] >= until:
            return True
        self.let_go()
        return False

    def let_go(self) -> None:
        """Out of room: hold no stream and take none, for good."""
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
