"""Packet arrival processes feeding the MAC queues.

A queued packet is just its enqueue instant in microseconds: every packet of
a run carries the config-wide payload size, and its source is the node whose
queue holds it.  A Poisson node's arrivals are one ArrivalStream: the
instants its RNG has drawn, each the last plus an exponential gap, so delay
measurements are not quantised to slot boundaries.  A saturated or silent
source's stream never fires: it is one instant, inf, and no RNG.

This module alone decides where a run's streams come from, when they grow,
what they drop and how many instants were drawn: a run takes each stream
from lend(), calls its reach() past its end, and only reads the instants.
Node i's stream depends on the seed and the rate alone, so every protocol
variant and node count of a sweep at one seed sees the same instants.  A
sweep's cells at one (seed, arrival_rate) therefore share them through a
TraceBook: a process draws each instant once, for the first of its cells
that needs it, and its later cells read it back.  ArrivalStream's
drain_poisson and refill are only bound for perfbench/tracer.py (see
protocols).
"""

import math
import random
from math import log

from . import config
from .protocols import retired

# Every instant any stream of this process has drawn (ArrivalStream.grow); a
# run's drawn_arrivals is what it adds to it.
drawn = 0


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
        drawn here, and counted in drawn."""
        global drawn
        instants = self.instants
        append = instants.append
        rnd = self.rng.random
        t = instants[-1] if instants else 0.0
        drew = 0
        while drew < most and (t < until or drew < least):
            drew += 1
            t += -log(1.0 - rnd()) / rate * 1e6  # random's exponential gap, us
            append(t)
        drawn += drew
        return drew

    def reach(self, nid: int, rate: float, until: float, pos: int) -> int:
        """Draw node nid's stream up to the first instant at or past until,
        for a run that reads it from instants[pos] on; returns the index
        that instant then has.  A stream the process's book holds draws
        LOOKAHEAD at least, within the book's room; out of room, the book
        lets go and the stream goes on as the run's own.  The run's own
        stream drops the instants before pos, which no other run reads, and
        draws only to until, so an until it reaches only trims it."""
        instants = self.instants
        if book is not None and book.traces.get(nid) is self:
            if instants[-1] >= until:
                return pos
            book.room -= self.grow(rate, until, LOOKAHEAD, book.room)
            if instants[-1] >= until:
                return pos
            book.let_go()
        del instants[:pos]
        if instants[-1] < until:
            self.grow(rate, until)
        return 0

    drain_poisson = refill = retired


# A book's stream grows by at least this many instants at a time, so that a
# run that records a node one arrival at a time extends it once per 32 draws.
# Of the instants a sweep draws, at most this many per node go unread.
LOOKAHEAD = 32


class TraceBook:
    """The streams of one (seed, arrival_rate), shared by every cell of that
    key that a process runs, whatever pool chunk it came in.

    A run reads a node's instants from its stream, and the book draws more
    only past the stream's end.  The book holds at most
    config.MAX_TRACED_INSTANTS instants (`room` is what it may still take);
    once a run would need more, the book lets go of every stream and keeps
    none for the rest of its (seed, rate).  A stream the book does not hold
    is the run's own: it draws it on and trims it, charging the book
    nothing.  No stream points back at its book, so a dropped book is freed
    at once, with its streams.  Which cells share what never changes a
    report, only how often an instant is drawn.
    """

    def __init__(self, seed: int, rate: float):
        self.key = (seed, rate)
        self.traces = {}       # node id -> ArrivalStream
        self.room = config.MAX_TRACED_INSTANTS

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


def lend(seed: int, rate: float, nid: int, seed_bits: int) -> ArrivalStream:
    """Node nid's stream for a run at (seed, rate), begun from
    Random(seed_bits) with its first instant: the book's, if the book is at
    that key and holds the stream or has room for it, or else the run's
    own."""
    if book is not None and book.key == (seed, rate):
        stream = book.traces.get(nid)
        if stream is None and book.room:
            from array import array  # loaded only when cells share arrivals
            stream = book.traces[nid] = ArrivalStream(
                array("d"), random.Random(seed_bits))
            book.room -= stream.grow(rate, 0.0, 1)
        if stream is not None:
            return stream
    stream = ArrivalStream([], random.Random(seed_bits))
    stream.grow(rate, 0.0, 1)
    return stream
