"""The names only perfbench/tracer.py holds; nothing in ecasim calls them.

engine's drivers inline the backoff rules, arrivals and tallies these names
stood for, and tests/reference.py is the per-slot model.  The tracer still
patches each name where it looks it up, in owner.__dict__, so engine,
traffic and metrics bind them there from here.  Every patched name raises
through retired; nodes, which the tracer reads after each run, gives the
drop counts.  Once a change to perfbench/ alone stops patching them and
reads sum(sim.dropped) instead of nodes, delete this module and those
bindings.
"""

from collections import namedtuple


def retired(*args, **kwargs):
    raise NotImplementedError("only perfbench/tracer.py holds this name")


next_backoff_after_success = next_backoff_after_collision = retired
rejoin_backoff = retired


class MetricsAccumulator:
    """Only the seven names the tracer patches."""

    record_slot = record_attempt = record_delivery = retired
    record_drop = record_queue_empty = record_empty_bulk = finalize = retired


NodeSnapshot = namedtuple("NodeSnapshot", "counters")
DropCount = namedtuple("DropCount", "dropped")


@property
def nodes(sim) -> list:
    """Each node's drop count as nodes[i].counters.dropped, built on access
    from sim.dropped."""
    return [NodeSnapshot(DropCount(d)) for d in sim.dropped]
