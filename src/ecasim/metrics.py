"""The end-of-run report, a pure function of a Simulation's tallies.

A Simulation (see engine) holds every tally, and report(sim) reads them.
Only the window from slot warmup_slots on is reported: each integer tally
counts the whole run, and the report takes its end value minus the snapshot
Simulation.open_window() takes when that slot begins.  Float sums are not
differenced, as end minus start is not bit-equal to a sum over the window:
the window's busy time starts from 0.0 when it opens, and delays are summed
only for packets enqueued from the warmup boundary instant on, so a packet
that entered a queue during warmup never contributes a (stale) delay even if
it is delivered much later.  Throughput, on the other hand, counts all
payload bits delivered inside the measured window, which keeps throughput *
duration equal to the bits that actually crossed the channel.
MetricsAccumulator is only bound here, for perfbench/tracer.py (see
protocols).
"""

import math
from typing import NamedTuple

from .errors import ConsistencyError
from .protocols import MetricsAccumulator  # noqa: F401


def negative_delay_error(delay: float, node_id: int, ack_us: float,
                         enqueue_us: float) -> ConsistencyError:
    """The fault for a packet acknowledged before it was enqueued."""
    return ConsistencyError(
        f"negative delay {delay:.3f} us for node {node_id}: "
        f"ack at {ack_us:.3f}, enqueued at {enqueue_us:.3f}")


class NodeStats(NamedTuple):
    node_id: int
    transmissions: int = 0
    successes: int = 0
    collisions: int = 0
    queue_empty_events: int = 0
    drops: int = 0
    delivered_packets: int = 0
    delivered_bits: int = 0
    delay_samples: int = 0
    mean_delay_s: float = math.nan
    end_queue: int = 0
    end_stage: int = 0


class _ReportFields(NamedTuple):
    duration_s: float
    throughput_bps: float
    mean_delay_s: float
    delay_samples: int
    avg_end_queue: float
    avg_end_stage: float
    queue_empty_per_tx: float
    collision_fraction: float
    drops: int
    transmissions: int
    successes: int
    collisions: int
    slots_total: int
    slots_empty: int
    slots_success: int
    slots_collision: int
    delivered_packets: int
    delivered_bits: int
    empty_run: bool
    per_node: list


class MetricsReport(_ReportFields):
    """Without __slots__, a report keeps a __dict__: a caller can attach its
    own attributes, and they survive pickling from a pool worker."""


# a Simulation's per-node integer tallies, in the order its window snapshot
# holds them
NODE_TALLIES = ("node_success", "node_collision", "delivered", "dropped",
                "queue_empties")


def report(sim) -> MetricsReport:
    """The report of a Simulation that run() ran, from its tallies and end
    state, after checking its slot and packet ledgers."""
    assert sim.window_start is not None, "the measured window never opened"
    cfg = sim.cfg
    bits = cfg.timing.payload_bits
    empty_at_start, collision_slots_at_start, node_start = sim.window_start
    success, collision, delivered, drops, queue_empties = (
        [end - begin for end, begin in zip(getattr(sim, name), begins)]
        for name, begins in zip(NODE_TALLIES, node_start))
    slots_empty = sim.empty_count - empty_at_start
    slots_collision = sim.slots_collision - collision_slots_at_start
    slots_success = sum(success)
    slots = slots_empty + slots_success + slots_collision
    expected_slots = cfg.sim_slots - cfg.warmup_slots
    if slots != expected_slots:
        raise ConsistencyError(
            f"slot ledger mismatch: recorded {slots}, expected {expected_slots}")
    for nid, queue in enumerate(sim.queues):
        arrivals, out = sim.arrivals[nid], sim.delivered[nid]
        dropped = sim.dropped[nid]
        if arrivals != out + dropped + len(queue):
            raise ConsistencyError(
                f"packet ledger mismatch for node {nid}: "
                f"{arrivals} in, {out} out, {dropped} dropped, "
                f"{len(queue)} still queued")
        if cfg.saturated and sim.queue_empties[nid]:
            raise ConsistencyError(
                f"saturated node {nid} ran out of traffic")
    duration_s = (slots_empty * cfg.timing.slot_empty
                  + sim.window_busy_us) / 1e6
    collisions = sum(collision)
    transmissions = slots_success + collisions
    delivered_packets = sum(delivered)
    delivered_bits = delivered_packets * bits
    delay_n = sim.node_delay_n
    delay_samples = sum(delay_n)
    empty_run = slots == 0 or transmissions == 0

    per_node = []
    for i, queue in enumerate(sim.queues):
        per_node.append(NodeStats(
            node_id=i,
            transmissions=success[i] + collision[i],
            successes=success[i],
            collisions=collision[i],
            queue_empty_events=queue_empties[i],
            drops=drops[i],
            delivered_packets=delivered[i],
            delivered_bits=delivered[i] * bits,
            delay_samples=delay_n[i],
            mean_delay_s=(sim.node_delay_sum[i] / delay_n[i] / 1e6
                          if delay_n[i] else math.nan),
            end_queue=len(queue),
            end_stage=sim.stage[i],
        ))

    n_nodes = len(sim.queues)
    return MetricsReport(
        duration_s=duration_s,
        # a positive duration in us can still round to 0.0 s
        throughput_bps=(delivered_bits / duration_s
                        if duration_s > 0 else 0.0),
        mean_delay_s=(sim.delay_sum_us / delay_samples / 1e6
                      if delay_samples else math.nan),
        delay_samples=delay_samples,
        avg_end_queue=sum(len(q) for q in sim.queues) / n_nodes,
        avg_end_stage=sum(sim.stage) / n_nodes,
        queue_empty_per_tx=(sum(queue_empties) / transmissions
                            if transmissions else 0.0),
        collision_fraction=(slots_collision / slots if slots else 0.0),
        drops=sum(drops),
        transmissions=transmissions,
        successes=slots_success,
        collisions=collisions,
        slots_total=slots,
        slots_empty=slots_empty,
        slots_success=slots_success,
        slots_collision=slots_collision,
        delivered_packets=delivered_packets,
        delivered_bits=delivered_bits,
        empty_run=empty_run,
        per_node=per_node,
    )
