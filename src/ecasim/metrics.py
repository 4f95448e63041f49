"""Measurement accumulation and the end-of-run report.

Only the window from slot warmup_slots on is reported: each integer tally
counts the whole run, and the report takes its end value minus a snapshot
taken when that slot begins.  Delay samples are further restricted to packets
enqueued from the warmup boundary instant on, so a packet that entered a
queue during warmup never contributes a (stale) delay even if it is delivered
much later.  Throughput, on the other hand, counts all payload bits
delivered inside the measured window, which keeps throughput * duration equal
to the bits that actually crossed the channel.
"""

import math
from typing import NamedTuple

from .errors import ConsistencyError


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


class MetricsAccumulator:
    """Collects a run's tallies.  advance_slot() calls its record_* methods
    slot by slot, naming each slot by its transmitters; run() adds to its
    lists and sums directly.

    ledger is the caller's whole-run per-node (delivered, dropped,
    queue_empties) lists.  Float sums are not differenced, as end minus start
    is not bit-equal to a sum over the window: busy_us restarts at 0.0 when
    the window opens, and delays are sampled from warmup_end_us, inf until
    then."""

    def __init__(self, slot_empty_us: float, payload_bits: int, ledger):
        self.slot_empty_us = slot_empty_us
        self.payload_bits = payload_bits
        n_nodes = len(ledger[0])
        self.warmup_end_us = math.inf
        self.start = None           # the snapshot open_window() takes
        self.slots_collision = 0
        self.busy_us = 0.0          # sum of success/collision slot durations
        self.delay_sum_us = 0.0
        self.node_success = [0] * n_nodes
        self.node_collision = [0] * n_nodes
        self.node_delay_sum = [0.0] * n_nodes
        self.node_delay_n = [0] * n_nodes
        # every per-node integer tally, in the order finalize() unpacks them
        self.node_tallies = (self.node_success, self.node_collision, *ledger)

    def open_window(self, now_us: float, empty_count: int) -> None:
        """Slot warmup_slots begins at now_us, after empty_count empty
        slots: snapshot the integer tallies and restart the busy time."""
        self.warmup_end_us = now_us
        self.busy_us = 0.0
        self.start = (empty_count, self.slots_collision,
                      [list(t) for t in self.node_tallies])

    # -- recording ---------------------------------------------------------

    def record_slot(self, transmitters, duration_us: float) -> None:
        """() is an idle slot, one transmitter a success, more a collision."""
        if transmitters:
            self.busy_us += duration_us
            if len(transmitters) > 1:
                self.slots_collision += 1

    def record_attempt(self, node_id: int, success: bool) -> None:
        if success:
            self.node_success[node_id] += 1
        else:
            self.node_collision[node_id] += 1

    def record_delivery(self, node_id: int, batch, ack_us: float) -> None:
        """One successful exchange: the whole batch shares the ACK instant.

        batch holds the enqueue instants of the delivered packets.
        """
        cutoff = self.warmup_end_us
        for enqueue_us in batch:
            if enqueue_us >= cutoff:
                delay = ack_us - enqueue_us
                if delay < 0:
                    raise negative_delay_error(delay, node_id, ack_us,
                                               enqueue_us)
                self.delay_sum_us += delay
                self.node_delay_sum[node_id] += delay
                self.node_delay_n[node_id] += 1

    # The ledger and clock count these three, but perfbench/tracer.py
    # patches every record_* method by name, so they stay (ROADMAP item 2).
    def record_drop(self, node_id: int) -> None:
        """Kept only for perfbench/tracer.py; records nothing."""

    def record_queue_empty(self, node_id: int) -> None:
        """Kept only for perfbench/tracer.py; records nothing."""

    def record_empty_bulk(self, count: int) -> None:
        """Kept only for perfbench/tracer.py; records nothing."""

    # -- reporting ----------------------------------------------------------

    def finalize(self, queues, stages, empty_count: int,
                 expected_slots: int) -> MetricsReport:
        """Close the window out; queues and stages are each node's end state
        and empty_count the clock's empty slots over the whole run."""
        assert self.start is not None, "the measured window never opened"
        empty_at_start, collision_slots_at_start, node_start = self.start
        success, collision, delivered, drops, queue_empties = (
            [end - begin for end, begin in zip(ends, begins)]
            for ends, begins in zip(self.node_tallies, node_start))
        slots_empty = empty_count - empty_at_start
        slots_collision = self.slots_collision - collision_slots_at_start
        slots_success = sum(success)
        slots = slots_empty + slots_success + slots_collision
        if slots != expected_slots:
            raise ConsistencyError(
                f"slot ledger mismatch: recorded {slots}, expected {expected_slots}")
        duration_s = (slots_empty * self.slot_empty_us + self.busy_us) / 1e6
        collisions = sum(collision)
        transmissions = slots_success + collisions
        delivered_packets = sum(delivered)
        delivered_bits = delivered_packets * self.payload_bits
        delay_samples = sum(self.node_delay_n)
        empty_run = slots == 0 or transmissions == 0

        per_node = []
        for i, queue in enumerate(queues):
            per_node.append(NodeStats(
                node_id=i,
                transmissions=success[i] + collision[i],
                successes=success[i],
                collisions=collision[i],
                queue_empty_events=queue_empties[i],
                drops=drops[i],
                delivered_packets=delivered[i],
                delivered_bits=delivered[i] * self.payload_bits,
                delay_samples=self.node_delay_n[i],
                mean_delay_s=(self.node_delay_sum[i] / self.node_delay_n[i] / 1e6
                              if self.node_delay_n[i] else math.nan),
                end_queue=len(queue),
                end_stage=stages[i],
            ))

        n_nodes = len(queues)
        return MetricsReport(
            duration_s=duration_s,
            # a positive duration in us can still round to 0.0 s
            throughput_bps=(delivered_bits / duration_s
                            if duration_s > 0 else 0.0),
            mean_delay_s=(self.delay_sum_us / delay_samples / 1e6
                          if delay_samples else math.nan),
            delay_samples=delay_samples,
            avg_end_queue=sum(len(q) for q in queues) / n_nodes,
            avg_end_stage=sum(stages) / n_nodes,
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
