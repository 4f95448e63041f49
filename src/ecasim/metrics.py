"""Measurement accumulation and the end-of-run report.

Only slots at or past the warmup boundary are recorded.  Delay samples are
further restricted to packets enqueued after the warmup boundary instant, so a
packet that entered a queue during warmup never contributes a (stale) delay
even if it is delivered much later.  Throughput, on the other hand, counts all
payload bits delivered inside the measured window, which keeps
throughput * duration equal to the bits that actually crossed the channel.
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
    """Collects counted-window tallies; the engine drives it slot by slot.

    Totals that follow from the per-node tallies are derived in finalize().
    The float sums are kept as they accrue: summed in another order, they
    could differ in the last bit."""

    def __init__(self, n_nodes: int, slot_empty_us: float, payload_bits: int):
        self.slot_empty_us = slot_empty_us
        self.payload_bits = payload_bits
        self.warmup_end_us: float | None = None
        self.slots_empty = 0
        self.slots_collision = 0
        self.busy_us = 0.0          # sum of success/collision slot durations
        self.delay_sum_us = 0.0
        z = [0] * n_nodes
        self.node_success = list(z)
        self.node_collision = list(z)
        self.node_queue_empty = list(z)
        self.node_drops = list(z)
        self.node_delivered = list(z)
        self.node_delay_sum = [0.0] * n_nodes
        self.node_delay_n = list(z)

    # -- recording ---------------------------------------------------------

    def record_slot(self, outcome, duration_us: float) -> None:
        kind = outcome.kind
        if kind == "empty":
            self.slots_empty += 1
            return
        self.busy_us += duration_us
        if kind == "collision":
            self.slots_collision += 1

    def record_empty_bulk(self, count: int) -> None:
        """Fast path for a run of idle slots containing no events at all."""
        self.slots_empty += count

    def record_attempt(self, node_id: int, success: bool) -> None:
        if success:
            self.node_success[node_id] += 1
        else:
            self.node_collision[node_id] += 1

    def record_queue_empty(self, node_id: int) -> None:
        self.node_queue_empty[node_id] += 1

    def record_drop(self, node_id: int) -> None:
        self.node_drops[node_id] += 1

    def record_delivery(self, node_id: int, batch, ack_us: float) -> None:
        """One successful exchange: the whole batch shares the ACK instant.

        batch holds the enqueue instants of the delivered packets.
        """
        assert self.warmup_end_us is not None
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
        self.node_delivered[node_id] += len(batch)

    # -- reporting ----------------------------------------------------------

    def finalize(self, queues, stages, expected_slots: int) -> MetricsReport:
        """Close the run out; queues and stages are each node's end state."""
        slots_success = sum(self.node_success)
        slots = self.slots_empty + slots_success + self.slots_collision
        if slots != expected_slots:
            raise ConsistencyError(
                f"slot ledger mismatch: recorded {slots}, expected {expected_slots}")
        duration_us = self.slots_empty * self.slot_empty_us + self.busy_us
        collisions = sum(self.node_collision)
        transmissions = slots_success + collisions
        queue_empties = sum(self.node_queue_empty)
        delivered_packets = sum(self.node_delivered)
        delivered_bits = delivered_packets * self.payload_bits
        delay_samples = sum(self.node_delay_n)
        empty_run = slots == 0 or transmissions == 0

        per_node = []
        for i, queue in enumerate(queues):
            per_node.append(NodeStats(
                node_id=i,
                transmissions=self.node_success[i] + self.node_collision[i],
                successes=self.node_success[i],
                collisions=self.node_collision[i],
                queue_empty_events=self.node_queue_empty[i],
                drops=self.node_drops[i],
                delivered_packets=self.node_delivered[i],
                delivered_bits=self.node_delivered[i] * self.payload_bits,
                delay_samples=self.node_delay_n[i],
                mean_delay_s=(self.node_delay_sum[i] / self.node_delay_n[i] / 1e6
                              if self.node_delay_n[i] else math.nan),
                end_queue=len(queue),
                end_stage=stages[i],
            ))

        n_nodes = len(queues)
        return MetricsReport(
            duration_s=duration_us / 1e6,
            throughput_bps=(delivered_bits / (duration_us / 1e6)
                            if duration_us > 0 else 0.0),
            mean_delay_s=(self.delay_sum_us / delay_samples / 1e6
                          if delay_samples else math.nan),
            delay_samples=delay_samples,
            avg_end_queue=sum(len(q) for q in queues) / n_nodes,
            avg_end_stage=sum(stages) / n_nodes,
            queue_empty_per_tx=(queue_empties / transmissions
                                if transmissions else 0.0),
            collision_fraction=(self.slots_collision / slots if slots else 0.0),
            drops=sum(self.node_drops),
            transmissions=transmissions,
            successes=slots_success,
            collisions=collisions,
            slots_total=slots,
            slots_empty=self.slots_empty,
            slots_success=slots_success,
            slots_collision=self.slots_collision,
            delivered_packets=delivered_packets,
            delivered_bits=delivered_bits,
            empty_run=empty_run,
            per_node=per_node,
        )
