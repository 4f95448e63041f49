"""Node contention state and the CSMA/CA / CSMA/ECA backoff rules.

Both protocols share the listen-before-talk skeleton: a node holds a backoff
counter, spends one tick of it per contention slot, and transmits in the slot
where the counter has reached zero.  They differ only in what is drawn after a
transmission:

* csma-ca draws a fresh uniform counter from [0, cw_min - 1] after a success
  and doubles the window (binary exponential backoff) after a collision.
* csma-eca replaces the post-success draw with the deterministic value
  ceil(CW/2) - 1, so nodes that keep succeeding repeat a fixed schedule with
  period ceil(CW/2) and stop colliding with each other.  Collisions still use
  the random doubling rule.

Nodes with an empty queue leave contention entirely and come back on the next
arrival with a fresh uniform counter, which is what makes the non-saturated
regime behave differently from the classic always-backlogged picture.
"""

import random
from collections import deque
from dataclasses import dataclass, field

from .config import Protocol, SimConfig


def contention_window(cw_min: int, stage: int) -> int:
    return cw_min << stage


def next_backoff_after_success(protocol: Protocol, hysteresis: bool,
                               stage: int, cw_min: int,
                               rng: random.Random) -> tuple[int, int]:
    """(stage, counter) for a node that just delivered and has more queued."""
    if protocol is Protocol.CSMA_CA:
        return 0, rng.randrange(cw_min)
    if hysteresis:
        # keep the inflated window; the deterministic draw scales with it
        cw = contention_window(cw_min, stage)
        return stage, cw // 2 - 1
    # cw_min is even, so ceil(cw_min / 2) - 1 == cw_min // 2 - 1; successive
    # successes then repeat every cw_min // 2 slots
    return 0, cw_min // 2 - 1


def next_backoff_after_collision(stage: int, max_stage: int, cw_min: int,
                                 rng: random.Random) -> tuple[int, int]:
    """Exponential backoff, identical for both protocols."""
    new_stage = min(stage + 1, max_stage)
    return new_stage, rng.randrange(contention_window(cw_min, new_stage))


def rejoin_backoff(cw_min: int, inclusive: bool, rng: random.Random) -> int:
    """Counter drawn when an idle node re-enters contention on an arrival."""
    return rng.randrange(cw_min + 1 if inclusive else cw_min)


@dataclass
class NodeCounters:
    """Whole-run tallies for the end-of-run ledger and saturation checks."""
    arrivals: int = 0
    delivered: int = 0
    dropped: int = 0
    queue_empty_events: int = 0


@dataclass
class NodeState:
    node_id: int
    queue: deque = field(default_factory=deque)  # enqueue instants, us, FIFO
    active: bool = False
    backoff_stage: int = 0
    next_tx_slot: int = -1  # engine-owned; meaningless while inactive
    counters: NodeCounters = field(default_factory=NodeCounters)


def on_packet_arrival(node: NodeState, enqueue_us: float, cfg: SimConfig,
                      rng: random.Random) -> int | None:
    """Enqueue one arrival; returns a backoff counter iff the node rejoined.

    A full queue drops the packet.  An inactive node becomes active again with
    a uniform counter over the base window; csma-eca with hysteresis keeps its
    inflated stage across the idle period, everything else restarts at stage 0.
    """
    node.counters.arrivals += 1
    if len(node.queue) >= cfg.queue_capacity:
        node.counters.dropped += 1
        return None
    node.queue.append(enqueue_us)
    if node.active:
        return None
    node.active = True
    if not (cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis):
        node.backoff_stage = 0
    return rejoin_backoff(cfg.cw_min, cfg.rejoin_inclusive, rng)


def after_transmission(node: NodeState, success: bool, batch_size: int,
                       cfg: SimConfig, rng: random.Random,
                       replenish=None) -> tuple[list[float], int | None]:
    """Apply the outcome of this node's transmission attempt.

    On success the batch leaves the queue; a node whose queue is then empty
    leaves contention (one queue_empty event).  On collision the batch stays
    queued for retry and the window doubles.  Returns the enqueue instants of
    the delivered packets and the next backoff counter, or None if the node
    went idle.  replenish, when given, refills a saturated queue before the
    empty check so saturated nodes never drop out.
    """
    if not success:
        node.backoff_stage, counter = next_backoff_after_collision(
            node.backoff_stage, cfg.max_stage, cfg.cw_min, rng)
        return [], counter
    delivered = [node.queue.popleft() for _ in range(batch_size)]
    node.counters.delivered += batch_size
    if replenish is not None:
        replenish(node)
    if not node.queue:
        node.active = False
        node.counters.queue_empty_events += 1
        return delivered, None
    node.backoff_stage, counter = next_backoff_after_success(
        cfg.protocol, cfg.hysteresis, node.backoff_stage, cfg.cw_min, rng)
    return delivered, counter
