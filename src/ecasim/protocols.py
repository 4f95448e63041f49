"""The CSMA/CA and CSMA/ECA backoff rules.

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
regime behave differently from the classic always-backlogged picture.  The
engine owns every node's queue, stage and due slot, and applies these rules
in engine.on_packet_arrival and engine.after_transmission.
"""

import random

from .config import Protocol


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
