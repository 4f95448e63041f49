"""Backoff rules, rejoin behavior, and queue bookkeeping per node."""

import random
from collections import deque

import pytest
from hypothesis import given, strategies as st

from ecasim import ConfigError, Protocol, SimConfig
from ecasim.protocols import (NodeState, after_transmission, contention_window,
                              next_backoff_after_collision,
                              next_backoff_after_success, on_packet_arrival,
                              rejoin_backoff)

# chi-square 0.999 quantiles, indexed by degrees of freedom
CHI2_CRIT = {15: 37.697, 31: 61.098}

stages = st.integers(min_value=0, max_value=6)
cw_exp = st.integers(min_value=1, max_value=6)  # cw_min = 2**exp


@given(stage=stages, exp=cw_exp, seed=st.integers(0, 2**16))
def test_ca_success_resets_stage_and_draws_from_base_window(stage, exp, seed):
    cw = 2 ** exp
    rng = random.Random(seed)
    new_stage, counter = next_backoff_after_success(
        Protocol.CSMA_CA, False, stage, cw, rng)
    assert new_stage == 0
    assert 0 <= counter < cw


@given(stage=stages, exp=cw_exp)
def test_eca_success_is_deterministic_half_window(stage, exp):
    cw = 2 ** exp
    rng = random.Random(0)
    state = rng.getstate()
    new_stage, counter = next_backoff_after_success(
        Protocol.CSMA_ECA, False, stage, cw, rng)
    assert (new_stage, counter) == (0, cw // 2 - 1)
    assert rng.getstate() == state  # no randomness consumed


@given(stage=stages, exp=cw_exp)
def test_eca_hysteresis_keeps_stage_and_scales_the_draw(stage, exp):
    cw = 2 ** exp
    new_stage, counter = next_backoff_after_success(
        Protocol.CSMA_ECA, True, stage, cw, random.Random(0))
    assert new_stage == stage
    assert counter == contention_window(cw, stage) // 2 - 1


def test_eca_default_window_gives_schedule_period_eight():
    _, counter = next_backoff_after_success(
        Protocol.CSMA_ECA, False, 0, 16, random.Random(0))
    assert counter == 7  # one transmission every counter + 1 = 8 slots


@given(stage=stages, exp=cw_exp, max_stage=stages, seed=st.integers(0, 2**16))
def test_collision_doubles_window_up_to_cap(stage, exp, max_stage, seed):
    cw = 2 ** exp
    new_stage, counter = next_backoff_after_collision(
        stage, max_stage, cw, random.Random(seed))
    assert new_stage == min(stage + 1, max_stage)
    assert 0 <= counter < contention_window(cw, new_stage)


def _chi2(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def test_ca_success_draw_is_uniform():
    rng = random.Random(12345)
    counts = [0] * 16
    for _ in range(100_000):
        _, c = next_backoff_after_success(Protocol.CSMA_CA, False, 3, 16, rng)
        counts[c] += 1
    assert _chi2(counts, 100_000 / 16) < CHI2_CRIT[15]


def test_collision_draw_is_uniform_over_doubled_window():
    rng = random.Random(54321)
    counts = [0] * 32
    for _ in range(100_000):
        _, c = next_backoff_after_collision(0, 5, 16, rng)
        counts[c] += 1
    assert _chi2(counts, 100_000 / 32) < CHI2_CRIT[31]


def test_rejoin_draw_is_uniform_over_base_window():
    rng = random.Random(999)
    counts = [0] * 16
    for _ in range(100_000):
        counts[rejoin_backoff(16, False, rng)] += 1
    assert _chi2(counts, 100_000 / 16) < CHI2_CRIT[15]


def test_rejoin_upper_bound_flag():
    rng = random.Random(4)
    draws = [rejoin_backoff(16, False, rng) for _ in range(5000)]
    assert max(draws) == 15
    draws = [rejoin_backoff(16, True, rng) for _ in range(5000)]
    assert max(draws) == 16
    assert min(draws) == 0


# -- arrival handling ---------------------------------------------------------

def _node(prefill=0):
    """A node whose queue holds packets enqueued at 0.0, 1.0, ... us."""
    node = NodeState(0)
    for k in range(prefill):
        node.queue.append(float(k))
        node.counters.arrivals += 1
    return node


def test_arrival_wakes_idle_node_with_base_window_counter():
    cfg = SimConfig(queue_capacity=4)
    node = _node()
    counter = on_packet_arrival(node, 0.0, cfg, random.Random(1))
    assert node.active
    assert counter is not None and 0 <= counter < cfg.cw_min
    assert node.backoff_stage == 0
    # second arrival while active must not reschedule anything
    assert on_packet_arrival(node, 0.0, cfg, random.Random(2)) is None
    assert len(node.queue) == 2


def test_full_queue_drops_and_keeps_contention_untouched():
    cfg = SimConfig(queue_capacity=2)
    node = _node(prefill=2)
    node.active = True
    assert on_packet_arrival(node, 0.0, cfg, random.Random(1)) is None
    assert node.counters.dropped == 1
    assert len(node.queue) == 2


def test_rejoin_resets_stage_without_hysteresis():
    for proto, hyst, expected_stage in [
            (Protocol.CSMA_CA, False, 0),
            (Protocol.CSMA_ECA, False, 0),
            (Protocol.CSMA_ECA, True, 4)]:
        cfg = SimConfig(protocol=proto, hysteresis=hyst)
        node = _node()
        node.backoff_stage = 4
        on_packet_arrival(node, 0.0, cfg, random.Random(3))
        assert node.backoff_stage == expected_stage


# -- transmission outcomes ----------------------------------------------------

def test_success_delivers_fifo_batch_and_redraws():
    cfg = SimConfig(protocol=Protocol.CSMA_CA, max_aggregation=2,
                    queue_capacity=8)
    node = _node(prefill=3)
    node.active = True
    node.backoff_stage = 2
    delivered, counter = after_transmission(node, True, 2, cfg, random.Random(7))
    assert delivered == [0.0, 1.0]
    assert len(node.queue) == 1
    assert node.backoff_stage == 0
    assert counter is not None and 0 <= counter < cfg.cw_min
    assert node.counters.delivered == 2


def test_success_on_last_packet_leaves_contention():
    cfg = SimConfig()
    node = _node(prefill=1)
    node.active = True
    delivered, counter = after_transmission(node, True, 1, cfg, random.Random(7))
    assert len(delivered) == 1
    assert counter is None
    assert not node.active
    assert node.counters.queue_empty_events == 1


def test_collision_keeps_batch_and_escalates():
    cfg = SimConfig(cw_min=16, max_stage=5)
    node = _node(prefill=2)
    node.active = True
    delivered, counter = after_transmission(node, False, 2, cfg, random.Random(7))
    assert delivered == []
    assert len(node.queue) == 2
    assert node.backoff_stage == 1
    assert 0 <= counter < 32
    assert node.counters.delivered == 0
    assert node.counters.queue_empty_events == 0


def test_collision_stage_saturates_at_max_stage():
    cfg = SimConfig(cw_min=16, max_stage=5)
    node = _node(prefill=1)
    node.active = True
    node.backoff_stage = 5
    _, counter = after_transmission(node, False, 1, cfg, random.Random(7))
    assert node.backoff_stage == 5
    assert 0 <= counter < 16 * 2 ** 5


def test_replenish_keeps_a_saturated_node_in_contention():
    cfg = SimConfig(queue_capacity=4)
    node = _node(prefill=1)
    node.active = True

    def refill(n):
        while len(n.queue) < cfg.queue_capacity:
            n.queue.append(99.0)
            n.counters.arrivals += 1

    delivered, counter = after_transmission(node, True, 1, cfg,
                                            random.Random(7), replenish=refill)
    assert len(delivered) == 1
    assert node.active
    assert counter is not None
    assert node.counters.queue_empty_events == 0
    assert len(node.queue) == cfg.queue_capacity


def test_hysteresis_rejected_for_ca():
    with pytest.raises(ConfigError):
        SimConfig(protocol=Protocol.CSMA_CA, hysteresis=True).validate()
