"""Backoff rules, rejoin behavior, and queue bookkeeping per node, by run()
and the reference alike (see nodes.after_one_slot)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ecasim import SATURATED, ConfigError, Protocol, SimConfig, run_simulation
from nodes import after_one_slot, lay_arrivals, load_node, loading
from reference import Reference

# chi-square 0.999 quantiles, indexed by degrees of freedom
CHI2_CRIT = {15: 37.697, 31: 61.098}

stages = st.integers(min_value=0, max_value=6)
cw_exp = st.integers(min_value=1, max_value=6)  # cw_min = 2**exp


def _cfg(**kw):
    return SimConfig(**{"n_nodes": 1, "arrival_rate": 0.0, **kw})


def _drawn(sim, nid=0):
    """The counter node nid drew in slot 0: it is due that many slots after
    it.  None while it is idle."""
    due = sim.next_tx[nid]
    return None if due < 0 else due - 1


@settings(deadline=None)
@given(stage=stages, exp=cw_exp, seed=st.integers(0, 2**16))
def test_ca_success_resets_stage_and_draws_from_base_window(stage, exp, seed):
    cfg = _cfg(protocol=Protocol.CSMA_CA, cw_min=2 ** exp, max_stage=6,
               seed=seed)
    for sim, out in after_one_slot(cfg, loading((0, 2, 0), stage=stage)):
        assert out == (0,)
        assert sim.stage[0] == 0
        assert 0 <= _drawn(sim) < 2 ** exp


@settings(deadline=None)
@given(stage=stages, exp=cw_exp)
@example(stage=0, exp=4)  # the default window: due 7 slots after
def test_eca_success_is_deterministic_half_window(stage, exp):
    states = []

    def prepare(sim):
        loading((0, 2, 0), stage=stage)(sim)
        states.append(sim.proto_rng.getstate())
    cfg = _cfg(protocol=Protocol.CSMA_ECA, cw_min=2 ** exp, max_stage=6)
    for sim, out in after_one_slot(cfg, prepare):
        assert out == (0,)
        assert (sim.stage[0], _drawn(sim)) == (0, 2 ** exp // 2 - 1)
        assert sim.proto_rng.getstate() == states[-1]  # nothing drawn


@settings(deadline=None)
@given(stage=stages, exp=cw_exp)
@example(stage=3, exp=4)  # (16 << 3) // 2 - 1 = 63
def test_eca_hysteresis_keeps_stage_and_scales_the_draw(stage, exp):
    cfg = _cfg(protocol=Protocol.CSMA_ECA, hysteresis=True, cw_min=2 ** exp,
               max_stage=6)
    for sim, out in after_one_slot(cfg, loading((0, 2, 0), stage=stage)):
        assert out == (0,)
        assert sim.stage[0] == stage
        assert _drawn(sim) == (2 ** exp << stage) // 2 - 1


def test_eca_default_window_gives_schedule_period_eight():
    """A lone saturated node, due by slot 16, then fires every 8 slots."""
    cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=1,
                    arrival_rate=SATURATED, sim_slots=8016, warmup_slots=16)
    assert run_simulation(cfg).slots_success == 1000
    assert Reference(cfg).run()["slots_success"] == 1000


@settings(deadline=None)
@given(stage=stages, exp=cw_exp, max_stage=stages, seed=st.integers(0, 2**16))
def test_collision_doubles_window_up_to_cap(stage, exp, max_stage, seed):
    cfg = _cfg(n_nodes=2, cw_min=2 ** exp, max_stage=max_stage, seed=seed)
    both = loading((0, 2, 0), (1, 2, 0), stage=stage)
    for sim, out in after_one_slot(cfg, both):
        assert out == (0, 1)
        for nid in out:
            assert sim.stage[nid] == min(stage + 1, max_stage)
            assert 0 <= _drawn(sim, nid) < 2 ** exp << sim.stage[nid]


def _uniform(counters, window, crit):
    """Whether counters pass a chi-square test of uniformity on
    [0, window) at the 0.999 quantile crit."""
    counts = [counters.count(c) for c in range(window)]
    expected = len(counters) / window
    return (sum(counts) == len(counters)
            and sum((c - expected) ** 2 / expected for c in counts) < crit)


def _counters_after_one_slot(cfg, prepare):
    """Every node's counter after slot 0 of run() (the reference draws the
    same, as the differential tests check)."""
    sim, _ = next(after_one_slot(cfg, prepare))
    return [_drawn(sim, nid) for nid in range(cfg.n_nodes)]


def test_ca_success_draw_is_uniform():
    counters = [_counters_after_one_slot(_cfg(seed=seed), loading((0, 2, 0)))[0]
                for seed in range(4000)]
    assert _uniform(counters, 16, CHI2_CRIT[15])


def test_collision_draw_is_uniform_over_doubled_window():
    all_due_now = loading(*[(nid, 1, 0) for nid in range(3200)])
    counters = _counters_after_one_slot(_cfg(n_nodes=3200), all_due_now)
    assert _uniform(counters, 32, CHI2_CRIT[31])


def _woken_at_once(sim):
    """An arrival at 1.0 us at every (idle) node: all wake in slot 0."""
    for nid in range(sim.cfg.n_nodes):
        lay_arrivals(sim, nid, [1.0])


def test_rejoin_draw_is_uniform_over_base_window():
    counters = _counters_after_one_slot(_cfg(n_nodes=1600, arrival_rate=1.0),
                                        _woken_at_once)
    assert _uniform(counters, 16, CHI2_CRIT[15])


def test_rejoin_upper_bound_flag():
    for inclusive, top in ((False, 15), (True, 16)):
        cfg = _cfg(n_nodes=500, arrival_rate=1.0, rejoin_inclusive=inclusive)
        for sim, _ in after_one_slot(cfg, _woken_at_once):
            counters = [_drawn(sim, nid) for nid in range(500)]
            assert (min(counters), max(counters)) == (0, top)


# -- arrival handling ---------------------------------------------------------

def test_arrival_wakes_idle_node_with_base_window_counter():
    """The first arrival draws the counter; the second only queues."""
    def prepare(sim):
        lay_arrivals(sim, 0, [1.0, 2.0])
    for sim, out in after_one_slot(_cfg(arrival_rate=1.0), prepare):
        assert out == ()
        assert 0 <= _drawn(sim) < 16
        assert sim.stage[0] == 0
        assert list(sim.queues[0]) == [1.0, 2.0]


def test_full_queue_drops_and_keeps_contention_untouched():
    def prepare(sim):
        load_node(sim, 0, 2, due_in=3)
        lay_arrivals(sim, 0, [1.0])
    cfg = _cfg(arrival_rate=1.0, queue_capacity=2)
    for sim, _ in after_one_slot(cfg, prepare):
        assert sim.next_tx[0] == 3
        assert sim.dropped[0] == 1 and sim.arrivals[0] == 3
        assert list(sim.queues[0]) == [0.0, 0.0]


def test_rejoin_resets_stage_without_hysteresis():
    def prepare(sim):
        sim.stage[0] = 4
        lay_arrivals(sim, 0, [1.0])
    for proto, hyst, expected_stage in [
            (Protocol.CSMA_CA, False, 0),
            (Protocol.CSMA_ECA, False, 0),
            (Protocol.CSMA_ECA, True, 4)]:
        cfg = _cfg(protocol=proto, hysteresis=hyst, arrival_rate=1.0)
        for sim, _ in after_one_slot(cfg, prepare):
            assert sim.stage[0] == expected_stage


# -- transmission outcomes ----------------------------------------------------

def test_success_delivers_fifo_batch_and_redraws():
    def prepare(sim):
        sim.queues[0].extend([0.0, 1.0, 2.0])
        sim.arrivals[0] += 3
        sim.next_tx = [0]
        sim.stage[0] = 2
    cfg = _cfg(protocol=Protocol.CSMA_CA, max_aggregation=2, queue_capacity=8)
    for sim, out in after_one_slot(cfg, prepare):
        assert out == (0,)
        assert list(sim.queues[0]) == [2.0]
        assert sim.stage[0] == 0
        assert 0 <= _drawn(sim) < 16
        assert sim.delivered[0] == 2


def test_success_on_last_packet_leaves_contention():
    for sim, out in after_one_slot(_cfg(), loading((0, 1, 0))):
        assert out == (0,)
        assert sim.delivered[0] == 1
        assert sim.next_tx[0] == -1
        assert sim.queue_empties[0] == 1


def test_collision_keeps_batch_and_escalates():
    cfg = _cfg(n_nodes=2, cw_min=16, max_stage=5)
    for sim, out in after_one_slot(cfg, loading((0, 2, 0), (1, 2, 0))):
        assert out == (0, 1)
        for nid in out:
            assert len(sim.queues[nid]) == 2  # nothing delivered
            assert sim.stage[nid] == 1
            assert 0 <= _drawn(sim, nid) < 32
            assert sim.delivered[nid] == 0
            assert sim.queue_empties[nid] == 0


def test_collision_stage_saturates_at_max_stage():
    cfg = _cfg(n_nodes=2, cw_min=16, max_stage=5)
    for sim, _ in after_one_slot(cfg, loading((0, 1, 0), (1, 1, 0), stage=5)):
        assert sim.stage[0] == 5
        assert 0 <= _drawn(sim) < 16 * 2 ** 5


def test_replenish_keeps_a_saturated_node_in_contention():
    """A success that takes the whole queue refills it, stamped at the slot's
    start, before the empty check: the node stays in contention."""
    def prepare(sim):
        assert len(sim.queues[0]) == 4 and sim.next_tx[0] >= 0
        sim.next_tx = [0]
    cfg = SimConfig(n_nodes=1, arrival_rate=SATURATED, queue_capacity=4,
                    max_aggregation=4)
    for sim, out in after_one_slot(cfg, prepare):
        assert out == (0,)
        assert sim.delivered[0] == 4
        assert _drawn(sim) is not None
        assert sim.queue_empties[0] == 0
        assert list(sim.queues[0]) == [0.0] * 4
        assert sim.arrivals[0] == 8  # the refill counts as arrivals


def test_hysteresis_rejected_for_ca():
    with pytest.raises(ConfigError):
        SimConfig(protocol=Protocol.CSMA_CA, hysteresis=True).validate()
