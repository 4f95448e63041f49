"""Slot resolution, run() against the naive reference, and conservation."""

import math
import statistics

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chain_oracle import collision_slot_fraction
from ecasim import (SATURATED, ConfigError, ConsistencyError, Protocol,
                    SimConfig, Simulation, metrics, run_simulation)
from ecasim.config import MAX_NODES, MAX_SLOT_US
from ecasim.engine import NODE_BITS
from ecasim.timing import DEFAULT_TIMING, TimingTable
from nodes import after_one_slot, lay_arrivals, load_node, loading
from reference import Reference, end_state

# hand arithmetic for the default timing table, one 12000-bit frame:
# 34 + 20 + 12000/54 + 16 + 20 + 112/24 us
SINGLE_EXCHANGE_US = 316.88888888888886
CEILING_BPS = 12000 / (SINGLE_EXCHANGE_US * 1e-6)


def _idle_cfg(**kw):
    """A config with no traffic source; tests load queues and due slots."""
    return SimConfig(arrival_rate=0.0, seed=5, **kw)


def _same(x, y):
    """Structural equality where nan == nan (reports carry nan delays)."""
    if x == y:  # the common case, without a walk
        return True
    if isinstance(x, float) and isinstance(y, float):
        return (math.isnan(x) and math.isnan(y)) or x == y
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (list, tuple)):
        return len(x) == len(y) and all(_same(a, b) for a, b in zip(x, y))
    return x == y


def _as_dict(report):
    """A report as the reference gives one: per_node rows as dicts."""
    return dict(report._asdict(),
                per_node=[row._asdict() for row in report.per_node])


def _reports_equal(a, b):
    return _same(_as_dict(a), _as_dict(b))


# -- single-slot resolution, by run() and the reference ----------------------

def test_lone_zero_counter_wins_the_slot():
    for sim, out in after_one_slot(_idle_cfg(), loading((0, 2, 0), (1, 1, 3))):
        assert out == (0,)
        assert len(sim.queues[0]) == 1 and sim.delivered == [1, 0]
        # the busy slot costs the bystander one tick
        assert sim.next_tx[1] - sim.slot == 2
        # the winner still has a packet, so it redraws from the base window
        assert 0 <= sim.next_tx[0] - sim.slot < 16
        assert sim.stage[0] == 0


def test_two_zero_counters_collide_and_escalate():
    for sim, out in after_one_slot(_idle_cfg(), loading((0, 1, 0), (1, 1, 0))):
        assert out == (0, 1)
        for nid in (0, 1):
            assert sim.stage[nid] == 1
            assert len(sim.queues[nid]) == 1  # nothing delivered
            assert 0 <= sim.next_tx[nid] - sim.slot < 32


def test_no_zero_counter_leaves_the_slot_idle():
    for sim, out in after_one_slot(_idle_cfg(), loading((0, 1, 2), (1, 1, 5))):
        assert out == ()
        assert sim.next_tx[0] - sim.slot == 1
        assert sim.next_tx[1] - sim.slot == 4


def test_deterministic_redraw_after_success():
    cfg = _idle_cfg(protocol=Protocol.CSMA_ECA)
    for sim, out in after_one_slot(cfg, loading((0, 2, 0))):
        assert out == (0,)
        assert sim.next_tx[0] - sim.slot == 7  # cw_min // 2 - 1


def test_hysteresis_scales_the_deterministic_redraw():
    cfg = _idle_cfg(protocol=Protocol.CSMA_ECA, hysteresis=True)
    for sim, out in after_one_slot(cfg, loading((0, 2, 0), stage=3)):
        assert out == (0,)
        assert sim.stage[0] == 3
        assert sim.next_tx[0] - sim.slot == (16 << 3) // 2 - 1


def test_sender_leaves_contention_when_its_queue_drains():
    for sim, out in after_one_slot(_idle_cfg(), loading((0, 1, 0))):
        assert out == (0,)
        assert sim.next_tx[0] == -1
        assert sim.queue_empties[0] == 1


def test_aggregation_drains_a_batch_per_success():
    cfg = _idle_cfg(max_aggregation=4, queue_capacity=16)
    for sim, out in after_one_slot(cfg, loading((0, 6, 0))):
        assert out == (0,)
        assert len(sim.queues[0]) == 2
        assert sim.delivered[0] == 4


def test_delivery_delay_is_one_exchange_for_an_instant_winner():
    sim = Simulation(_idle_cfg(n_nodes=1, sim_slots=10, warmup_slots=0))
    load_node(sim, 0, 1, due_in=0)   # enqueued at t = 0
    report = sim.run()
    assert report.delay_samples == 1
    assert report.mean_delay_s == pytest.approx(SINGLE_EXCHANGE_US * 1e-6,
                                                rel=1e-12)
    assert report.slots_success == 1
    assert report.slots_empty == 9


# -- run() against the naive reference (tests/reference.py) ------------------

def _assert_run_equals_stepping(cfg, prepare=None):
    """run() against the reference stepped throughout, each on a fresh
    object that prepare(sim), if given, sets up first."""
    fast_sim = Simulation(cfg)
    ref = Reference(cfg)
    if prepare is not None:
        prepare(fast_sim)
        prepare(ref)
    # run() checks its own slot and packet ledgers before it reports
    assert _same(_as_dict(fast_sim.run()), ref.run())
    assert _same(end_state(fast_sim), end_state(ref))
    return fast_sim


@pytest.mark.parametrize("cfg", [
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3, arrival_rate=200.0,
              sim_slots=3000, warmup_slots=300, seed=11),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=2, arrival_rate=800.0,
              sim_slots=2000, warmup_slots=0, seed=7),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4, arrival_rate=SATURATED,
              sim_slots=1500, warmup_slots=200, seed=3),
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=SATURATED,
              sim_slots=1500, warmup_slots=100, seed=9, cw_min=4, max_stage=1),
    # the knee regime of the load sweep: many nodes, queues that fill and
    # (with aggregation) drop
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=36, arrival_rate=120.0,
              max_aggregation=16, sim_slots=12_000, warmup_slots=1200, seed=5),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=36, arrival_rate=120.0,
              sim_slots=12_000, warmup_slots=1200, seed=5),
], ids=["ca-poisson", "eca-poisson", "eca-saturated", "ca-saturated",
        "ca-agg16-knee", "eca-knee"])
def test_run_equals_slot_by_slot_stepping(cfg):
    _assert_run_equals_stepping(cfg)


def test_every_node_id_fits_the_heap_key():
    """run()'s heap orders due << NODE_BITS | nid, which is (due, nid) order
    only while every node id fits in NODE_BITS bits."""
    assert MAX_NODES - 1 < 1 << NODE_BITS


@pytest.mark.parametrize("cfg", [
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=MAX_NODES,
              arrival_rate=SATURATED, queue_capacity=1, sim_slots=300,
              warmup_slots=50, seed=2),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=MAX_NODES,
              arrival_rate=20.0, queue_capacity=1, sim_slots=300,
              warmup_slots=50, seed=2),
], ids=["saturated", "poisson"])
def test_run_equals_stepping_at_the_most_nodes(cfg):
    """At MAX_NODES, node ids at and above 2^(NODE_BITS - 1) use the key's
    top node bit: thousands of them collide, each slot's colliders drawing
    in node id order as stepping draws them."""
    sim = _assert_run_equals_stepping(cfg)
    top = 1 << (NODE_BITS - 1)
    assert MAX_NODES > top
    assert sum(sim.node_collision[top:]) > 1000


@st.composite
def sim_configs(draw):
    """Small configs over every flag; high rates put arrivals in busy slots."""
    protocol = draw(st.sampled_from(Protocol))
    agg = draw(st.sampled_from([1, 1, 2, 3, 16]))
    sim_slots = draw(st.integers(1, 1500))
    return SimConfig(
        protocol=protocol,
        n_nodes=draw(st.integers(1, 8)),
        # at 1e-303 and 5e-324 a first gap can overflow to inf
        arrival_rate=draw(st.one_of(st.just(SATURATED), st.just(0.0),
                                    st.floats(20.0, 20_000.0),
                                    st.just(1e-303), st.just(5e-324))),
        cw_min=draw(st.sampled_from([2, 4, 8, 16, 32])),
        max_stage=draw(st.integers(0, 5)),
        queue_capacity=draw(st.one_of(st.integers(agg, agg + 2),
                                      st.just(1000))),
        max_aggregation=agg,
        hysteresis=protocol is Protocol.CSMA_ECA and draw(st.booleans()),
        rejoin_inclusive=draw(st.booleans()),
        sim_slots=sim_slots,
        warmup_slots=draw(st.one_of(st.just(0),
                                    st.integers(0, sim_slots - 1))),
        seed=draw(st.integers(0, 2**32)),
        timing=draw(st.sampled_from([
            DEFAULT_TIMING,
            TimingTable(slot_empty=10.3, payload_bits=8000),
            TimingTable(slot_empty=0.7, sifs=3.3, data_rate=7.0)])),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=sim_configs())
@example(SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=1e-303,
                   sim_slots=2000, warmup_slots=0, seed=1))
def test_run_equals_stepping_on_generated_configs(cfg):
    _assert_run_equals_stepping(cfg)


def _time_scaled(cfg, f):
    """cfg on a clock f times slower: every duration times f and every rate
    over f, so with f a power of two each instant is exactly f times as
    large."""
    t = cfg.timing
    return cfg._replace(arrival_rate=cfg.arrival_rate / f, timing=t._replace(
        slot_empty=t.slot_empty * f, sifs=t.sifs * f, difs=t.difs * f,
        phy_header=t.phy_header * f, data_rate=t.data_rate / f,
        ack_rate=t.ack_rate / f))


@settings(max_examples=300, deadline=None)
@given(cfg=sim_configs(), k=st.sampled_from([1, -3, 5]))
@example(cfg=SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=12,
                       arrival_rate=300.0, max_aggregation=4, hysteresis=True,
                       sim_slots=6000, warmup_slots=3000, seed=2), k=5)
@example(cfg=SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=5,
                       arrival_rate=SATURATED, sim_slots=20_000,
                       warmup_slots=0, seed=4), k=-3)
def test_reports_scale_exactly_with_the_clock(cfg, k):
    """A metamorphic check of the code run() and the reference share
    (exchange_us and the arrival draws' expovariate), which comparing the
    two cannot see: on a clock 2^k times slower, every count and
    ratio is equal, every duration and delay is exactly 2^k times as large,
    and throughput exactly 2^-k times as large."""
    f = 2.0 ** k
    scaled_cfg = _time_scaled(cfg, f)
    try:
        scaled_cfg.validate()
    except ConfigError:
        assume(False)
    base, scaled = run_simulation(cfg), run_simulation(scaled_cfg)
    expected = base._replace(
        duration_s=base.duration_s * f, mean_delay_s=base.mean_delay_s * f,
        throughput_bps=base.throughput_bps / f,
        per_node=[row._replace(mean_delay_s=row.mean_delay_s * f)
                  for row in base.per_node])
    assert _reports_equal(scaled, expected)


@settings(max_examples=150, deadline=None)
@given(cfg=sim_configs(), k=st.sampled_from([1, 3, 5]))
@example(cfg=SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3,
                       arrival_rate=2000.0, max_aggregation=16,
                       queue_capacity=16, sim_slots=1500, warmup_slots=300,
                       seed=3), k=3)
def test_reports_scale_exactly_with_the_payload(cfg, k):
    """A metamorphic check of the shared code, like the clock scale: with
    payload_bits and data_rate both 2^k times as large, every exchange lasts
    just as long, so the run is the same, and only the delivered bits and
    throughput are exactly 2^k times as large."""
    f = 2 ** k
    t = cfg.timing
    scaled = run_simulation(cfg._replace(timing=t._replace(
        payload_bits=t.payload_bits * f, data_rate=t.data_rate * f)))
    base = run_simulation(cfg)
    expected = base._replace(
        throughput_bps=base.throughput_bps * f,
        delivered_bits=base.delivered_bits * f,
        per_node=[row._replace(delivered_bits=row.delivered_bits * f)
                  for row in base.per_node])
    assert _reports_equal(scaled, expected)


@settings(max_examples=150, deadline=None)
@given(cfg=sim_configs())
@example(SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=6, cw_min=4,
                   max_stage=0, arrival_rate=SATURATED, sim_slots=1500,
                   warmup_slots=0, seed=2))
def test_hysteresis_is_inert_at_max_stage_0(cfg):
    """At max_stage 0 every stage is 0, so csma-eca's hysteresis keeps
    nothing and its post-success counter is the plain one: the run is the
    same with or without it."""
    eca = cfg._replace(protocol=Protocol.CSMA_ECA, max_stage=0,
                       hysteresis=False)
    assert _reports_equal(run_simulation(eca._replace(hysteresis=True)),
                          run_simulation(eca))


@st.composite
def saturated_configs(draw, protocols=tuple(Protocol)):
    """Saturated configs for run()'s saturated driver; csma-eca can settle,
    so run() replays whole periods.

    Node counts run from 1 (whose heap is empty after each pop) to two past
    cw_min/2, where the non-hyst schedule cannot fit; warmup lands at 0,
    anywhere, before the usual settle point or after it, and sim_slots ends
    wherever it ends, mostly mid-period.  Queues run from one batch deep to
    1000.  Aggregated runs (agg 2 and 16) are never replayed and must agree
    all the same.
    """
    protocol = draw(st.sampled_from(protocols))
    cw_min = draw(st.sampled_from([2, 4, 8, 16, 32]))
    agg = draw(st.sampled_from([1, 1, 2, 16]))
    sim_slots = draw(st.integers(1, 20_000))
    return SimConfig(
        protocol=protocol,
        n_nodes=draw(st.integers(1, cw_min // 2 + 2)),
        arrival_rate=SATURATED,
        cw_min=cw_min,
        max_stage=draw(st.integers(0, 5)),
        queue_capacity=draw(st.sampled_from([agg, agg + 1, 1000])),
        max_aggregation=agg,
        hysteresis=protocol is Protocol.CSMA_ECA and draw(st.booleans()),
        rejoin_inclusive=draw(st.booleans()),
        sim_slots=sim_slots,
        warmup_slots=draw(st.one_of(
            st.just(0), st.integers(0, sim_slots - 1),
            st.integers(0, min(300, sim_slots - 1)),
            st.integers(sim_slots // 2, sim_slots - 1))),
        seed=draw(st.integers(0, 2**32)),
        timing=draw(st.sampled_from([
            DEFAULT_TIMING,
            TimingTable(slot_empty=10.3, payload_bits=8000),
            TimingTable(slot_empty=0.7, sifs=3.3, data_rate=7.0)])),
    )


def _eca(**kw):
    return SimConfig(protocol=Protocol.CSMA_ECA, arrival_rate=SATURATED, **kw)


# each settles and replays: settle_slot must come back set
REPLAYED = [
    _eca(n_nodes=2, sim_slots=5003, warmup_slots=0, seed=1),
    # warmup after the settle point (547), then before it (10099)
    _eca(n_nodes=8, sim_slots=20_000, warmup_slots=5000, seed=1),
    _eca(n_nodes=8, sim_slots=14_007, warmup_slots=2000, seed=5),
    _eca(n_nodes=3, cw_min=8, sim_slots=7777, warmup_slots=7000, seed=3,
         timing=TimingTable(slot_empty=0.7, sifs=3.3, data_rate=7.0)),
    _eca(n_nodes=1, cw_min=2, sim_slots=999, warmup_slots=0, seed=4),
    # hyst settles with periods of 8, 16 and 32 slots side by side
    _eca(n_nodes=6, cw_min=8, hysteresis=True, max_stage=3,
         sim_slots=12_345, warmup_slots=100, seed=2,
         timing=TimingTable(slot_empty=10.3, payload_bits=8000)),
    # early on a node is due past its own 2-slot period but inside the
    # 8-slot hyperperiod, which must not pass for settled
    _eca(n_nodes=3, cw_min=4, hysteresis=True, max_stage=3, sim_slots=2658,
         warmup_slots=0, seed=530462),
]


@settings(max_examples=100, deadline=None)
@given(cfg=saturated_configs([Protocol.CSMA_ECA]))
@example(REPLAYED[0])
@example(REPLAYED[1])
@example(REPLAYED[2])
@example(REPLAYED[3])
@example(REPLAYED[4])
@example(REPLAYED[5])
@example(REPLAYED[6])
# aggregated, so stepped throughout even though its schedule settles
@example(_eca(n_nodes=4, max_aggregation=16, queue_capacity=17, sim_slots=9001,
              warmup_slots=3000, seed=2))
# a short queue: the replay pops stamps that it refilled inside the window,
# so each delay's float operations must be stepping's, in stepping's order
@example(_eca(n_nodes=2, cw_min=8, queue_capacity=4, sim_slots=3000,
              warmup_slots=500, seed=1))
def test_settled_replay_equals_stepping(cfg):
    sim = _assert_run_equals_stepping(cfg)
    if cfg in REPLAYED:
        assert sim.settle_slot is not None


# many_cells_pool's saturated agg=16 cell: each success takes one whole run
# of 16 equal stamps and appends one
MANY_CELLS_AGG16 = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=16,
                             arrival_rate=SATURATED, max_aggregation=16,
                             queue_capacity=16, sim_slots=2000,
                             warmup_slots=200, seed=5)


@settings(max_examples=100, deadline=None)
@given(cfg=saturated_configs())
@example(MANY_CELLS_AGG16)
@example(_eca(n_nodes=1, cw_min=2, max_aggregation=2, queue_capacity=2,
              sim_slots=999, warmup_slots=500, seed=4))
# 24 % 16 != 0: the first success (slot 6, where the window opens) leaves 8
# stamps of 0.0, so the second takes them, before the window, with the first
# 8 of the run stamped warm_end itself, inside it
@example(_eca(n_nodes=1, max_aggregation=16, queue_capacity=24, sim_slots=100,
              warmup_slots=6, seed=4))
def test_saturated_driver_equals_stepping(cfg):
    """The saturated driver against the reference: report, end state and
    RNG states (in _end_state), and run()'s counters.  A saturated run
    draws no arrival and wakes no node, and only csma-eca at agg 1
    replays."""
    sim = _assert_run_equals_stepping(cfg)
    busy = sim.slot - sim.empty_count  # equal to stepping's, checked above
    assert sim.drawn_arrivals == sim.wakes == 0
    assert sum(sim.queue_empties) == 0
    assert all(len(q) == cfg.queue_capacity for q in sim.queues)
    if sim.replayed_slots == 0:
        assert sim.stepped_slots == busy
    else:
        assert cfg.protocol is Protocol.CSMA_ECA and cfg.max_aggregation == 1
        assert sim.settle_slot is not None
        assert sim.replayed_slots % _hyperperiod(sim) == 0
        assert sim.stepped_slots < busy
        assert sim.stepped_slots + sim.replayed_slots <= cfg.sim_slots


def _restamp(step):
    """prepare() for _assert_run_equals_stepping: every queue restamped
    inside the first exchange, ascending, each stamp repeated step times
    (1: sorted distinct, 2: pairwise equal), so no delay is negative and
    warmup can fall between the stamps."""
    def prepare(sim):
        cfg, t = sim.cfg, sim.cfg.timing
        first = t.exchange_us(cfg.max_aggregation * t.payload_bits)
        cap = cfg.queue_capacity
        for q in sim.queues:
            q.clear()
            q.extend(first * (i // step) / cap for i in range(cap))
    return prepare


@settings(max_examples=100, deadline=None)
@given(cfg=saturated_configs())
@example(_eca(n_nodes=2, cw_min=4, max_aggregation=16, queue_capacity=40,
              sim_slots=600, warmup_slots=1, seed=3))
def test_saturated_driver_equals_stepping_on_caller_stamps(cfg):
    """A caller's own stamps, set before run(): at agg > 1 the driver's
    first runs are then short, and a batch spans many of them."""
    for step in (1, 2):
        _assert_run_equals_stepping(cfg, _restamp(step))


def test_run_refuses_a_saturated_queue_the_caller_shortened():
    """The saturated driver relies on every queue being full; run() refuses
    a saturated Simulation one of whose queues a caller has shortened."""
    cfg = _eca(n_nodes=3, sim_slots=500, warmup_slots=0, seed=1)
    sim = Simulation(cfg)
    sim.queues[1].popleft()
    sim.arrivals[1] -= 1
    with pytest.raises(AssertionError, match="every queue full"):
        sim.run()


# -- wakes inside the bulk skip, replays from slot 0, and run()'s counters ----

NON_DYADIC = TimingTable(slot_empty=10.3, payload_bits=8000)

# sparse Poisson traffic on a non-dyadic clock: queues keep draining, and most
# wakes fall inside idle gaps, where run() resolves the wake slot in the skip
WAKES = [
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=1, arrival_rate=400.0,
              sim_slots=20_000, warmup_slots=0, seed=1, timing=NON_DYADIC),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=2, arrival_rate=120.0,
              sim_slots=20_000, warmup_slots=7001, seed=2, timing=NON_DYADIC),
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3, arrival_rate=500.0,
              rejoin_inclusive=True, sim_slots=12_000, warmup_slots=3000,
              seed=3, timing=NON_DYADIC),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4, arrival_rate=300.0,
              hysteresis=True, max_stage=3, sim_slots=12_000,
              warmup_slots=999, seed=4, timing=NON_DYADIC),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4, arrival_rate=500.0,
              max_aggregation=2, queue_capacity=3, sim_slots=12_000,
              warmup_slots=5, seed=5, timing=NON_DYADIC),
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=250.0,
              sim_slots=20_000, warmup_slots=1234, seed=6, timing=NON_DYADIC),
]


@pytest.mark.parametrize("cfg", WAKES)
def test_run_equals_stepping_when_nodes_wake_inside_idle_gaps(cfg):
    sim = _assert_run_equals_stepping(cfg)
    assert sum(sim.queue_empties) >= 30  # each empty queue waits for a wake


def test_an_arrival_at_a_slot_end_wakes_its_node_in_the_next_slot():
    """From an empty clock stepping ends slot k at se * k + se, which need
    not be (k + 1) * se.  An arrival at exactly that end lands in slot k + 1
    and one an ulp before it in slot k, whichever way the two roundings
    differ, and run() finds the same wake slot inside its skip."""
    se = NON_DYADIC.slot_empty
    ends_above = [k for k in range(1, 100) if se * k + se > (k + 1) * se]
    ends_below = [k for k in range(1, 100) if se * k + se < (k + 1) * se]
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=1, arrival_rate=1.0,
                    sim_slots=200, warmup_slots=0, seed=1, timing=NON_DYADIC)
    for k in ends_above[:2] + ends_below[:2]:
        end = se * k + se
        for arrival, wake_slot in ((end, k + 1),
                                   (math.nextafter(end, 0.0), k)):
            slow = Reference(cfg)
            lay_arrivals(slow, 0, [arrival])
            while slow.next_tx[0] < 0:
                slow.step()
            assert slow.slot - 1 == wake_slot
            _assert_run_equals_stepping(
                cfg, lambda sim: lay_arrivals(sim, 0, [arrival]))


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("boundary", ["stepped", "warmup", "end", "drain"])
def test_an_arrival_on_a_boundary_lands_as_stepping_lands_it(boundary, side):
    """After k idle slots stepping begins slot k at the end of slot k - 1,
    se * (k - 1) + se, which need not be se * k.  An arrival at the lower of
    the two, at a contending node, lands as stepping lands it: before the
    node's batch in slot k is fixed, before the window opens at warmup_slots
    k, and before a run of k slots ends, only if it is before that end.  With
    the end below se * k the arrival sits exactly on it.  The drain case
    lays two arrivals in slot k - 1, the second exactly on its end, at a
    full queue: stepping's one read of the slot drops only the first before
    the window opens."""
    se = NON_DYADIC.slot_empty
    k = next(k for k in range(1, 100)
             if (se * (k - 1) + se < se * k) == (side == "below")
             and se * (k - 1) + se != se * k)
    arrival = min(se * (k - 1) + se, se * k)
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=1, arrival_rate=1.0,
                    max_aggregation=2, queue_capacity=2,
                    sim_slots=k if boundary == "end" else k + 40,
                    warmup_slots=k if boundary in ("warmup", "drain") else 0,
                    seed=1, timing=NON_DYADIC)

    def prepare(sim):
        # one packet, so the arrival would join its batch, or a full queue
        # due past the boundary, so that it is dropped
        if boundary == "stepped":
            load_node(sim, 0, 1, due_in=k)
        else:
            load_node(sim, 0, 2, due_in=k + 3)
        if boundary == "drain":
            end = se * (k - 1) + se
            lay_arrivals(sim, 0, [math.nextafter(end, 0.0), end])
        else:
            lay_arrivals(sim, 0, [arrival])

    _assert_run_equals_stepping(cfg, prepare)


def test_run_equals_stepping_when_silent_nodes_empty_their_queues():
    """A silent node's stream never fires, so a loaded node that empties
    its queue waits in run()'s arrival heap on inf for good, as a node idle
    from the start does; nothing wakes it and nothing is drawn."""
    cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4, arrival_rate=0.0,
                    max_aggregation=2, queue_capacity=5, sim_slots=400,
                    warmup_slots=37, seed=8, timing=NON_DYADIC)

    def prepare(sim):
        # nodes 1 and 2 collide in slot 2; node 3 never holds a packet
        for nid, (packets, due_in) in enumerate([(5, 0), (3, 2), (1, 2)]):
            load_node(sim, nid, packets, due_in)

    sim = _assert_run_equals_stepping(cfg, prepare)
    assert sim.queue_empties == [1, 1, 1, 0]
    assert sim.last_collision_slot >= 2
    assert sim.wakes == sim.drawn_arrivals == 0


# a saturated schedule that settles long before a warmup_slots that falls
# mid-hyperperiod: run() replays up to the last whole hyperperiod before
# the window, steps to it, and replays the rest.  In the last, warmup_slots
# is a multiple of the period, so the replay ends on it and the check that
# reopens the replay runs in the window's phase.
EARLY_SETTLED = [
    _eca(n_nodes=2, sim_slots=5003, warmup_slots=2001, seed=1),
    _eca(n_nodes=6, cw_min=8, hysteresis=True, max_stage=3, sim_slots=12_345,
         warmup_slots=9001, seed=2, timing=NON_DYADIC),
    _eca(n_nodes=4, sim_slots=6003, warmup_slots=1024, seed=5),
]


@pytest.mark.parametrize("cfg", EARLY_SETTLED)
def test_settled_replay_stops_short_of_a_mid_hyperperiod_warmup(cfg):
    sim = _assert_run_equals_stepping(cfg)
    assert sim.settle_slot is not None
    assert sim.settle_slot < cfg.warmup_slots
    # more slots were replayed than the window holds, so some were before it
    assert sim.replayed_slots > cfg.sim_slots - cfg.warmup_slots


def _hyperperiod(sim):
    cfg = sim.cfg
    if cfg.hysteresis:
        return max((cfg.cw_min << st) // 2 for st in sim.stage)
    return cfg.cw_min // 2


@settings(max_examples=60, deadline=None)
@given(cfg=st.one_of(sim_configs(), saturated_configs()))
@example(WAKES[1])
@example(WAKES[3])
def test_run_counts_its_stepped_and_replayed_slots(cfg):
    """stepped_slots counts the busy slots either driver stepped and
    replayed_slots the slots settled replays covered; only a run that can
    replay has any replayed slots."""
    sim = Simulation(cfg)
    sim.run()
    stepper = Reference(cfg)
    busy = sum(bool(stepper.step()) for _ in range(cfg.sim_slots))
    replayable = (cfg.saturated and cfg.protocol is Protocol.CSMA_ECA
                  and cfg.max_aggregation == 1)
    if not replayable:
        assert sim.replayed_slots == 0
    if sim.replayed_slots == 0:
        assert sim.stepped_slots == busy
    else:
        assert sim.replayed_slots % _hyperperiod(sim) == 0
        assert sim.stepped_slots < busy
        assert sim.stepped_slots + sim.replayed_slots <= cfg.sim_slots


@settings(max_examples=100, deadline=None)
@given(cfg=sim_configs())
@example(WAKES[2])
@example(SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=3,
                   arrival_rate=20_000.0, max_aggregation=16,
                   queue_capacity=16, sim_slots=3000, warmup_slots=1500,
                   seed=1))
def test_run_counts_its_draws_and_wakes(cfg):
    """Outside a sweep a Poisson stream draws each arrival it applies and
    the one after its last: drawn_arrivals is sum(arrivals) + n_nodes.  Each
    wake puts an idle node into contention, which it leaves only when its
    queue empties: wakes is sum(queue_empties) plus the nodes contending at
    the end.  Saturated and silent runs draw nothing and wake no node."""
    sim = Simulation(cfg)
    sim.run()
    contending = sum(due >= 0 for due in sim.next_tx)
    if 0 < cfg.arrival_rate < math.inf:
        assert sim.drawn_arrivals == sum(sim.arrivals) + cfg.n_nodes
        assert sim.wakes == sum(sim.queue_empties) + contending
    else:
        assert sim.drawn_arrivals == sim.wakes == 0


@pytest.mark.parametrize("cfg", REPLAYED + EARLY_SETTLED)
def test_replayed_slots_are_whole_hyperperiods(cfg):
    sim = Simulation(cfg)
    sim.run()
    assert sim.replayed_slots > 0
    assert sim.replayed_slots % _hyperperiod(sim) == 0


# -- the edges of the validated envelope ---------------------------------------

EDGE_RATES = [0.0, 5e-324, 1e-303, 120.0, 1e6, 1e9, SATURATED]
# from the smallest float up to the slot bound, and past it
EDGE_TIMES = [5e-324, 1e-3, 1.0, MAX_SLOT_US / 4, MAX_SLOT_US,
              2 * MAX_SLOT_US, 1e300]
FLOAT_TIMES = [name for name, value in DEFAULT_TIMING._asdict().items()
               if type(value) is float]
# a slot of a few ns, so that even 1e9 packets/s is a few arrivals per slot
TINY_TIMING = TimingTable(slot_empty=1e-3, sifs=1e-3, difs=1e-3,
                          phy_header=1e-3, data_rate=1e300, ack_rate=1e300)


@st.composite
def edge_configs(draw):
    """Configs at the edges of what validate() accepts, and just past them.

    At high rates sim_slots shrinks, so that an example expects at most
    about 1e5 arrivals, and a rate that expects more in one slot is not
    drawn at all.
    """
    edges = draw(st.sets(st.sampled_from(FLOAT_TIMES), max_size=2))
    timing = draw(st.sampled_from([DEFAULT_TIMING, TINY_TIMING]))._replace(
        **{name: draw(st.sampled_from(EDGE_TIMES)) for name in sorted(edges)})
    protocol = draw(st.sampled_from(Protocol))
    agg = draw(st.sampled_from([1, 2, 16]))
    n = draw(st.integers(1, 4))
    longest = max(timing.slot_empty,
                  timing.exchange_us(agg * timing.payload_bits))
    per_slot = {rate: n * rate * 1e-6 * longest if 0 < rate < math.inf
                else 0.0 for rate in EDGE_RATES}  # expected arrivals
    if longest <= MAX_SLOT_US:  # valid timing: keep the run affordable
        per_slot = {r: a for r, a in per_slot.items() if a <= 1e5}
    rate = draw(st.sampled_from(sorted(per_slot)))
    most = int(min(3000, 1e5 / per_slot[rate])) if per_slot[rate] else 3000
    sim_slots = draw(st.integers(1, max(1, most)))
    return SimConfig(
        protocol=protocol,
        n_nodes=n,
        arrival_rate=rate,
        cw_min=draw(st.sampled_from([2, 4, 16, 2**10, 2**20])),
        max_stage=draw(st.integers(0, 10)),
        queue_capacity=draw(st.integers(agg, agg + 3)),
        max_aggregation=agg,
        hysteresis=protocol is Protocol.CSMA_ECA and draw(st.booleans()),
        rejoin_inclusive=draw(st.booleans()),
        sim_slots=sim_slots,
        warmup_slots=draw(st.one_of(st.just(0),
                                    st.integers(0, sim_slots - 1))),
        seed=draw(st.integers(0, 2**32)),
        timing=timing,
    )


@settings(max_examples=200, deadline=None)
@given(cfg=edge_configs())
# all 200 slots idle, 1e-323 us in all: the window's duration rounds to 0 s
@example(SimConfig(n_nodes=2, arrival_rate=100.0, sim_slots=200,
                   warmup_slots=0, timing=TimingTable(slot_empty=5e-324)))
@example(SimConfig(n_nodes=4, arrival_rate=1e9, queue_capacity=3,
                   sim_slots=3000, warmup_slots=0, timing=TINY_TIMING))
@example(SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=3, cw_min=2**20,
                   max_stage=10, arrival_rate=SATURATED, queue_capacity=1,
                   sim_slots=3000, warmup_slots=0, seed=2))
def test_edge_configs_fail_validation_or_run_alike(cfg):
    """Every config either fails validate() or runs under both drivers to
    equal reports and end state."""
    try:
        cfg.validate()
    except ConfigError:
        return
    _assert_run_equals_stepping(cfg)


def test_run_refuses_a_full_idle_queue():
    """A caller can fill an idle node's queue, which arrivals would then
    never wake; run() refuses that state."""
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=2000.0,
                    queue_capacity=2, sim_slots=2000, warmup_slots=500, seed=4)
    sim = Simulation(cfg)
    load_node(sim, 0, 2)
    with pytest.raises(AssertionError, match="no idle node holding packets"):
        sim.run()


def test_run_refuses_a_simulation_it_already_ran():
    """run() starts from slot 0; it does not carry on after a run."""
    sim = Simulation(SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2,
                               arrival_rate=500.0, sim_slots=500,
                               warmup_slots=0, seed=1))
    sim.run()
    with pytest.raises(AssertionError, match="fresh Simulation"):
        sim.run()


# -- arrivals at active nodes, which run() applies only where they matter -----

def test_run_equals_stepping_with_drops_on_both_sides_of_warmup():
    """Full queues drop arrivals before and after the warmup boundary; only
    those landing from the end of slot warmup_slots - 1 on are counted."""
    cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=3,
                    arrival_rate=20_000.0, max_aggregation=16,
                    queue_capacity=16, sim_slots=3000, warmup_slots=1500,
                    seed=1)
    sim = _assert_run_equals_stepping(cfg)
    report = metrics.report(sim)
    assert report.drops > 0
    assert sum(sim.dropped) > report.drops


@pytest.mark.parametrize("cfg", [
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=3, arrival_rate=20_000.0,
              max_aggregation=16, queue_capacity=16, sim_slots=3000,
              warmup_slots=1500, seed=1),
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3, arrival_rate=3000.0,
              max_aggregation=2, queue_capacity=3, sim_slots=3000,
              warmup_slots=0, seed=2),
    _eca(n_nodes=8, sim_slots=8000, warmup_slots=2000, seed=1),
], ids=["drops-both-sides", "warmup-0", "eca-settles"])
def test_report_counts_only_the_window_from_warmup_slots(cfg):
    """run() reports whole-run tallies minus a snapshot taken when slot
    warmup_slots begins; the reference counts only the slots from there on.
    The two agree, and the window leaves out what came before it: at
    drops-both-sides, full queues drop arrivals on both sides of the warmup
    boundary, and only those landing from the end of slot warmup_slots - 1
    on are counted."""
    sim = _assert_run_equals_stepping(cfg)
    report = metrics.report(sim)
    empties = sum(row.queue_empty_events for row in report.per_node)
    if cfg.saturated:  # collides during warmup only, then settles
        assert 0 < sim.last_collision_slot < cfg.warmup_slots
        assert report.slots_collision == 0 and report.delivered_packets > 0
    else:
        assert report.drops > 0 and empties > 0
        assert report.slots_collision > 0
        # and with a warmup, both happen before the window too
        assert ((report.drops < sum(sim.dropped))
                == (empties < sum(sim.queue_empties))
                == (cfg.warmup_slots > 0))


def test_run_equals_stepping_when_a_node_rejoins_beside_backlogged_ones():
    """Node 0 keeps emptying its queue and waking again while other nodes
    hold several packets and so never leave contention.  The run ends in an
    idle gap whose last slot ends an ulp away from the clock's now_us."""
    cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4, arrival_rate=650.0,
                    sim_slots=4901, warmup_slots=500, seed=1,
                    timing=TimingTable(slot_empty=10.3, payload_bits=8000))
    sim = _assert_run_equals_stepping(cfg)
    # only a success empties a queue, so a second empty event means node 0
    # transmitted again after the first
    assert sim.queue_empties[0] >= 2
    stepped, rejoins = Reference(cfg), 0
    while stepped.slot < cfg.sim_slots:
        idle = stepped.next_tx[0] < 0
        start_us = stepped.now_us
        out = stepped.step()
        if (idle and stepped.next_tx[0] >= 0
                and any(len(q) > 1 for q in stepped.queues[1:])):
            rejoins += 1
    assert rejoins >= 2
    # run()'s final catch-up must reach this end, not the clock's now_us
    assert out == ()
    assert start_us + cfg.timing.slot_empty != stepped.now_us


# -- conservation grid --------------------------------------------------------

GRID = [
    SimConfig(protocol=p, n_nodes=n, arrival_rate=rate,
              sim_slots=4000, warmup_slots=500, seed=seed)
    for p in (Protocol.CSMA_CA, Protocol.CSMA_ECA)
    for rate in (150.0, SATURATED, 0.0)
    for n in (1, 3)
    for seed in (1, 2)
]


@pytest.mark.parametrize("cfg", GRID)
def test_conservation(cfg):
    report = run_simulation(cfg)
    counted = cfg.sim_slots - cfg.warmup_slots
    assert report.slots_total == counted
    assert (report.slots_empty + report.slots_success
            + report.slots_collision == counted)
    assert report.successes == report.slots_success
    assert report.collisions >= 2 * report.slots_collision
    assert report.transmissions == report.successes + report.collisions
    assert report.throughput_bps <= CEILING_BPS * (1 + 1e-9)
    if report.delay_samples:
        assert report.mean_delay_s >= SINGLE_EXCHANGE_US * 1e-6 * (1 - 1e-12)
    else:
        assert math.isnan(report.mean_delay_s)
    assert report.empty_run == (report.transmissions == 0)
    if cfg.saturated:
        assert report.queue_empty_per_tx == 0.0
        assert all(s.queue_empty_events == 0 for s in report.per_node)
        assert all(s.end_queue == cfg.queue_capacity for s in report.per_node)
    if cfg.arrival_rate == 0.0:
        assert report.slots_empty == counted
        assert report.throughput_bps == 0.0
        assert report.avg_end_queue == 0.0
    if cfg.n_nodes == 1:
        assert report.slots_collision == 0


def test_runs_are_deterministic():
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=4, arrival_rate=300.0,
                    sim_slots=20_000, warmup_slots=2000, seed=42)
    assert _reports_equal(run_simulation(cfg), run_simulation(cfg))


def test_different_seeds_give_different_runs():
    base = dict(protocol=Protocol.CSMA_CA, n_nodes=4, arrival_rate=300.0,
                sim_slots=20_000, warmup_slots=2000)
    a = run_simulation(SimConfig(seed=1, **base))
    b = run_simulation(SimConfig(seed=2, **base))
    assert not _reports_equal(a, b)


def test_overload_drops_and_still_balances_the_ledger():
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=5000.0,
                    queue_capacity=2, sim_slots=20_000, warmup_slots=1000,
                    seed=8)
    report = run_simulation(cfg)  # report() checks the packet ledger
    assert report.drops > 0
    assert report.drops == sum(s.drops for s in report.per_node)


def test_finalize_rejects_an_unbalanced_packet_ledger():
    sim = Simulation(SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2,
                               arrival_rate=500.0, sim_slots=500,
                               warmup_slots=0, seed=1))
    sim.run()
    sim.arrivals[0] += 1
    with pytest.raises(ConsistencyError,
                       match="packet ledger mismatch for node 0"):
        metrics.report(sim)


def test_finalize_rejects_a_saturated_node_that_ran_dry():
    sim = Simulation(_eca(n_nodes=2, sim_slots=500, warmup_slots=0, seed=1))
    sim.run()
    sim.queue_empties[0] = 1
    with pytest.raises(ConsistencyError,
                       match="saturated node 0 ran out of traffic"):
        metrics.report(sim)


# -- convergence to the deterministic schedule --------------------------------

def test_saturated_deterministic_schedule_settles():
    cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=4,
                    arrival_rate=SATURATED, sim_slots=90_000,
                    warmup_slots=10_000, seed=1)
    report = run_simulation(cfg)
    counted = cfg.sim_slots - cfg.warmup_slots
    assert report.slots_collision == 0
    # each node fires once per 8 slots, so the 4 nodes fill half the slots
    assert report.slots_success == counted // 2
    assert all(s.transmissions == counted // 8 for s in report.per_node)
    assert all(s.collisions == 0 for s in report.per_node)


def test_random_backoff_keeps_colliding_in_saturation():
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=4,
                    arrival_rate=SATURATED, sim_slots=90_000,
                    warmup_slots=10_000, seed=1)
    report = run_simulation(cfg)
    assert report.slots_collision > 0


def test_full_schedule_eventually_stops_colliding():
    """Settling is slow when nodes fill every schedule position (n=8), but a
    collision-free suffix always arrives; seed 5 is a known slow settler."""
    for n, seed in ((2, 1), (8, 1), (8, 5)):
        cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=n,
                        arrival_rate=SATURATED, sim_slots=60_001,
                        warmup_slots=60_000, seed=seed)
        sim = Simulation(cfg)
        sim.run()
        assert sim.last_collision_slot < 40_000, (n, seed)


@pytest.mark.parametrize("cfg", [
    _eca(n_nodes=n, sim_slots=40_000, warmup_slots=0, seed=1) for n in (2, 4, 8)
] + [
    _eca(n_nodes=6, cw_min=8, hysteresis=True, max_stage=3, sim_slots=40_000,
         warmup_slots=0, seed=2),
], ids=["n2", "n4", "n8", "n6-hyst"])
def test_settle_slot_is_reported_for_settling_runs(cfg):
    sim = Simulation(cfg)
    sim.run()
    assert sim.settle_slot == sim.last_collision_slot + 1
    # stepping agrees on where the last collision was
    stepped = Reference(cfg)
    stepped.run()
    assert stepped.last_collision_slot == sim.last_collision_slot
    tail = cfg._replace(warmup_slots=sim.settle_slot)
    assert run_simulation(tail).slots_collision == 0


@pytest.mark.parametrize("cfg", [
    SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2, arrival_rate=SATURATED,
              sim_slots=40_000, warmup_slots=0, seed=1),
    SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=2, arrival_rate=50.0,
              sim_slots=40_000, warmup_slots=0, seed=1),
    _eca(n_nodes=9, sim_slots=40_000, warmup_slots=0, seed=1),
    _eca(n_nodes=2, max_aggregation=2, queue_capacity=2, sim_slots=40_000,
         warmup_slots=0, seed=1),
], ids=["ca", "eca-poisson", "eca-n-above-half-cw", "eca-aggregated"])
def test_settle_slot_is_none_where_no_schedule_settles(cfg):
    sim = Simulation(cfg)
    sim.run()
    assert sim.settle_slot is None


def test_check1_settling_quantiles():
    """The settling figures quoted in tests/test_acceptance.py's docstring:
    eight saturated csma-eca nodes at cw_min=16, seeds 1..200."""
    settle = {}
    for seed in range(1, 201):
        sim = Simulation(_eca(n_nodes=8, cw_min=16, sim_slots=50_000,
                              warmup_slots=0, seed=seed))
        sim.run()
        settle[seed] = sim.settle_slot
    assert None not in settle.values()
    q = statistics.quantiles(settle.values(), n=100)
    assert (q[49], q[89], q[98]) == (4056, 13908.5, 27806.12)
    assert sum(s > 10_000 for s in settle.values()) == 40  # one in five
    slow = {seed for seed in range(1, 11) if settle[seed] > 10_000}
    assert slow == {5, 6, 8, 10}
    assert all(settle[seed] < 20_000 for seed in slow)


def test_deterministic_backoff_collides_again_when_queues_drain():
    """At half utilization nodes keep leaving and rejoining with random
    counters, so collisions and queue-empty events both stay positive."""
    rate = 0.5 * CEILING_BPS / (12000 * 8)
    for seed in range(1, 11):
        cfg = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=8,
                        arrival_rate=rate, cw_min=16, sim_slots=150_000,
                        warmup_slots=10_000, seed=seed)
        report = run_simulation(cfg)
        assert report.slots_collision > 0, seed
        assert sum(s.queue_empty_events for s in report.per_node) > 0, seed


def test_collision_fraction_tracks_the_chain_model():
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=2,
                    arrival_rate=SATURATED, cw_min=4, max_stage=1,
                    sim_slots=220_000, warmup_slots=20_000, seed=1)
    report = run_simulation(cfg)
    expected = collision_slot_fraction(4, 1)
    assert report.collision_fraction == pytest.approx(expected, rel=0.05)


# -- inactivity ----------------------------------------------------------------

def test_idle_nodes_are_not_scheduled():
    for sim, out in after_one_slot(_idle_cfg(), lambda sim: None):
        assert sim.next_tx == [-1, -1]
        assert out == ()
