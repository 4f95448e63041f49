"""Accounting: slot ledger, delay sampling, ratios, the measured window, and
end-of-run markers.  A Simulation's tallies are written here as run()'s
drivers write them, and metrics.report() reads them."""

import math

import pytest

from ecasim import ConsistencyError, SimConfig, Simulation, metrics
from ecasim.timing import TimingTable
from nodes import lay_arrivals, load_node, loading
from reference import Reference


def _sim(n_nodes=2, slot_empty_us=9.0, open_window=True):
    """A Simulation whose tallies the test writes; the window opens at 0.0
    before anything is counted, unless open_window is False."""
    sim = Simulation(SimConfig(n_nodes=n_nodes, arrival_rate=0.0,
                               timing=TimingTable(slot_empty=slot_empty_us)))
    if open_window:
        sim.open_window(0.0, empty_count=0)
    return sim


def _report(sim, empty_count, expected_slots):
    """The report after empty_count empty slots in all, of a window of
    expected_slots slots; report() reads that length from cfg, set here
    after set-up since validate() refuses a window of 0 slots."""
    sim.empty_count = empty_count
    sim.cfg = sim.cfg._replace(sim_slots=expected_slots, warmup_slots=0)
    return metrics.report(sim)


def _success(sim, node_id, duration_us, batch_size=1):
    """A success slot as run() counts it: its time, its sender's success and
    the packets it delivered, which arrived first.  An empty slot is only
    the clock's empty_count, passed to _report()."""
    sim.window_busy_us += duration_us
    sim.node_success[node_id] += 1
    sim.arrivals[node_id] += batch_size
    sim.delivered[node_id] += batch_size


def _collision(sim, nodes, duration_us):
    sim.window_busy_us += duration_us
    sim.slots_collision += 1
    for nid in nodes:
        sim.node_collision[nid] += 1


def _sample(sim, node_id, delay_us):
    """One delay sample, as run() adds it."""
    sim.delay_sum_us += delay_us
    sim.node_delay_sum[node_id] += delay_us
    sim.node_delay_n[node_id] += 1


def test_slot_mixture_yields_collision_fraction():
    sim = _sim()
    for _ in range(2):
        _success(sim, 0, 300.0)
    _collision(sim, (0, 1), 300.0)
    report = _report(sim, empty_count=7, expected_slots=10)
    assert report.slots_total == 10
    assert report.slots_empty == 7
    assert report.slots_success == 2
    assert report.slots_collision == 1
    assert report.collision_fraction == pytest.approx(0.1)
    assert report.duration_s == pytest.approx((7 * 9.0 + 3 * 300.0) * 1e-6)


def test_bulk_empty_recording_matches_repeated_single_slots():
    """Empty slots are the clock's count alone: five of them, whether
    stepped or skipped in bulk, are 45 us and nothing else."""
    report = _report(_sim(), 5, 5)
    assert (report.slots_empty, report.duration_s) == (5, pytest.approx(45e-6))
    assert report.slots_total == 5 and report.transmissions == 0


def test_batch_delivery_shares_ack_instant_but_not_delays():
    sim = _sim()
    _success(sim, 0, 600.0, batch_size=2)
    for enqueued in (100.0, 250.0):  # both acknowledged at 700 us
        _sample(sim, 0, 700.0 - enqueued)
    report = _report(sim, 0, 1)
    assert report.delivered_bits == 24000
    assert report.delay_samples == 2
    assert report.mean_delay_s == pytest.approx(
        ((700 - 100) + (700 - 250)) / 2 * 1e-6)


def _one_node(sim_slots=1, warmup_slots=0):
    return SimConfig(n_nodes=1, arrival_rate=1.0, max_aggregation=2,
                     sim_slots=sim_slots, warmup_slots=warmup_slots)


def test_warmup_enqueues_count_bits_but_not_delay():
    """Delays are sampled by run()'s drivers (and the reference): the
    window opens at 45 us, after five idle slots, and a packet queued at
    0.0 leaves in slot 6 with one that arrived exactly at 45 us.  Both count
    as bits, only the second gives a delay: to the end of slot 6, 54 us
    plus an exchange of two packets (90 + 24000/54 + 112/24 us)."""
    sims = Simulation(_one_node(7, 5)), Reference(_one_node(7, 5))
    for sim in sims:
        load_node(sim, 0, 1, due_in=6)
        lay_arrivals(sim, 0, [45.0])
    for report in sims[0].run()._asdict(), sims[1].run():
        assert report["delivered_bits"] == 24000
        assert report["delay_samples"] == 1
        assert report["mean_delay_s"] == pytest.approx(
            (54.0 + 539.1111111111111 - 45.0) * 1e-6)


def test_negative_delay_aborts():
    sim = Simulation(_one_node())
    sim.queues[0].append(800.0)  # acknowledged before it was queued
    sim.arrivals[0] += 1
    sim.next_tx[0] = 0
    with pytest.raises(ConsistencyError, match="negative delay"):
        sim.run()


def test_slot_ledger_mismatch_aborts():
    with pytest.raises(ConsistencyError, match="slot ledger mismatch"):
        _report(_sim(), empty_count=1, expected_slots=3)


def test_zero_transmissions_marks_empty_run():
    report = _report(_sim(), 10, 10)
    assert report.empty_run
    assert report.throughput_bps == 0.0
    assert report.queue_empty_per_tx == 0.0
    assert math.isnan(report.mean_delay_s)


def test_zero_slots_marks_empty_run():
    report = _report(_sim(), 0, 0)
    assert report.empty_run
    assert report.collision_fraction == 0.0
    assert report.duration_s == 0.0


def test_queue_empty_rate_uses_attempts_as_denominator():
    sim = _sim()
    _success(sim, 0, 300.0)
    _collision(sim, (0, 1), 300.0)
    sim.queue_empties[0] += 1  # node 0's queue emptied once
    report = _report(sim, 0, 2)
    assert report.transmissions == 3
    assert report.successes == 1
    assert report.collisions == 2
    assert report.queue_empty_per_tx == pytest.approx(1 / 3)
    assert [s.queue_empty_events for s in report.per_node] == [1, 0]


def test_end_state_snapshots_average_over_nodes():
    sim = _sim()
    load_node(sim, 0, 4)
    sim.stage[:] = [3, 1]
    report = _report(sim, 1, 1)
    assert report.avg_end_queue == pytest.approx(2.0)
    assert report.avg_end_stage == pytest.approx(2.0)


def test_per_node_rows_carry_individual_counters():
    sim = _sim()
    _success(sim, 1, 300.0)
    _sample(sim, 1, 300.0)
    sim.arrivals[0] += 2  # node 0 dropped two arrivals
    sim.dropped[0] += 2
    report = _report(sim, 0, 1)
    assert report.per_node[0].transmissions == 0
    assert report.per_node[0].drops == 2
    assert report.per_node[1].transmissions == 1
    assert report.per_node[1].delivered_bits == 12000
    assert report.per_node[1].delay_samples == 1
    assert report.drops == 2


def test_a_window_that_rounds_to_zero_seconds_has_zero_throughput():
    """Two idle slots of 5e-324 us last 1e-323 us, which is 0.0 s."""
    report = _report(_sim(slot_empty_us=5e-324), empty_count=2,
                     expected_slots=2)
    assert (report.duration_s, report.throughput_bps) == (0.0, 0.0)


def test_throughput_is_counted_bits_over_duration():
    sim = _sim()
    _success(sim, 0, 1000.0)
    report = _report(sim, 0, 1)
    assert report.throughput_bps == pytest.approx(12000 / 1000e-6)


# -- the measured window: end values minus the snapshot at its start --------

def test_tallies_recorded_before_the_window_opens_are_not_reported():
    sim = _sim(open_window=False)
    # warmup: three empty slots, a success that empties node 0's queue, a
    # collision and a drop at node 1
    _success(sim, 0, 300.0)
    sim.queue_empties[0] += 1
    _collision(sim, (0, 1), 300.0)
    sim.arrivals[1] += 1
    sim.dropped[1] += 1
    sim.open_window(5000.0, empty_count=3)
    sim.window_busy_us = 0.0  # as run() restarts it there
    # the window: two empty slots and a two-packet success of node 1, one
    # packet queued during warmup, so one sample
    _success(sim, 1, 400.0, batch_size=2)
    _sample(sim, 1, 400.0)
    report = _report(sim, empty_count=5, expected_slots=3)
    assert (report.slots_empty, report.slots_success,
            report.slots_collision) == (2, 1, 0)
    assert (report.successes, report.collisions, report.drops) == (1, 0, 0)
    assert report.queue_empty_per_tx == 0.0
    assert report.delivered_packets == 2
    assert report.delay_samples == 1
    assert report.mean_delay_s == pytest.approx(400e-6)
    assert [s.transmissions for s in report.per_node] == [0, 1]
    # the ledger is whole-run
    assert sim.delivered == [1, 2] and sim.dropped == [0, 1]


def test_busy_time_restarts_when_the_window_opens():
    """run()'s drivers restart the window's busy time when it opens: a
    success in warmup (slot 0) and a collision in the window (slot 1), and
    the window lasts the collision's one-packet exchange alone."""
    exchange_us = 316.88888888888886
    cfg = SimConfig(n_nodes=3, arrival_rate=0.0, sim_slots=2, warmup_slots=1)
    sims = Simulation(cfg), Reference(cfg)
    for sim in sims:
        loading((0, 1, 0), (1, 1, 1), (2, 1, 1))(sim)
    for report in sims[0].run()._asdict(), sims[1].run():
        assert (report["slots_success"], report["slots_collision"]) == (0, 1)
        assert report["duration_s"] == pytest.approx(exchange_us * 1e-6)
    assert sims[0].busy_us == pytest.approx(2 * exchange_us)
    assert sims[0].window_busy_us == pytest.approx(exchange_us)


def test_finalize_needs_an_open_window():
    with pytest.raises(AssertionError, match="window never opened"):
        _report(_sim(open_window=False), 0, 0)
