"""Accounting: slot ledger, delay sampling, ratios, the measured window, and
end-of-run markers."""

import math

import pytest

from ecasim import ConsistencyError
from ecasim.metrics import MetricsAccumulator


def _acc(n_nodes=2, warmup_end_us=0.0, open_window=True):
    """An accumulator and the whole-run ledger it reads, the caller's
    (delivered, dropped, queue_empties) lists; the window opens at
    warmup_end_us before anything is counted, unless open_window is False."""
    ledger = ([0] * n_nodes, [0] * n_nodes, [0] * n_nodes)
    acc = MetricsAccumulator(slot_empty_us=9.0, payload_bits=12000,
                             ledger=ledger)
    if open_window:
        acc.open_window(warmup_end_us, empty_count=0)
    return acc, ledger


def _report(acc, empty_count, expected_slots, n=2):
    """finalize() for n nodes ending with empty queues at stage 0."""
    return acc.finalize([[] for _ in range(n)], [0] * n, empty_count,
                        expected_slots)


def _success(acc, ledger, node_id, duration_us, batch_size=1):
    """A success slot: the slot, its sender's attempt and the packets it
    delivered, which the caller's ledger counts."""
    acc.record_slot((node_id,), duration_us)
    acc.record_attempt(node_id, success=True)
    ledger[0][node_id] += batch_size


def test_slot_mixture_yields_collision_fraction():
    acc, ledger = _acc()
    for _ in range(7):
        acc.record_slot((), 9.0)
    for _ in range(2):
        _success(acc, ledger, 0, 300.0)
    acc.record_slot((0, 1), 300.0)
    report = _report(acc, empty_count=7, expected_slots=10)
    assert report.slots_total == 10
    assert report.slots_empty == 7
    assert report.slots_success == 2
    assert report.slots_collision == 1
    assert report.collision_fraction == pytest.approx(0.1)
    assert report.duration_s == pytest.approx((7 * 9.0 + 3 * 300.0) * 1e-6)


def test_bulk_empty_recording_matches_repeated_single_slots():
    """Empty slots are the clock's count: one recorded slot by slot and one
    skipped in bulk, with no record_slot call, report the same."""
    one, _ = _acc()
    for _ in range(5):
        one.record_slot((), 9.0)
    bulk, _ = _acc()
    a = _report(one, 5, 5)
    b = _report(bulk, 5, 5)
    assert (a.slots_empty, a.duration_s) == (b.slots_empty, b.duration_s)
    assert (a.slots_empty, a.duration_s) == (5, pytest.approx(45e-6))


def test_batch_delivery_shares_ack_instant_but_not_delays():
    acc, ledger = _acc()
    _success(acc, ledger, 0, 600.0, batch_size=2)
    acc.record_delivery(0, [100.0, 250.0], ack_us=700.0)
    report = _report(acc, 0, 1)
    assert report.delivered_bits == 24000
    assert report.delay_samples == 2
    assert report.mean_delay_s == pytest.approx(((700 - 100) + (700 - 250)) / 2 * 1e-6)


def test_warmup_enqueues_count_bits_but_not_delay():
    acc, ledger = _acc(warmup_end_us=500.0)
    _success(acc, ledger, 0, 600.0, batch_size=2)
    batch = [100.0,   # enqueued before the boundary
             500.0]   # exactly at the boundary: counted
    acc.record_delivery(0, batch, ack_us=700.0)
    report = _report(acc, 0, 1)
    assert report.delivered_bits == 24000
    assert report.delay_samples == 1
    assert report.mean_delay_s == pytest.approx(200e-6)


def test_negative_delay_aborts():
    acc, _ = _acc()
    acc.record_slot((0,), 300.0)
    with pytest.raises(ConsistencyError):
        acc.record_delivery(0, [800.0], ack_us=700.0)


def test_slot_ledger_mismatch_aborts():
    acc, _ = _acc()
    acc.record_slot((), 9.0)
    with pytest.raises(ConsistencyError):
        _report(acc, empty_count=1, expected_slots=3)


def test_zero_transmissions_marks_empty_run():
    acc, _ = _acc()
    report = _report(acc, 10, 10)
    assert report.empty_run
    assert report.throughput_bps == 0.0
    assert report.queue_empty_per_tx == 0.0
    assert math.isnan(report.mean_delay_s)


def test_zero_slots_marks_empty_run():
    acc, _ = _acc()
    report = _report(acc, 0, 0)
    assert report.empty_run
    assert report.collision_fraction == 0.0
    assert report.duration_s == 0.0


def test_queue_empty_rate_uses_attempts_as_denominator():
    acc, (_, _, queue_empties) = _acc()
    acc.record_slot((0,), 300.0)
    acc.record_slot((0, 1), 300.0)
    acc.record_attempt(0, success=True)
    acc.record_attempt(0, success=False)
    acc.record_attempt(1, success=False)
    queue_empties[0] += 1
    report = _report(acc, 0, 2)
    assert report.transmissions == 3
    assert report.successes == 1
    assert report.collisions == 2
    assert report.queue_empty_per_tx == pytest.approx(1 / 3)
    assert [s.queue_empty_events for s in report.per_node] == [1, 0]


def test_end_state_snapshots_average_over_nodes():
    acc, _ = _acc()
    queues = [[0.0] * 4, []]
    report = acc.finalize(queues, [3, 1], 1, 1)
    assert report.avg_end_queue == pytest.approx(2.0)
    assert report.avg_end_stage == pytest.approx(2.0)


def test_per_node_rows_carry_individual_counters():
    acc, ledger = _acc()
    _success(acc, ledger, 1, 300.0)
    acc.record_delivery(1, [0.0], ack_us=300.0)
    ledger[1][0] += 2   # node 0 dropped two arrivals
    report = _report(acc, 0, 1)
    assert report.per_node[0].transmissions == 0
    assert report.per_node[0].drops == 2
    assert report.per_node[1].transmissions == 1
    assert report.per_node[1].delivered_bits == 12000
    assert report.per_node[1].delay_samples == 1
    assert report.drops == 2


def test_a_window_that_rounds_to_zero_seconds_has_zero_throughput():
    """Two idle slots of 5e-324 us last 1e-323 us, which is 0.0 s."""
    ledger = ([0, 0], [0, 0], [0, 0])
    acc = MetricsAccumulator(slot_empty_us=5e-324, payload_bits=12000,
                             ledger=ledger)
    acc.open_window(0.0, empty_count=0)
    report = _report(acc, empty_count=2, expected_slots=2)
    assert (report.duration_s, report.throughput_bps) == (0.0, 0.0)


def test_throughput_is_counted_bits_over_duration():
    acc, ledger = _acc()
    _success(acc, ledger, 0, 1000.0)
    acc.record_delivery(0, [0.0], ack_us=1000.0)
    report = _report(acc, 0, 1)
    assert report.throughput_bps == pytest.approx(12000 / 1000e-6)


# -- the measured window: end values minus the snapshot at its start --------

def test_tallies_recorded_before_the_window_opens_are_not_reported():
    acc, ledger = _acc(open_window=False)
    delivered, dropped, queue_empties = ledger
    # warmup: three empty slots, a success that empties node 0's queue, a
    # collision and a drop at node 1
    _success(acc, ledger, 0, 300.0)
    queue_empties[0] += 1
    acc.record_slot((0, 1), 300.0)
    acc.record_attempt(0, success=False)
    acc.record_attempt(1, success=False)
    dropped[1] += 1
    acc.record_delivery(0, [0.0], ack_us=300.0)  # no window, so no sample
    acc.open_window(5000.0, empty_count=3)
    # the window: two empty slots and a two-packet success of node 1, one
    # packet queued during warmup
    _success(acc, ledger, 1, 400.0, batch_size=2)
    acc.record_delivery(1, [4000.0, 6000.0], ack_us=6400.0)
    report = _report(acc, empty_count=5, expected_slots=3)
    assert (report.slots_empty, report.slots_success,
            report.slots_collision) == (2, 1, 0)
    assert (report.successes, report.collisions, report.drops) == (1, 0, 0)
    assert report.queue_empty_per_tx == 0.0
    assert report.delivered_packets == 2
    assert report.delay_samples == 1
    assert report.mean_delay_s == pytest.approx(400e-6)
    assert [s.transmissions for s in report.per_node] == [0, 1]
    assert delivered == [1, 2] and dropped == [0, 1]  # the ledger is whole-run


def test_busy_time_restarts_when_the_window_opens():
    acc, ledger = _acc(open_window=False)
    _success(acc, ledger, 0, 300.0)
    acc.open_window(300.0, empty_count=0)
    acc.record_slot((0, 1), 700.0)
    acc.record_attempt(0, success=False)
    acc.record_attempt(1, success=False)
    assert acc.busy_us == 700.0
    report = _report(acc, empty_count=2, expected_slots=3)
    assert report.duration_s == pytest.approx((2 * 9.0 + 700.0) * 1e-6)


def test_finalize_needs_an_open_window():
    acc, _ = _acc(open_window=False)
    with pytest.raises(AssertionError, match="window never opened"):
        _report(acc, 0, 0)
