"""Accounting: slot ledger, delay sampling, ratios, and end-of-run markers."""

import math

import pytest

from ecasim import ConsistencyError
from ecasim.engine import EMPTY, Collision, Success
from ecasim.metrics import MetricsAccumulator
from ecasim.protocols import NodeState


def _acc(n_nodes=2, warmup_end_us=0.0):
    acc = MetricsAccumulator(n_nodes, slot_empty_us=9.0, payload_bits=12000)
    acc.warmup_end_us = warmup_end_us
    return acc


def _nodes(n=2):
    return [NodeState(i) for i in range(n)]


def test_slot_mixture_yields_collision_fraction():
    acc = _acc()
    for _ in range(7):
        acc.record_slot(EMPTY, 9.0)
    for _ in range(2):
        acc.record_slot(Success(0, 1), 300.0)
    acc.record_slot(Collision((0, 1)), 300.0)
    report = acc.finalize(_nodes(), expected_slots=10)
    assert report.slots_total == 10
    assert report.slots_empty == 7
    assert report.slots_success == 2
    assert report.slots_collision == 1
    assert report.collision_fraction == pytest.approx(0.1)
    assert report.duration_s == pytest.approx((7 * 9.0 + 3 * 300.0) * 1e-6)


def test_bulk_empty_recording_matches_repeated_single_slots():
    one = _acc()
    for _ in range(5):
        one.record_slot(EMPTY, 9.0)
    bulk = _acc()
    bulk.record_empty_bulk(5)
    a = one.finalize(_nodes(), 5)
    b = bulk.finalize(_nodes(), 5)
    assert (a.slots_empty, a.duration_s) == (b.slots_empty, b.duration_s)


def test_batch_delivery_shares_ack_instant_but_not_delays():
    acc = _acc()
    acc.record_slot(Success(0, 2), 600.0)
    acc.record_delivery(0, [100.0, 250.0], ack_us=700.0)
    report = acc.finalize(_nodes(), 1)
    assert report.delivered_bits == 24000
    assert report.delay_samples == 2
    assert report.mean_delay_s == pytest.approx(((700 - 100) + (700 - 250)) / 2 * 1e-6)


def test_warmup_enqueues_count_bits_but_not_delay():
    acc = _acc(warmup_end_us=500.0)
    acc.record_slot(Success(0, 2), 600.0)
    batch = [100.0,   # enqueued before the boundary
             500.0]   # exactly at the boundary: counted
    acc.record_delivery(0, batch, ack_us=700.0)
    report = acc.finalize(_nodes(), 1)
    assert report.delivered_bits == 24000
    assert report.delay_samples == 1
    assert report.mean_delay_s == pytest.approx(200e-6)


def test_negative_delay_aborts():
    acc = _acc()
    acc.record_slot(Success(0, 1), 300.0)
    with pytest.raises(ConsistencyError):
        acc.record_delivery(0, [800.0], ack_us=700.0)


def test_slot_ledger_mismatch_aborts():
    acc = _acc()
    acc.record_slot(EMPTY, 9.0)
    with pytest.raises(ConsistencyError):
        acc.finalize(_nodes(), expected_slots=3)


def test_zero_transmissions_marks_empty_run():
    acc = _acc()
    acc.record_empty_bulk(10)
    report = acc.finalize(_nodes(), 10)
    assert report.empty_run
    assert report.throughput_bps == 0.0
    assert report.queue_empty_per_tx == 0.0
    assert math.isnan(report.mean_delay_s)


def test_zero_slots_marks_empty_run():
    report = _acc().finalize(_nodes(), 0)
    assert report.empty_run
    assert report.collision_fraction == 0.0
    assert report.duration_s == 0.0


def test_queue_empty_rate_uses_attempts_as_denominator():
    acc = _acc()
    acc.record_slot(Success(0, 1), 300.0)
    acc.record_slot(Collision((0, 1)), 300.0)
    acc.record_attempt(0, success=True)
    acc.record_attempt(0, success=False)
    acc.record_attempt(1, success=False)
    acc.record_queue_empty(0)
    report = acc.finalize(_nodes(), 2)
    assert report.transmissions == 3
    assert report.successes == 1
    assert report.collisions == 2
    assert report.queue_empty_per_tx == pytest.approx(1 / 3)


def test_end_state_snapshots_average_over_nodes():
    acc = _acc()
    acc.record_empty_bulk(1)
    nodes = _nodes(2)
    nodes[0].queue.extend([0.0] * 4)
    nodes[0].backoff_stage = 3
    nodes[1].backoff_stage = 1
    report = acc.finalize(nodes, 1)
    assert report.avg_end_queue == pytest.approx(2.0)
    assert report.avg_end_stage == pytest.approx(2.0)


def test_per_node_rows_carry_individual_counters():
    acc = _acc()
    acc.record_slot(Success(1, 1), 300.0)
    acc.record_attempt(1, success=True)
    acc.record_delivery(1, [0.0], ack_us=300.0)
    report = acc.finalize(_nodes(2), 1)
    assert report.per_node[0].transmissions == 0
    assert report.per_node[1].transmissions == 1
    assert report.per_node[1].delivered_bits == 12000
    assert report.per_node[1].delay_samples == 1


def test_throughput_is_counted_bits_over_duration():
    acc = _acc()
    acc.record_slot(Success(0, 1), 1000.0)
    acc.record_delivery(0, [0.0], ack_us=1000.0)
    report = acc.finalize(_nodes(), 1)
    assert report.throughput_bps == pytest.approx(12000 / 1000e-6)
