"""Arrival process sampling and per-node stream behavior."""

import math
import random

import pytest

from ecasim import ConfigError, SimConfig
from ecasim.config import MAX_ARRIVAL_RATE
from ecasim.traffic import ArrivalStream, sample_interarrival


def test_interarrival_mean_matches_rate():
    rng = random.Random(20240601)
    rate = 1000.0  # packets per second -> mean gap 1000 us
    n = 1_000_000
    total = sum(sample_interarrival(rate, rng) for _ in range(n))
    assert abs(total / n - 1000.0) / 1000.0 < 0.01


def test_interarrival_is_positive():
    rng = random.Random(7)
    assert all(sample_interarrival(250.0, rng) > 0.0 for _ in range(10_000))


def test_poisson_process_requires_positive_rate():
    with pytest.raises(ConfigError):
        ArrivalStream(0.0, random.Random(1))
    with pytest.raises(ConfigError):
        ArrivalStream(-3.0, random.Random(1))


def test_a_finite_rate_above_the_bound_is_rejected():
    """At 1e300 pkt/s a gap is below half an ulp of its arrival instant, so
    time would stop and the run never end.  The bound itself is valid (it
    is not run here: a run costs one draw per arrival)."""
    with pytest.raises(ConfigError, match="arrival_rate must be at most"):
        SimConfig(arrival_rate=1e300).validate()
    SimConfig(arrival_rate=MAX_ARRIVAL_RATE).validate()
    SimConfig(arrival_rate=math.inf).validate()


def test_saturated_stream_never_schedules_arrivals():
    stream = ArrivalStream(math.inf, random.Random(1))
    assert math.isinf(stream.next_us)
    assert stream.drain_poisson(1e9) == []
    assert math.isinf(stream.next_us)


def test_drain_returns_only_packets_before_window_end():
    stream = ArrivalStream(1000.0, random.Random(42))
    cursor = 0.0
    for _ in range(200):
        end = cursor + 500.0
        batch = stream.drain_poisson(end)
        for enqueue_us in batch:
            assert cursor <= enqueue_us < end
        cursor = end
    assert stream.next_us >= cursor


def test_drain_stamps_are_strictly_increasing():
    stream = ArrivalStream(5000.0, random.Random(9))
    stamps = stream.drain_poisson(1e6)
    assert len(stamps) > 1000
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_windowed_drain_count_matches_rate():
    # 1e6 windows of 9 us at 1000 pkt/s -> expect 9000 packets
    stream = ArrivalStream(1000.0, random.Random(20240602))
    total = 0
    end = 0.0
    for _ in range(1_000_000):
        end += 9.0
        total += len(stream.drain_poisson(end))
    assert abs(total - 9000) / 9000 < 0.02


def test_saturated_refill_tops_queue_to_capacity():
    stream = ArrivalStream(math.inf, random.Random(1))
    added = stream.refill(queue_len=2, capacity=5, now_us=123.0)
    assert len(added) == 3
    assert added == [123.0] * 3
    assert stream.refill(queue_len=5, capacity=5, now_us=456.0) == []


def test_refill_is_defined_only_for_saturated_streams():
    stream = ArrivalStream(100.0, random.Random(1))
    with pytest.raises(AssertionError):
        stream.refill(queue_len=0, capacity=5, now_us=0.0)

