"""Arrival process sampling and per-node stream behavior."""

import math
import random
from array import array

import pytest

from ecasim import SATURATED, ConfigError, SimConfig, Simulation
from ecasim.config import MAX_ARRIVAL_RATE
from ecasim.traffic import ArrivalStream


def _stream(seed):
    return ArrivalStream([], random.Random(seed))


@pytest.mark.parametrize("instants", [list, lambda: array("d")],
                         ids=["list", "array"])
def test_grow_draws_expovariate_bit_for_bit(instants):
    """run() and the reference stepper read one draw, ArrivalStream.grow:
    from 0.0, the running sum of Random(seed).expovariate(rate) * 1e6, bit
    for bit, on a run's own list and on a book's array('d') alike."""
    rate, n = 120.0, 10_000
    stream = ArrivalStream(instants(), random.Random(3))
    assert stream.grow(rate, 0.0, n) == n
    rng, t, expected = random.Random(3), 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate) * 1e6
        expected.append(t)
    assert list(stream.instants) == expected
    assert stream.rng.getstate() == rng.getstate()


def test_interarrival_mean_matches_rate():
    stream = _stream(20240601)
    rate = 1000.0  # packets per second -> mean gap 1000 us
    n = 1_000_000
    stream.grow(rate, 0.0, n)
    assert abs(stream.instants[-1] / n - 1000.0) / 1000.0 < 0.01


def test_interarrival_is_positive():
    stream = _stream(7)
    stream.grow(250.0, 0.0, 10_000)
    instants = stream.instants
    assert instants[0] > 0.0
    assert all(a < b for a, b in zip(instants, instants[1:]))


def test_poisson_process_requires_positive_rate():
    """A negative or NaN rate is refused (a zero one is silent: its streams
    never fire, below)."""
    for rate in (-3.0, math.nan):
        with pytest.raises(ConfigError):
            SimConfig(arrival_rate=rate).validate()


def test_a_finite_rate_above_the_bound_is_rejected():
    """At 1e300 pkt/s a gap is below half an ulp of its arrival instant, so
    time would stop and the run never end.  The bound itself is valid (it
    is not run here: a run costs one draw per arrival)."""
    with pytest.raises(ConfigError, match="arrival_rate must be at most"):
        SimConfig(arrival_rate=1e300).validate()
    SimConfig(arrival_rate=MAX_ARRIVAL_RATE).validate()
    SimConfig(arrival_rate=math.inf).validate()


@pytest.mark.parametrize("rate, streams", [(100.0, 3), (SATURATED, 0),
                                           (0.0, 0)])
def test_only_poisson_nodes_seed_a_stream(monkeypatch, rate, streams):
    """A saturated or silent node draws no arrival: its stream holds one
    instant, inf, which never fires, and no RNG, so it seeds none.  The
    seeds are the master's, proto_rng's first and then one per Poisson
    stream, in node id order."""
    seeded = []
    real = random.Random
    monkeypatch.setattr(random, "Random",
                        lambda seed: seeded.append(seed) or real(seed))
    sim = Simulation(SimConfig(n_nodes=3, arrival_rate=rate, seed=4))
    master = real(4)
    assert seeded == [4] + [master.getrandbits(64)
                            for _ in range(1 + streams)]
    for st in sim.streams:
        if streams:
            assert st.rng is not None and st.instants[0] < math.inf
        else:
            assert list(st.instants) == [math.inf] and st.rng is None


def test_drain_returns_only_packets_before_window_end():
    stream = _stream(42)
    cursor = 0.0
    for _ in range(200):
        end = cursor + 500.0
        batch = stream.drain_poisson(1000.0, end)
        for enqueue_us in batch:
            assert cursor <= enqueue_us < end
        cursor = end
    assert stream.instants[0] >= cursor


def test_drain_takes_an_instant_on_until_in_the_next_window():
    """An arrival exactly at a slot's end belongs to the next slot."""
    stream = _stream(5)
    stream.instants[:] = [10.0, 20.0]
    assert stream.drain_poisson(1000.0, 10.0) == []
    assert stream.drain_poisson(1000.0, math.nextafter(10.0, math.inf)) \
        == [10.0]
    assert stream.drain_poisson(1000.0, 20.0) == []
    assert stream.instants[0] == 20.0


def test_drain_stamps_are_strictly_increasing():
    stream = _stream(9)
    stamps = stream.drain_poisson(5000.0, 1e6)
    assert len(stamps) > 1000
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_windowed_drain_count_matches_rate():
    # 1e6 windows of 9 us at 1000 pkt/s -> expect 9000 packets
    stream = _stream(20240602)
    total = 0
    end = 0.0
    for _ in range(1_000_000):
        end += 9.0
        total += len(stream.drain_poisson(1000.0, end))
    assert abs(total - 9000) / 9000 < 0.02
