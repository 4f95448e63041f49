"""Arrival process sampling and per-node stream behavior."""

import math
import random
from array import array

import pytest

from ecasim import SATURATED, ConfigError, SimConfig, Simulation
from ecasim.config import MAX_ARRIVAL_RATE
from ecasim.traffic import ArrivalStream
from nodes import lay_arrivals
from reference import Reference


def _stream(seed):
    return ArrivalStream([], random.Random(seed))


@pytest.mark.parametrize("instants", [list, lambda: array("d")],
                         ids=["list", "array"])
def test_grow_draws_expovariate_bit_for_bit(instants):
    """run() draws every instant through ArrivalStream.grow: from 0.0,
    the running sum of Random(seed).expovariate(rate) * 1e6, bit for bit,
    on a run's own list and on a book's array('d') alike."""
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


def _run_one_node(rate, sim_slots, **kw):
    """A lone Poisson node's run(), and the instant it ended."""
    sim = Simulation(SimConfig(n_nodes=1, arrival_rate=rate,
                               sim_slots=sim_slots, warmup_slots=0, **kw))
    sim.run()
    return sim, sim.cfg.timing.slot_empty * sim.empty_count + sim.busy_us


def test_drain_returns_only_packets_before_window_end():
    """A run takes in each arrival before its end, and no other: what it
    queued lies before the end, and its stream resumes at or past it."""
    for sim_slots in (1, 50, 500, 5000):
        sim, end = _run_one_node(1000.0, sim_slots, seed=42)
        assert all(t < end for t in sim.queues[0])
        assert sim.streams[0].instants[0] >= end


def test_drain_takes_an_instant_on_until_in_the_next_window():
    """An arrival exactly at a slot's end belongs to the next slot: after
    two idle slots of 9 us, one at 18 us is not yet taken in, one an ulp
    earlier is (run() and the reference alike)."""
    cfg = SimConfig(n_nodes=1, arrival_rate=1.0, sim_slots=2, warmup_slots=0)
    for arrival, taken in ((18.0, 0), (math.nextafter(18.0, 0.0), 1)):
        for sim in Simulation(cfg), Reference(cfg):
            lay_arrivals(sim, 0, [arrival])
            sim.run()
            assert sim.arrivals[0] == taken
            assert (sim.streams[0].instants[0] == arrival) == (not taken)


def test_drain_stamps_are_strictly_increasing():
    sim, _ = _run_one_node(5000.0, 3000, seed=9)
    stamps = list(sim.queues[0])
    assert len(stamps) > 100
    assert all(a < b for a, b in zip(stamps, stamps[1:]))


def test_windowed_drain_count_matches_rate():
    # about 9 s of channel time at 1000 pkt/s -> expect about 9000 packets
    sim, end = _run_one_node(1000.0, 700_000, seed=20240602)
    assert abs(sim.arrivals[0] / (end * 1e-6) - 1000.0) / 1000.0 < 0.02
    assert end > 8e6
