"""Slot duration arithmetic against hand-computed values."""

import math

import pytest
from hypothesis import given, strategies as st

from ecasim import ConfigError, Protocol, SimConfig, Simulation
from ecasim.config import (MAX_AGGREGATION, MAX_NODES, MAX_QUEUED_PACKETS,
                           MAX_SLOT_US)
from ecasim.timing import DEFAULT_TIMING, TimingTable
from nodes import load_node

# defaults, one 12000-bit payload, worked out by hand:
#   34 (difs) + 20 (phy) + 12000/54 + 16 (sifs) + 20 (phy) + 112/24
HAND_SUCCESS_US = 316.88888888888886
# eight aggregated payloads: 90 + 96000/54 + 112/24
HAND_BATCH8_US = 1872.4444444444443


def test_success_exchange_matches_hand_arithmetic():
    got = DEFAULT_TIMING.exchange_us(12000)
    assert got == pytest.approx(HAND_SUCCESS_US, rel=1e-12)


def test_aggregated_exchange_matches_hand_arithmetic():
    got = DEFAULT_TIMING.exchange_us(8 * 12000)
    assert got == pytest.approx(HAND_BATCH8_US, rel=1e-12)


def test_collision_holds_the_channel_for_the_longest_frame():
    sim = Simulation(SimConfig(protocol=Protocol.CSMA_CA, arrival_rate=0.0,
                               max_aggregation=4, sim_slots=10,
                               warmup_slots=0))
    load_node(sim, 0, 3, due_in=0)
    load_node(sim, 1, 1, due_in=0)
    assert sim.advance_slot() == (0, 1)
    t = DEFAULT_TIMING
    assert sim.busy_us == t.exchange_us(3 * t.payload_bits)


def test_empty_slot_is_cheapest():
    assert DEFAULT_TIMING.slot_empty < DEFAULT_TIMING.exchange_us(1)


@given(a=st.integers(min_value=1, max_value=10**6),
       extra=st.integers(min_value=1, max_value=10**6))
def test_exchange_grows_with_payload(a, extra):
    t = DEFAULT_TIMING
    assert t.exchange_us(a + extra) > t.exchange_us(a)


@given(bits=st.integers(min_value=1, max_value=10**7))
def test_exchange_decomposes_into_overhead_plus_airtime(bits):
    t = DEFAULT_TIMING
    overhead = t.exchange_us(0)
    assert t.exchange_us(bits) == pytest.approx(
        overhead + bits / t.data_rate, rel=1e-12)


@pytest.mark.parametrize("field,value", [
    pytest.param(field, value, id=field + suffix)
    for field in ["slot_empty", "sifs", "difs", "phy_header", "data_rate",
                  "ack_rate", "ack_bits", "payload_bits"]
    for value, suffix in [(0, ""), (math.nan, "-nan"), (math.inf, "-inf")]]
    + [pytest.param(field, 10 ** 400, id=field + "-huge")
       for field in ["ack_bits", "payload_bits"]])
def test_non_positive_timing_rejected(field, value):
    table = TimingTable(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be finite and positive"):
        table.validate()


@pytest.mark.parametrize("timing", [
    TimingTable(difs=1e300),
    TimingTable(difs=1e308, sifs=1e308),  # the exchange overflows to inf
    TimingTable(data_rate=1e-300),
    TimingTable(slot_empty=2 * MAX_SLOT_US),
], ids=["difs-1e300", "difs-sifs-1e308", "data_rate-1e-300", "slot_empty"])
def test_a_slot_longer_than_the_bound_is_rejected(timing):
    """Each table is finite and positive, but has a slot over the bound.
    After one slot of the first three, an arrival gap is below half an ulp
    of the clock (or the clock is inf), so a run would never end."""
    timing.validate()
    with pytest.raises(ConfigError, match="must last at most 1e\\+06 us"):
        SimConfig(timing=timing).validate()


def test_the_slot_bound_covers_the_aggregated_exchange():
    SimConfig(timing=TimingTable(slot_empty=MAX_SLOT_US)).validate()
    # a slow channel, so that the slot bound binds below MAX_AGGREGATION
    t = DEFAULT_TIMING._replace(data_rate=6.0)
    agg = int((MAX_SLOT_US - t.exchange_us(0)) * t.data_rate / t.payload_bits)
    assert agg < MAX_AGGREGATION
    assert t.exchange_us(agg * t.payload_bits) <= MAX_SLOT_US
    SimConfig(max_aggregation=agg, queue_capacity=agg, timing=t).validate()
    for too_many in (agg + 1, 10 ** 400):  # the last is too large for a float
        with pytest.raises(ConfigError, match="must last at most"):
            SimConfig(max_aggregation=too_many, queue_capacity=too_many,
                      timing=t).validate()


def test_max_aggregation_is_bounded():
    """run() tabulates one exchange duration per batch size up to
    max_aggregation, so a huge one would fill memory before the first slot;
    1025 default packets still fit the slot bound."""
    SimConfig(max_aggregation=1024, queue_capacity=1024).validate()
    with pytest.raises(ConfigError,
                       match="max_aggregation must be at most 1024"):
        SimConfig(max_aggregation=1025, queue_capacity=1025).validate()


def test_node_count_and_queued_packets_are_bounded():
    """A run builds every node's state, and a saturated run fills every
    queue, before the first slot; 10^4 nodes at the default queue capacity
    sit at both bounds."""
    SimConfig(n_nodes=MAX_NODES).validate()
    SimConfig(n_nodes=1, queue_capacity=MAX_QUEUED_PACKETS).validate()
    with pytest.raises(ConfigError, match="^n_nodes must be at most 10000$"):
        SimConfig(n_nodes=MAX_NODES + 1, queue_capacity=1).validate()
    with pytest.raises(ConfigError, match=r"^n_nodes \* queue_capacity must "
                                          r"be at most 10000000$"):
        SimConfig(n_nodes=1, queue_capacity=MAX_QUEUED_PACKETS + 1).validate()
