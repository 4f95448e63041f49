"""Slot duration arithmetic against hand-computed values."""

import math

import pytest
from hypothesis import given, strategies as st

from ecasim import Collision, ConfigError, Protocol, SimConfig, Simulation
from ecasim.timing import DEFAULT_TIMING, TimingTable

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
    sim.inject_packets(0, 3)
    sim.inject_packets(1, 1)
    sim.set_backoff(0, 0)
    sim.set_backoff(1, 0)
    assert sim.advance_slot() == Collision(transmitters=(0, 1))
    t = DEFAULT_TIMING
    assert sim.clock.busy_us == t.exchange_us(3 * t.payload_bits)


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
