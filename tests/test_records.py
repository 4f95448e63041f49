"""The contracts of ecasim's records: value semantics, defaults, and
pickling."""

import pickle

import pytest

from ecasim import (ConfigError, MetricsReport, Protocol, SimConfig,
                    SweepSpec, run_simulation)
from ecasim.sweep import ProtocolVariant
from ecasim.timing import TimingTable


@pytest.mark.parametrize("make, field, other", [
    (lambda: SimConfig(n_nodes=4, timing=TimingTable(sifs=10.0)),
     "timing", TimingTable()),
    (lambda: TimingTable(slot_empty=10.5), "payload_bits", 8000),
    (lambda: ProtocolVariant(Protocol.CSMA_ECA, max_aggregation=4),
     "hysteresis", True),
], ids=["SimConfig", "TimingTable", "ProtocolVariant"])
def test_config_records_are_immutable_hashable_values(make, field, other):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    with pytest.raises(AttributeError):
        setattr(a, field, other)
    assert a == b
    changed = a._replace(**{field: other})
    assert changed != a
    assert getattr(changed, field) == other
    assert len({a, changed}) == 2


@pytest.mark.parametrize("key", ["variants", "seeds"])
def test_an_explicit_empty_list_fails_validation(key):
    spec = SweepSpec(SimConfig(), [2], **{key: []})
    assert getattr(spec, key) == []
    with pytest.raises(ConfigError, match="protocol|seeds"):
        spec.validate()


def test_sweep_spec_defaults_are_not_shared():
    a = SweepSpec(SimConfig(), [2])
    b = SweepSpec(SimConfig(), [2])
    assert a.variants == [ProtocolVariant(Protocol.CSMA_CA),
                          ProtocolVariant(Protocol.CSMA_ECA)]
    assert a.seeds == [1, 2, 3]
    assert a.output_dir == "results"
    assert a == b
    a.seeds.append(4)
    assert b.seeds == [1, 2, 3]
    assert a != b


def test_an_extra_report_attribute_survives_pickling():
    report = run_simulation(SimConfig(n_nodes=2, arrival_rate=50.0,
                                      sim_slots=2000, warmup_slots=100))
    report.host_speed = (0.25, 1.5)
    again = pickle.loads(pickle.dumps(report))
    assert type(again) is MetricsReport
    assert again.host_speed == (0.25, 1.5)
    assert repr(again) == repr(report)  # repr, since a nan delay != itself
