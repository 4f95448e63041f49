"""Config grammar, sweep orchestration, CSV layout, and results loading."""

import csv
import math
import os
import statistics
import sys
import tempfile
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ecasim import (ConfigError, ConsistencyError, Protocol, SimConfig,
                    SweepSpec)
import ecasim.sweep as sweep_mod
from ecasim import config, traffic
from ecasim.engine import Simulation, run_simulation
from ecasim.sweep import (CSV_COLUMNS, ECHO_NAME, FAULT_MARKER,
                          METRIC_COLUMNS, RESULTS_NAME, ProtocolVariant,
                          load_results, parse_config,
                          parse_config_with_overrides, parse_variant,
                          run_sweep, worker_count, write_results_csv)
from ecasim.timing import DEFAULT_TIMING, TimingTable


def _tiny_spec(tmp_path, **kw):
    base = SimConfig(arrival_rate=2000.0, sim_slots=400, warmup_slots=100)
    spec = SweepSpec(base=base, node_counts=[2, 3], seeds=[1, 2],
                     output_dir=str(tmp_path / "out"))
    for key, value in kw.items():
        setattr(spec, key, value)
    return spec


# -- config grammar -----------------------------------------------------------

def test_minimal_config_uses_defaults():
    spec = parse_config("node_counts = 5,10\n")
    assert spec.node_counts == [5, 10]
    assert [v.label for v in spec.variants] == ["csma-ca", "csma-eca"]
    assert spec.seeds == [1, 2, 3]
    assert spec.output_dir == "results"
    assert spec.base.arrival_rate == 100.0


def test_lists_accept_commas_and_repeated_keys():
    spec = parse_config("""
        node_counts = 2,4
        node_counts = 8
        seeds = 1
        seeds = 2, 3
        protocol = csma-ca, csma-eca
        protocol = csma-ca agg=16
    """)
    assert spec.node_counts == [2, 4, 8]
    assert spec.seeds == [1, 2, 3]
    assert [v.label for v in spec.variants] == ["csma-ca", "csma-eca",
                                                "csma-ca-agg16"]


def test_variant_flags():
    v = parse_variant("csma-ca agg=16")
    assert v == ProtocolVariant(Protocol.CSMA_CA, max_aggregation=16)
    assert v.label == "csma-ca-agg16"
    assert v.spelling() == "csma-ca agg=16"
    v = parse_variant("csma-eca hyst")
    assert v.hysteresis and v.label == "csma-eca-hyst"


def test_saturated_arrival_rate_spellings():
    for word in ("saturated", "inf", "SATURATED"):
        spec = parse_config(f"node_counts = 2\narrival_rate = {word}\n")
        assert spec.base.saturated


def test_comments_and_blank_lines_are_ignored():
    spec = parse_config("# header\n\nnode_counts = 2 # trailing\n")
    assert spec.node_counts == [2]


@pytest.mark.parametrize("text,fragment", [
    ("node_counts = 2\nbogus = 1\n", ":2: unknown key 'bogus'"),
    ("node_counts = 10,5\n", "strictly increasing"),
    ("node_counts = 2\nseeds = x\n", "seeds expects an integer, got 'x'"),
    ("node_counts = 2\ncw_min = 8\ncw_min = 16\n", "already set on line 2"),
    ("node_counts = 2\nprotocol = aloha\n", "unknown protocol 'aloha'"),
    ("node_counts = 2\nprotocol = csma-ca\nprotocol = csma-ca\n",
     "duplicate protocol entries"),
    ("node_counts = 2\nprotocol = csma-ca hyst\n", "hysteresis"),
    ("node_counts = 2\nprotocol = csma-ca turbo\n",
     "unknown protocol flag 'turbo'"),
    ("node_counts = 2\nprotocol = csma-ca agg=4 agg=16\n",
     "repeated protocol flag 'agg' (<config>:2)"),
    ("node_counts = 2\nprotocol = csma-eca hyst hyst\n",
     "repeated protocol flag 'hyst' (<config>:2)"),
    ("node_counts = 2\ncw_min = 15\n", "power of two"),
    ("node_counts = 2\narrival_rate = fast\n", "expects a number"),
    ("node_counts = 2\njust some words\n", "expected key = value"),
    ("", "node_counts is required"),
], ids=["unknown-key", "unsorted-nodes", "bad-int", "repeated-scalar",
        "unknown-protocol", "duplicate-protocol", "hyst-on-ca",
        "unknown-flag", "repeated-agg", "repeated-hyst", "bad-cw", "bad-rate",
        "no-assignment", "missing-nodes"])
def test_config_errors_name_the_problem(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("variant,message", [
    ("csma-ca agg=32", "queue_capacity must be at least max_aggregation"),
    ("csma-ca hyst", "hysteresis applies to csma-eca only"),
], ids=["agg-over-queue", "hyst-on-ca"])
def test_an_invalid_second_variant_is_reported(variant, message):
    text = ("node_counts = 2, 4, 8\nseeds = 1, 2\nqueue_capacity = 16\n"
            f"protocol = csma-eca\nprotocol = {variant}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


def test_validation_checks_one_config_per_variant(monkeypatch):
    checked = []
    real = SimConfig.validate

    def counting(cfg):
        checked.append(cfg)
        real(cfg)

    monkeypatch.setattr(SimConfig, "validate", counting)
    spec = SweepSpec(base=SimConfig(), node_counts=list(range(1, 17)),
                     seeds=[1, 2, 3, 4],
                     variants=[parse_variant("csma-ca"),
                               parse_variant("csma-eca"),
                               parse_variant("csma-eca hyst")])
    spec.validate()
    assert [cfg.protocol for cfg in checked] == [
        Protocol.CSMA_CA, Protocol.CSMA_ECA, Protocol.CSMA_ECA]


def test_error_messages_carry_the_source_name(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("node_counts = 2\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config_with_overrides(path, ())
    assert str(path) in str(err.value)
    assert ":2:" in str(err.value)


def test_resolved_text_round_trips():
    # every scalar key set away from its default
    spec = parse_config("""
        node_counts = 2,6
        seeds = 4,5
        protocol = csma-eca hyst
        protocol = csma-ca agg=16
        output_dir = out
        arrival_rate = saturated
        cw_min = 32
        max_stage = 3
        queue_capacity = 40
        max_aggregation = 2
        sim_slots = 5000
        warmup_slots = 500
        hysteresis = yes
        rejoin_inclusive = 1
        slot_empty = 10.5
        sifs = 10.0
        difs = 28
        phy_header = 24.25
        data_rate = 6.5
        ack_rate = 12.0
        ack_bits = 100
        payload_bits = 8000
    """)
    echo = spec.resolved_text()
    assert echo == """\
# resolved sweep configuration
node_counts = 2,6
seeds = 4,5
protocol = csma-eca hyst
protocol = csma-ca agg=16
output_dir = out
arrival_rate = saturated
cw_min = 32
max_stage = 3
queue_capacity = 40
max_aggregation = 2
sim_slots = 5000
warmup_slots = 500
hysteresis = true
rejoin_inclusive = true
slot_empty = 10.5
sifs = 10.0
difs = 28.0
phy_header = 24.25
data_rate = 6.5
ack_rate = 12.0
ack_bits = 100
payload_bits = 8000
"""
    defaults = parse_config("node_counts = 2,6\n").resolved_text()
    assert not set(echo.splitlines()[5:]) & set(defaults.splitlines())
    again = parse_config(echo)
    assert again == spec
    assert again.resolved_text() == echo


def test_overrides_replace_file_values(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("node_counts = 2\nseeds = 1,2\ncw_min = 16\n")
    spec = parse_config_with_overrides(path, ["seeds=7", "cw_min = 32"])
    assert spec.seeds == [7]
    assert spec.base.cw_min == 32
    with pytest.raises(ConfigError, match="not key=value"):
        parse_config_with_overrides(path, ["seeds7"])


def test_overrides_keep_the_file_line_numbers_in_errors(tmp_path):
    """An overridden line is blanked, so later lines keep their numbers."""
    path = tmp_path / "sweep.conf"
    path.write_text("node_counts = 2\nseeds = 1\ncw_min = 16\n"
                    "sim_slots = 2000\nwarmup_slots = 100\nmax_stage = x\n")
    with pytest.raises(ConfigError) as err:
        parse_config_with_overrides(path, ["cw_min=8"])
    assert "(with overrides):6:" in str(err.value)


def test_variant_aggregation_overrides_the_base_value():
    spec = parse_config("node_counts = 2\nmax_aggregation = 4\n"
                        "protocol = csma-ca\nprotocol = csma-ca agg=16\n")
    plain, agg = spec.variants
    assert spec.config_for(plain, 2, 1).max_aggregation == 4
    assert spec.config_for(agg, 2, 1).max_aggregation == 16


def test_run_keys_enumerate_in_fixed_order(tmp_path):
    spec = _tiny_spec(tmp_path)
    keys = [(v.label, n, s) for v, n, s in spec.run_keys()]
    assert keys == [("csma-ca", 2, 1), ("csma-ca", 2, 2),
                    ("csma-ca", 3, 1), ("csma-ca", 3, 2),
                    ("csma-eca", 2, 1), ("csma-eca", 2, 2),
                    ("csma-eca", 3, 1), ("csma-eca", 3, 2)]


# -- execution and CSV --------------------------------------------------------

def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_writes_seed_rows_then_aggregates(tmp_path):
    spec = _tiny_spec(tmp_path)
    results = run_sweep(spec, workers=1)
    out = tmp_path / "out"
    rows = _read_rows(out / RESULTS_NAME)
    assert rows[0] == CSV_COLUMNS
    body = rows[1:]
    # 8 seed rows plus mean and stddev for each of the 4 cells
    assert len(body) == 8 + 8
    assert [r[2] for r in body[:4]] == ["1", "2", "mean", "stddev"]
    assert body[0][:2] == ["csma-ca", "2"]
    assert body[4][:2] == ["csma-ca", "3"]
    assert body[8][:2] == ["csma-eca", "2"]
    assert (out / ECHO_NAME).exists()
    assert len(results.rows) == 8


def test_aggregates_match_a_direct_recomputation(tmp_path):
    spec = _tiny_spec(tmp_path)
    results = run_sweep(spec, workers=1)
    for (label, n), agg in results.aggregates.items():
        cell = [r for r in results.rows
                if r.label == label and r.n_nodes == n]
        assert len(cell) == 2
        for col in METRIC_COLUMNS:
            samples = [float(r.values[col]) for r in cell]
            assert agg["mean"][col] == statistics.fmean(samples)
            assert agg["stddev"][col] == statistics.stdev(samples)


FLOAT_MAX = sys.float_info.max
FLOAT_TINY = sys.float_info.min  # the smallest normal float
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def _near_equal(base, steps):
    """base moved by a few ulps: samples whose spread is at the last bit."""
    return [base + step * math.ulp(base) for step in steps]


sample_lists = st.one_of(
    st.lists(finite_floats, min_size=2, max_size=10),
    st.lists(st.floats(-FLOAT_TINY, FLOAT_TINY), min_size=2, max_size=10),
    st.lists(st.floats(1e307, FLOAT_MAX).flatmap(
        lambda x: st.sampled_from([x, -x])), min_size=2, max_size=10),
    st.builds(lambda x, k: [x] * k, finite_floats, st.integers(2, 10)),
    st.builds(_near_equal, st.floats(-1e300, 1e300),
              st.lists(st.integers(-4, 4), min_size=2, max_size=10)),
)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev is correctly rounded from 3.11")
@settings(max_examples=400, deadline=None)
@given(sample_lists)
@example([5e-324, 1e-323])
@example([FLOAT_MAX, -FLOAT_MAX])
@example([0.1, 0.1, 0.1])
def test_stdev_is_statistics_stdev_bit_for_bit(samples):
    try:
        expected = statistics.stdev(samples)
    except OverflowError:
        with pytest.raises(OverflowError):
            sweep_mod._stdev(samples)
        return
    assert sweep_mod._stdev(samples).hex() == expected.hex()


@settings(max_examples=200, deadline=None)
@given(sample_lists)
def test_mean_is_statistics_fmean(samples):
    try:
        expected = statistics.fmean(samples)
    except OverflowError:
        with pytest.raises(OverflowError):
            sweep_mod._mean(samples)
        return
    assert sweep_mod._mean(samples).hex() == expected.hex()


@given(st.lists(finite_floats, min_size=1, max_size=9),
       st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_a_non_finite_sample_gives_a_nan_stdev(samples, bad, data):
    samples.insert(data.draw(st.integers(0, len(samples))), bad)
    assert math.isnan(sweep_mod._stdev(samples))


def test_single_seed_stddev_is_zero(tmp_path):
    spec = _tiny_spec(tmp_path, seeds=[1])
    results = run_sweep(spec, workers=1)
    for agg in results.aggregates.values():
        assert all(v == 0.0 for v in agg["stddev"].values())


def test_a_seed_without_delay_samples_gives_nan_aggregates(tmp_path):
    # one node at 60 pkt/s: seed 1 has no arrival after warmup, seed 2 has one
    base = SimConfig(arrival_rate=60.0, sim_slots=2000, warmup_slots=500)
    spec = SweepSpec(base=base, node_counts=[1], seeds=[1, 2],
                     variants=[ProtocolVariant(Protocol.CSMA_CA)],
                     output_dir=str(tmp_path / "out"))
    results = run_sweep(spec, workers=1)
    delays = [row.values["mean_delay_s"] for row in results.rows]
    assert math.isnan(delays[0]) and not math.isnan(delays[1])
    for agg in results.aggregates.values():
        assert math.isnan(agg["mean"]["mean_delay_s"])
        assert math.isnan(agg["stddev"]["mean_delay_s"])
        assert agg["stddev"]["transmissions"] == statistics.stdev(
            float(row.values["transmissions"]) for row in results.rows)
    rows = _read_rows(tmp_path / "out" / RESULTS_NAME)
    delay = CSV_COLUMNS.index("mean_delay_s")
    assert [r[delay] for r in rows[1:]] == ["nan", str(delays[1]), "nan", "nan"]
    table = load_results(tmp_path / "out" / RESULTS_NAME)
    assert math.isnan(table.stddev[("csma-ca", 1)]["mean_delay_s"])


def test_reruns_are_byte_identical(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_sweep(spec, workers=1)
    first = (tmp_path / "out" / RESULTS_NAME).read_bytes()
    spec2 = _tiny_spec(tmp_path)
    spec2.output_dir = str(tmp_path / "out2")
    run_sweep(spec2, workers=1)
    second = (tmp_path / "out2" / RESULTS_NAME).read_bytes()
    assert first == second


def test_worker_pool_size_does_not_change_the_bytes(tmp_path):
    spec = _tiny_spec(tmp_path)
    run_sweep(spec, workers=1)
    one = (tmp_path / "out" / RESULTS_NAME).read_bytes()
    spec2 = _tiny_spec(tmp_path)
    spec2.output_dir = str(tmp_path / "pool")
    run_sweep(spec2, workers=2)
    two = (tmp_path / "pool" / RESULTS_NAME).read_bytes()
    assert one == two


def test_worker_count_resolution(monkeypatch):
    assert worker_count(2) == 2
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "3")
    assert worker_count() == 3
    assert worker_count(1) == 1  # explicit request beats the environment
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "x")
    with pytest.raises(ConfigError):
        worker_count()
    with pytest.raises(ConfigError):
        worker_count(0)
    monkeypatch.delenv(sweep_mod.WORKERS_ENV)
    assert worker_count() == (os.cpu_count() or 1)


def test_fault_writes_partial_results_and_reraises(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path, seeds=[1])
    real = sweep_mod.run_simulation

    def sabotaged(cfg):
        if cfg.protocol is Protocol.CSMA_CA and cfg.n_nodes == 3:
            raise ConsistencyError("planted fault")
        return real(cfg)

    monkeypatch.setattr(sweep_mod, "run_simulation", sabotaged)
    with pytest.raises(ConsistencyError, match="planted fault"):
        run_sweep(spec, workers=1)
    rows = _read_rows(tmp_path / "out" / RESULTS_NAME)
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 3  # header, the one finished run, the marker
    assert rows[1][:3] == ["csma-ca", "2", "1"]
    assert rows[2][0] == FAULT_MARKER
    assert rows[2][1].startswith("csma-ca,3,1:")
    assert len(rows[2]) == len(CSV_COLUMNS)


class RecordingPool:
    """A stand-in executor that runs its map here and notes what it got."""

    made = []     # max_workers of each pool built
    chunks = []   # the chunk sizes each map call handed out

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def map(self, fn, runs, configs, chunksize=1):
        configs = list(configs)
        self.chunks.append([min(chunksize, len(configs) - i)
                            for i in range(0, len(configs), chunksize)])
        return map(fn, runs, configs)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "made", [])
    monkeypatch.setattr(RecordingPool, "chunks", [])
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool


def test_the_pool_is_capped_at_the_cell_count(tmp_path, recording_pool):
    spec = _tiny_spec(tmp_path, seeds=[1])  # 4 cells
    run_sweep(spec, workers=64)
    assert recording_pool.made == [4]
    assert recording_pool.chunks == [[1, 1, 1, 1]]
    one = _tiny_spec(tmp_path, seeds=[1], node_counts=[2],
                     variants=[ProtocolVariant(Protocol.CSMA_ECA)],
                     output_dir=str(tmp_path / "one"))
    run_sweep(one, workers=8)
    assert recording_pool.made == [4]  # a single cell runs without a pool


def _many_cells_spec(tmp_path, output_dir):
    """64 cells: at 2 workers the pool gets 32 chunks of 2."""
    return _tiny_spec(tmp_path, node_counts=list(range(1, 17)),
                      output_dir=str(tmp_path / output_dir))


def test_cells_go_out_in_contiguous_chunks(tmp_path, recording_pool):
    run_sweep(_many_cells_spec(tmp_path, "one"), workers=1)
    run_sweep(_many_cells_spec(tmp_path, "pool"), workers=2)
    assert recording_pool.chunks == [[2] * 32]
    assert ((tmp_path / "pool" / RESULTS_NAME).read_bytes()
            == (tmp_path / "one" / RESULTS_NAME).read_bytes())


def _fail_csma_ca_at_three_nodes_seed_two(cfg):
    """Fails cell 5 of _many_cells_spec, the second of its chunk of 2."""
    if (cfg.protocol is Protocol.CSMA_CA and cfg.n_nodes == 3
            and cfg.seed == 2):
        raise ConsistencyError("planted fault")
    return run_simulation(cfg)


def test_a_fault_inside_a_pooled_chunk_writes_the_one_worker_bytes(
        tmp_path, monkeypatch):
    monkeypatch.setattr(sweep_mod, "run_simulation",
                        _fail_csma_ca_at_three_nodes_seed_two)
    for workers in (1, 2):
        with pytest.raises(ConsistencyError, match="planted fault"):
            run_sweep(_many_cells_spec(tmp_path, f"w{workers}"),
                      workers=workers)
    pooled = (tmp_path / "w2" / RESULTS_NAME).read_bytes()
    assert pooled == (tmp_path / "w1" / RESULTS_NAME).read_bytes()
    rows = _read_rows(tmp_path / "w2" / RESULTS_NAME)
    # the header, cells 0-4 (cell 4 ran in the failing cell's chunk, ahead
    # of it) and the fault row
    assert len(rows) == 1 + 5 + 1
    assert rows[5][:3] == ["csma-ca", "3", "1"]
    assert rows[6][:2] == [FAULT_MARKER, "csma-ca,3,2: planted fault"]


def _fail_csma_ca_at_three_nodes(cfg):
    """A saboteur at module level, so a pool worker can unpickle it."""
    if cfg.protocol is Protocol.CSMA_CA and cfg.n_nodes == 3:
        raise ConsistencyError("planted fault")
    return run_simulation(cfg)


def test_pooled_fault_writes_the_one_worker_bytes(tmp_path, monkeypatch):
    # the third of eight runs fails; runs after it may finish in the pool
    monkeypatch.setattr(sweep_mod, "run_simulation",
                        _fail_csma_ca_at_three_nodes)
    written = {}
    for workers in (1, 2):
        spec = _tiny_spec(tmp_path, output_dir=str(tmp_path / f"w{workers}"))
        with pytest.raises(ConsistencyError, match="planted fault"):
            run_sweep(spec, workers=workers)
        written[workers] = (tmp_path / f"w{workers}" / RESULTS_NAME).read_bytes()
    assert written[2] == written[1]
    rows = _read_rows(tmp_path / "w2" / RESULTS_NAME)
    assert [row[:3] for row in rows[1:3]] == [["csma-ca", "2", "1"],
                                              ["csma-ca", "2", "2"]]
    assert rows[3][:2] == [FAULT_MARKER, "csma-ca,3,1: planted fault"]
    assert len(rows) == 4


MARKS_ENV = "ECASIM_TEST_MARKS"  # where _mark_and_fail_the_first_cell marks


def _mark_and_fail_the_first_cell(cfg):
    """Fails _many_cells_spec's first submitted cell (csma-ca, n=1, seed 1);
    every other cell leaves a marker file, takes 20 ms more and runs."""
    if (cfg.protocol is Protocol.CSMA_CA and cfg.n_nodes == 1
            and cfg.seed == 1):
        raise ConsistencyError("planted fault")
    (Path(os.environ[MARKS_ENV])
     / f"{cfg.protocol.value}-{cfg.n_nodes}-{cfg.seed}").touch()
    time.sleep(0.02)
    return run_simulation(cfg)


def test_a_faulted_pooled_sweep_drops_the_chunks_no_one_will_read(
        tmp_path, monkeypatch):
    """Once the first cell's fault is raised, the pool's queued chunks are
    cancelled: only the chunks already handed to a worker still run, and
    they have finished when run_sweep raises."""
    marks = tmp_path / "marks"
    marks.mkdir()
    monkeypatch.setenv(MARKS_ENV, str(marks))
    monkeypatch.setattr(sweep_mod, "run_simulation",
                        _mark_and_fail_the_first_cell)
    with pytest.raises(ConsistencyError, match="planted fault"):
        run_sweep(_many_cells_spec(tmp_path, "pool"), workers=2)
    assert traffic.book is None
    ran = sorted(marks.iterdir())
    assert len(ran) < 63 / 2, f"{len(ran)} of the 63 cells after the fault ran"
    time.sleep(0.1)  # two cells' time: no worker runs on
    assert sorted(marks.iterdir()) == ran
    rows = _read_rows(tmp_path / "pool" / RESULTS_NAME)
    assert rows[1:] == [[FAULT_MARKER, "csma-ca,1,1: planted fault"]
                        + [""] * (len(CSV_COLUMNS) - 2)]


def _raise_runtime_error_at_csma_eca(cfg):
    """A saboteur at module level, so a pool worker can unpickle it."""
    if cfg.protocol is Protocol.CSMA_ECA:
        raise RuntimeError("not a consistency fault")
    return run_simulation(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cell_that_raises_anything_else_propagates_it(
        tmp_path, monkeypatch, workers):
    """Only a ConsistencyError is a cell's outcome; any other exception
    leaves the sweep as it is, with no results.csv and no trace book."""
    monkeypatch.setattr(sweep_mod, "run_simulation",
                        _raise_runtime_error_at_csma_eca)
    spec = _tiny_spec(tmp_path)
    with pytest.raises(RuntimeError, match="^not a consistency fault$"):
        run_sweep(spec, workers=workers)
    assert not (tmp_path / "out" / RESULTS_NAME).exists()
    assert (tmp_path / "out" / ECHO_NAME).is_file()
    assert traffic.book is None


# -- shared arrival traces ----------------------------------------------------

def _standalone(spec):
    """Each cell's report run alone, outside any sweep, in run_keys order."""
    return [run_simulation(spec.config_for(*key)) for key in spec.run_keys()]


def _same_rows(results, reports):
    # repr is exact for floats and spells nan one way
    return [repr(row.report) for row in results.rows] == list(map(repr,
                                                                  reports))


@st.composite
def shared_sweeps(draw):
    """Poisson sweeps whose cells share traces: several variants, node counts
    and seeds, rates that fill small queues and drop, warmup 0, aggregation
    and rejoin_inclusive."""
    agg = draw(st.sampled_from([1, 2, 16]))
    sim_slots = draw(st.integers(20, 400))
    base = SimConfig(
        arrival_rate=draw(st.sampled_from([60.0, 900.0, 8000.0, 40_000.0])),
        queue_capacity=draw(st.one_of(st.integers(agg, agg + 2),
                                      st.just(1000))),
        max_aggregation=agg,
        rejoin_inclusive=draw(st.booleans()),
        cw_min=draw(st.sampled_from([4, 16])),
        sim_slots=sim_slots,
        warmup_slots=draw(st.one_of(st.just(0),
                                    st.integers(0, sim_slots - 1))),
        timing=draw(st.sampled_from([
            DEFAULT_TIMING, TimingTable(slot_empty=10.3, payload_bits=8000)])))
    variants = draw(st.lists(st.sampled_from([
        ProtocolVariant(Protocol.CSMA_CA),
        ProtocolVariant(Protocol.CSMA_ECA),
        ProtocolVariant(Protocol.CSMA_ECA, hysteresis=True),
        ProtocolVariant(Protocol.CSMA_CA, max_aggregation=1)]),
        min_size=2, max_size=3, unique=True))
    node_counts = sorted(draw(st.sets(st.integers(1, 8), min_size=2,
                                      max_size=4)))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=3,
                          unique=True))
    return SweepSpec(base, node_counts, variants, seeds)


MANY_CELLS = SweepSpec(
    SimConfig(arrival_rate=8000.0, queue_capacity=3, max_aggregation=2,
              rejoin_inclusive=True, sim_slots=300, warmup_slots=0),
    list(range(1, 12)),
    [ProtocolVariant(Protocol.CSMA_CA), ProtocolVariant(Protocol.CSMA_ECA),
     ProtocolVariant(Protocol.CSMA_ECA, hysteresis=True)],
    [5, 6])


@settings(max_examples=20, deadline=None)
@given(spec=shared_sweeps())
# 66 cells: at 2 workers a pool chunk holds 2 cells, which share
@example(spec=MANY_CELLS)
def test_shared_traces_give_every_cell_its_standalone_report(spec):
    """Cells of one seed read the arrival instants the first of them drew;
    at 1 and 2 workers every row is still the report of its cell run alone."""
    expected = _standalone(spec)
    with tempfile.TemporaryDirectory() as out:
        for workers in (1, 2):
            spec.output_dir = os.path.join(out, str(workers))
            assert _same_rows(run_sweep(spec, workers=workers), expected)
            assert traffic.book is None  # no trace outlives its sweep


def _counted_run(cfg):
    sim = Simulation(cfg)
    report = sim.run()
    report.drawn_arrivals = sim.drawn_arrivals
    return report


def test_a_seed_draws_each_instant_once(tmp_path, monkeypatch):
    """Node i's stream is the same in every cell of a seed, so the cells of
    one seed draw between them each instant once: as many as the cell that
    needs the most of node i's instants, summed over i, plus fewer than
    LOOKAHEAD per node that the book drew ahead and no cell reached."""
    monkeypatch.setattr(sweep_mod, "run_simulation", _counted_run)
    spec = _tiny_spec(tmp_path, node_counts=[2, 5, 8], variants=[
        ProtocolVariant(Protocol.CSMA_CA), ProtocolVariant(Protocol.CSMA_ECA),
        ProtocolVariant(Protocol.CSMA_CA, max_aggregation=16)])
    spec.base = spec.base._replace(queue_capacity=16, sim_slots=3000)
    rows = run_sweep(spec, workers=1).rows
    for seed in spec.seeds:
        most = {}
        alone = 0
        for variant, n, _ in spec.run_keys():
            sim = Simulation(spec.config_for(variant, n, seed))
            sim.run()
            alone += sim.drawn_arrivals
            for nid, arrived in enumerate(sim.arrivals):
                most[nid] = max(most.get(nid, 0), arrived + 1)
        drawn = sum(row.report.drawn_arrivals for row in rows
                    if row.seed == seed)
        least = sum(most.values())
        assert least <= drawn < least + traffic.LOOKAHEAD * len(most)
        assert drawn < alone


def test_pooled_cells_share_traces_across_chunks(tmp_path, monkeypatch):
    """A pool worker's book serves every cell of its seed that the worker
    runs, whatever chunk the cell came in.  At 2 workers the pool gets 32
    chunks of 2, and still each worker draws a seed's instants once: at
    most as many as the cell that needs the most of node i's instants,
    summed over i, plus LOOKAHEAD per node drawn ahead."""
    monkeypatch.setattr(sweep_mod, "run_simulation", _counted_run)
    workers = 2
    spec = _many_cells_spec(tmp_path, "pool")
    rows = run_sweep(spec, workers=workers).rows
    for seed in spec.seeds:
        most = {}
        for variant, n in product(spec.variants, spec.node_counts):
            sim = Simulation(spec.config_for(variant, n, seed))
            sim.run()
            for nid, arrived in enumerate(sim.arrivals):
                most[nid] = max(most.get(nid, 0), arrived + 1)
        drawn = sum(row.report.drawn_arrivals for row in rows
                    if row.seed == seed)
        least = sum(most.values())
        assert drawn <= workers * (least + traffic.LOOKAHEAD * len(most))


@pytest.mark.parametrize("other", [(1, 1.0), (0, 2.0)],
                         ids=["seed", "rate"])
def test_a_run_ignores_a_book_of_another_seed_or_rate(monkeypatch, other):
    """A book left at another (seed, rate) lends the run nothing and draws
    nothing for it; the run reads its own traces and reports as alone."""
    cfg = SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3, seed=1,
                    arrival_rate=2000.0, sim_slots=400, warmup_slots=100)
    alone = run_simulation(cfg)
    assert alone.transmissions
    foreign = traffic.TraceBook(cfg.seed + other[0],
                                cfg.arrival_rate * other[1])
    monkeypatch.setattr(traffic, "book", foreign)
    assert repr(run_simulation(cfg)) == repr(alone)
    assert not foreign.traces and foreign.drawn == 0
    assert foreign.room == config.MAX_TRACED_INSTANTS


class _BudgetWatch:
    """Checks after every lend and every cell that the book holds no more
    instants than its budget, and that room is the budget less what it
    holds, so that no run can append past it in between."""

    def __init__(self, monkeypatch, budget):
        monkeypatch.setattr(config, "MAX_TRACED_INSTANTS", budget)
        self.budget = budget
        self.most = 0
        self.filled = set()  # the books that let go
        real_lend = traffic.TraceBook.lend
        real_let_go = traffic.TraceBook.let_go
        real_run = sweep_mod.run_simulation

        def lend(book, *args):
            trace = real_lend(book, *args)
            self.check(book)
            return trace

        def let_go(book):
            real_let_go(book)
            self.filled.add(book)

        def run(cfg):
            report = real_run(cfg)
            if traffic.book is not None:
                self.check(traffic.book)
            return report

        monkeypatch.setattr(traffic.TraceBook, "lend", lend)
        monkeypatch.setattr(traffic.TraceBook, "let_go", let_go)
        monkeypatch.setattr(sweep_mod, "run_simulation", run)

    def check(self, book):
        held = sum(len(t.instants) for t in book.traces.values())
        assert 0 <= held <= self.budget and book.room >= 0
        assert held + book.room == (0 if book in self.filled else self.budget)
        self.most = max(self.most, held)


@pytest.mark.parametrize("budget", [0, 1, 40, 700, config.MAX_TRACED_INSTANTS])
def test_the_book_keeps_to_its_budget(tmp_path, monkeypatch, budget):
    """Past its budget the book lets go of every trace and keeps none for
    the rest of its seed; the runs go on privately, with the same reports."""
    spec = _tiny_spec(tmp_path, node_counts=[2, 5, 8], seeds=[1, 2, 3])
    spec.base = spec.base._replace(queue_capacity=4, max_aggregation=2)
    expected = _standalone(spec)
    watch = _BudgetWatch(monkeypatch, budget)
    assert _same_rows(run_sweep(spec, workers=1), expected)
    assert watch.most <= budget
    # each seed draws 1892 to 2705 instants, so 700 runs out, 10^7 never;
    # at 0 the book holds nothing to let go of
    assert bool(watch.filled) == (0 < budget <= 700)


# long and busy: queues fill and drain, so catch-ups land runs of arrivals
BUSY = SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=2, arrival_rate=2000.0,
                 queue_capacity=5, sim_slots=200_000, seed=1)


def test_a_run_trims_the_traces_it_draws_on(monkeypatch):
    """A trace the book does not hold is the run's own: before it draws on,
    the run drops the instants it has passed, and at the end it keeps only
    the stream's next arrival and what follows it, so each node holds O(1)
    instants.  Checked outside a sweep, and on a sweep cell whose book runs
    out of room halfway: the run reads the book's traces, which become its
    own when the book lets go, and reads on past their end."""
    held = []  # what a run's own trace holds each time it draws on
    grow = traffic.Trace.grow

    def watched(trace, rate, until, least=0, most=math.inf):
        if not least:  # the book draws LOOKAHEAD at least
            held.append(len(trace.instants))
        return grow(trace, rate, until, least, most)

    monkeypatch.setattr(traffic.Trace, "grow", watched)
    monkeypatch.setattr(traffic, "book", None)
    bound = traffic.LOOKAHEAD + 1

    def check(sim):
        assert held and max(held) <= bound
        for trace, stream in zip(sim.traces, sim.streams):
            assert len(trace.instants) <= bound
            assert trace.instants[0] == stream.next_us

    sim = Simulation(BUSY)
    alone = sim.run()
    check(sim)
    monkeypatch.setattr(config, "MAX_TRACED_INSTANTS", sim.drawn_arrivals // 2)
    traffic.share(BUSY.seed, BUSY.arrival_rate)
    book = traffic.book
    held.clear()
    sim = Simulation(BUSY)
    assert all(book.traces[nid] is trace
               for nid, trace in enumerate(sim.traces))
    assert repr(sim.run()) == repr(alone)
    assert not book.traces and book.room == 0  # let go for good
    check(sim)


def _fail_csma_eca_at_three_nodes_seed_one(cfg):
    if (cfg.protocol is Protocol.CSMA_ECA and cfg.n_nodes == 3
            and cfg.seed == 1):
        raise ConsistencyError("planted fault")
    return run_simulation(cfg)


def test_a_fault_in_an_early_seed_still_writes_the_cells_submitted_first(
        tmp_path, monkeypatch):
    """Seed 1's cells all run before seed 2's, so the faulty cell (the
    seventh submitted) runs before cells 2, 4 and 6 of seed 2.  Those still
    run, and the rows are the six cells submitted before it, in order."""
    monkeypatch.setattr(sweep_mod, "run_simulation",
                        _fail_csma_eca_at_three_nodes_seed_one)
    written = {}
    for workers in (1, 2):
        spec = _tiny_spec(tmp_path, output_dir=str(tmp_path / f"w{workers}"))
        with pytest.raises(ConsistencyError, match="planted fault"):
            run_sweep(spec, workers=workers)
        assert traffic.book is None
        written[workers] = (tmp_path / f"w{workers}" / RESULTS_NAME).read_bytes()
    assert written[2] == written[1]
    rows = _read_rows(tmp_path / "w1" / RESULTS_NAME)
    keys = [(v.label, n, s) for v, n, s in spec.run_keys()]
    assert [tuple(row[:3]) for row in rows[1:7]] == [
        (label, str(n), str(s)) for label, n, s in keys[:6]]
    assert rows[7][:2] == [FAULT_MARKER, "csma-eca,3,1: planted fault"]
    assert len(rows) == 8
    alone = _standalone(spec)[:6]
    values = [[row[col] for col in range(3, len(CSV_COLUMNS))]
              for row in rows[1:7]]
    assert values == [[str(v) for v in sweep_mod._project(r).values()]
                      for r in alone]


# -- loading results back -----------------------------------------------------

def test_load_results_round_trips_aggregates(tmp_path):
    spec = _tiny_spec(tmp_path)
    results = run_sweep(spec, workers=1)
    table = load_results(tmp_path / "out" / RESULTS_NAME)
    assert table.labels == ["csma-ca", "csma-eca"]
    assert table.node_counts == [2, 3]
    for key, agg in results.aggregates.items():
        for col in METRIC_COLUMNS:
            assert table.mean[key][col] == agg["mean"][col]
            assert table.stddev[key][col] == agg["stddev"][col]
    assert table.meta is not None
    assert table.meta.base.arrival_rate == 2000.0


def test_load_results_rejects_a_fault_marker(tmp_path, monkeypatch):
    spec = _tiny_spec(tmp_path, seeds=[1])

    def explode(cfg):
        raise ConsistencyError("dead on arrival")

    monkeypatch.setattr(sweep_mod, "run_simulation", explode)
    with pytest.raises(ConsistencyError):
        run_sweep(spec, workers=1)
    with pytest.raises(ConfigError, match="fault marker"):
        load_results(tmp_path / "out" / RESULTS_NAME)


def test_load_results_rejects_a_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ConfigError, match="unexpected results header"):
        load_results(path)


def test_load_results_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read results file"):
        load_results(tmp_path / "nope.csv")


def test_the_results_write_check_leaves_every_file_as_it_was(tmp_path):
    """_check_writable opens each path for writing, but an existing file
    keeps its bytes, and neither a missing file nor a symlink's missing
    target is left behind."""
    kept = tmp_path / "kept.csv"
    kept.write_text("old rows\n")
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "target.csv")
    for path in (kept, tmp_path / "new.csv", link):
        sweep_mod._check_writable(path)
    assert kept.read_text() == "old rows\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv",
                                                          "link.csv"]
    with pytest.raises(ConfigError, match="cannot write"):
        sweep_mod._check_writable(tmp_path / "no" / "such.csv")
