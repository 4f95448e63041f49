"""Command line behavior: exit codes, outputs, and error reporting."""

import csv
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ecasim
from ecasim import ConsistencyError
import ecasim.cli as cli_mod
import ecasim.sweep as sweep_mod
from ecasim.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, main
from ecasim.sweep import CSV_COLUMNS, FAULT_MARKER, METRIC_COLUMNS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _write_config(tmp_path, extra=""):
    out = tmp_path / "out"
    path = tmp_path / "sweep.conf"
    path.write_text(
        "node_counts = 2,3\n"
        "seeds = 1\n"
        "arrival_rate = 2000\n"
        "sim_slots = 400\n"
        "warmup_slots = 100\n"
        f"output_dir = {out}\n" + extra)
    return path, out


def test_validate_echoes_the_resolved_config(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    echoed = capsys.readouterr().out
    assert "node_counts = 2,3" in echoed
    assert "arrival_rate = 2000.0" in echoed
    assert "protocol = csma-ca" in echoed


def test_validate_reports_config_errors_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("node_counts = 2\nbogus = 1\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "bogus" in err and ":2:" in err


def test_validate_rejects_a_non_finite_timing_value(tmp_path, capsys):
    path, _ = _write_config(tmp_path, "slot_empty = nan\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "slot_empty must be finite and positive" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "no.conf")]) == EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


def test_validate_rejects_a_rate_above_the_bound(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    assert main(["validate", "--config", str(path),
                 "--override", "arrival_rate = 1e300"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "arrival_rate must be at most 1e+09" in err


def test_validate_rejects_an_aggregation_above_the_bound(tmp_path, capsys):
    path, _ = _write_config(tmp_path)
    assert main(["validate", "--config", str(path),
                 "--override", "max_aggregation=1025",
                 "--override", "queue_capacity=1025"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "max_aggregation must be at most 1024" in err


@pytest.mark.parametrize("overrides, message", [
    (["node_counts = 2, 1000000000000"], "n_nodes must be at most 10000"),
    (["node_counts = 10000", "queue_capacity = 1001"],
     "n_nodes * queue_capacity must be at most 10000000")],
    ids=["nodes", "queued-packets"])
def test_validate_rejects_a_node_count_above_the_bounds(tmp_path, capsys,
                                                        overrides, message):
    """The largest node count is the one a bound refuses."""
    path, _ = _write_config(tmp_path)
    argv = ["validate", "--config", str(path)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


@pytest.mark.parametrize("overrides", [
    ["difs=1e300"], ["difs=1e308", "sifs=1e308"], ["data_rate=1e-300"]],
    ids=["difs", "difs-sifs", "data_rate"])
def test_validate_rejects_a_slot_above_the_bound(tmp_path, capsys, overrides):
    path, _ = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]
                + [f"--override={item}" for item in overrides]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "must last at most 1e+06 us" in err


def test_validate_reports_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"node_counts = 2\n# caf\xe9\n")
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config file {path}: ")


# every key of the config grammar, with values its cast takes and values
# that it or validation refuses
GRAMMAR_KEYS = sorted({"node_counts", "seeds", "protocol", "output_dir",
                       *sweep_mod._FIELD_KEYS})
_PLAUSIBLE = {"node_counts": ["2", "1, 4", "3, 2", "10000, 10001"], "seeds": ["1", "1, 2"],
              "protocol": ["csma-ca", "csma-eca hyst", "csma-ca agg=16"],
              "arrival_rate": ["120", "saturated", "1e9", "1e300", "-1"],
              "output_dir": ["out"], int: ["2", "16", "300000", "0"],
              bool: ["true", "no"],
              float: ["9.0", "1e-3", "nan", "5e-324", "1e300"]}
_values = st.one_of(st.integers(-2**70, 2**70).map(str),
                    st.floats().map(repr), st.text(max_size=12))


@st.composite
def _assignments(draw):
    key = draw(st.sampled_from(GRAMMAR_KEYS))
    plausible = (_PLAUSIBLE[key] if key in _PLAUSIBLE
                 else _PLAUSIBLE[sweep_mod._FIELD_KEYS[key]])
    value = st.sampled_from(plausible) if draw(st.integers(0, 2)) else _values
    return f"{key} = {draw(value)}"


@st.composite
def validate_inputs(draw):
    """Config bytes and overrides: grammar lines, now and then a stray line
    or override, and now and then random bytes (often not UTF-8) spliced in
    at a random place."""
    def rarely():
        return draw(st.integers(0, 3)) == 0

    lines = ["node_counts = 2"] if draw(st.booleans()) else []
    lines += draw(st.lists(_assignments(), max_size=5))
    if rarely():
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.text(max_size=20)))
    data = "\n".join(lines).encode()
    if rarely():
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    overrides = [draw(st.text(max_size=12)) if rarely()
                 else draw(_assignments()).replace(" = ", "=", 1)
                 for _ in range(draw(st.integers(0, 2)))]
    return data, overrides


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=validate_inputs())
@example(inputs=(b"node_counts = 2\n\xff\n", []))
@example(inputs=(b"node_counts = 2\n", ["arrival_rate=1e300"]))
def test_validate_never_shows_a_traceback(tmp_path, inputs):
    """Whatever the config bytes and overrides, validate exits 0, or 1 with
    a config error line, and raises nothing.  On 0 the echo parses back to
    the same sweep and echoes to the same text."""
    data, overrides = inputs
    path = tmp_path / "fuzz.conf"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", "--config", str(path)]
                    + [f"--override={item}" for item in overrides])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
    else:
        echo = out.getvalue()
        assert echo.startswith("# resolved sweep configuration")
        again = sweep_mod.parse_config(echo)
        assert again == sweep_mod.parse_config_with_overrides(path, overrides)
        assert again.resolved_text() == echo


def _main_quietly(argv):
    """main(argv) with stdout and stderr captured: (exit code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def run_inputs(draw):
    """validate_inputs, with overrides that pin what each run costs in place
    of any fuzzed ones of the same keys: at most 300 slots (and a warmup
    that mostly fits), 4 nodes, 1e4 packets/s (or saturated) and 64 queued
    packets.  validate accepts 10000 nodes, whose state alone takes 0.3 s to
    build, so node counts are never left to the fuzzed config."""
    data, overrides = draw(validate_inputs())
    slots = draw(st.integers(1, 300))
    nodes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3,
                          unique=True))
    pins = {"sim_slots": slots,
            "warmup_slots": draw(st.integers(0, slots)),
            "node_counts": ",".join(map(str, sorted(nodes))),
            "arrival_rate": draw(st.sampled_from(
                ["0", "5e-324", "120", "1e4", "saturated"])),
            "queue_capacity": draw(st.integers(1, 64))}
    kept = [item for item in overrides
            if item.partition("=")[0].strip() not in [*pins, "output_dir"]]
    return data, kept + [f"{key}={value}" for key, value in pins.items()]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=run_inputs())
@example(inputs=(b"node_counts = 2\nslot_empty = 5e-324\nwarmup_slots = 0\n",
                 ["sim_slots=200", "node_counts=2", "arrival_rate=100",
                  "queue_capacity=8"]))
def test_run_never_shows_a_traceback(tmp_path, monkeypatch, inputs):
    """A run exits 0, 1 with a config error line, or 2 on a fault."""
    data, overrides = inputs
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    path = tmp_path / "fuzz.conf"
    path.write_bytes(data)
    code, err = _main_quietly(
        ["run", "--config", str(path)]
        + [f"--override={item}" for item in overrides]
        + [f"--override=output_dir={tmp_path / 'out'}"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_FAULT)
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ")


_NUMBERS = st.one_of(st.sampled_from(["0", "1e300", "nan", "inf", "-1"]),
                     st.floats().map(repr))


@st.composite
def results_inputs(draw):
    """results.csv bytes, and whether the golden echo sits next to them.

    A header, then for a few (label, n) cells a seed row and the mean and
    stddev rows, all numbers; and mostly one flaw: a cell (the header's
    too) replaced by a random value, a row a cell short or long, or random
    bytes (often not UTF-8) spliced in.
    """
    labels = draw(st.lists(st.sampled_from(["csma-ca", "csma-eca-hyst"])
                           | st.text(max_size=6), min_size=1, max_size=2))
    counts = draw(st.lists(st.integers(-2**70, 2**70)
                           | st.sampled_from([10**400, -10**400]),
                           min_size=1, max_size=3))
    rows = [list(CSV_COLUMNS)] + [
        [label, n, seed] + [draw(_NUMBERS) for _ in METRIC_COLUMNS]
        for label in labels for n in counts for seed in ("1", "mean", "stddev")]
    flaw = draw(st.sampled_from([None, "cell", "width", "bytes"]))
    row = draw(st.sampled_from(rows))
    if flaw == "cell":
        row[draw(st.integers(0, len(row) - 1))] = draw(_values)
    elif flaw == "width":
        row[-1:] = [] if draw(st.booleans()) else [row[-1], "0"]
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    data = text.getvalue().encode()
    if flaw == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data, draw(st.booleans())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=results_inputs(), fig=st.integers(-1, 9))
def test_figures_never_shows_a_traceback(tmp_path, inputs, fig):
    """figures exits 0, or 1 with a config error line."""
    data, with_echo = inputs
    results = tmp_path / "res" / "results.csv"
    results.parent.mkdir(exist_ok=True)
    results.write_bytes(data)
    echo = results.parent / "config.resolved"
    echo.unlink(missing_ok=True)
    if with_echo:
        echo.write_text((GOLDEN / "poisson" / "config.resolved").read_text())
    code, err = _main_quietly(["figures", "--results", str(results),
                               "--fig", str(fig),
                               "--out", str(tmp_path / "plots")])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ")


def test_run_writes_results_and_echo(tmp_path, capsys):
    path, out = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert (out / "results.csv").exists()
    assert (out / "config.resolved").exists()
    assert str(out / "results.csv") in stdout


def test_run_honors_overrides(tmp_path):
    path, out = _write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["run", "--config", str(path),
                 "--override", f"output_dir={other}",
                 "--override", "seeds=5"]) == EXIT_OK
    assert (other / "results.csv").exists()
    assert not out.exists()
    text = (other / "results.csv").read_text()
    assert ",5," in text.splitlines()[1]


def test_run_fault_preserves_partial_results(tmp_path, capsys, monkeypatch):
    path, out = _write_config(tmp_path)
    real = sweep_mod.run_simulation

    def sabotaged(cfg):
        if cfg.n_nodes == 3:
            raise ConsistencyError("planted fault")
        return real(cfg)

    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    monkeypatch.setattr(sweep_mod, "run_simulation", sabotaged)
    assert main(["run", "--config", str(path)]) == EXIT_FAULT
    err = capsys.readouterr().err
    assert "internal consistency fault: planted fault" in err
    assert "partial results" in err
    assert FAULT_MARKER in (out / "results.csv").read_text()


def test_figures_writes_a_dat_file(tmp_path, capsys):
    path, out = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    plots = tmp_path / "plots"
    assert main(["figures", "--results", str(out / "results.csv"),
                 "--fig", "1", "--out", str(plots)]) == EXIT_OK
    target = plots / "fig1_throughput_bps.dat"
    assert target.exists()
    assert str(target) in capsys.readouterr().out
    assert target.read_text().startswith("# figure 1:")


@pytest.mark.parametrize("under", [False, True],
                         ids=["is-a-file", "under-a-file"])
def test_run_rejects_a_blocked_output_dir_before_the_first_run(
        tmp_path, capsys, monkeypatch, under):
    path, _ = _write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under else blocker
    ran = []
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    monkeypatch.setattr(sweep_mod, "run_simulation", ran.append)
    assert main(["run", "--config", str(path),
                 "--override", f"output_dir={out}"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create directory {out}:")
    assert "Traceback" not in err
    assert ran == []
    assert blocker.read_text() == ""


@pytest.mark.parametrize("under", [False, True],
                         ids=["is-a-file", "under-a-file"])
def test_figures_rejects_a_blocked_out_dir(tmp_path, capsys, under):
    results = Path(__file__).resolve().parent / "golden" / "poisson" / "results.csv"
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "plots" if under else blocker
    assert main(["figures", "--results", str(results), "--fig", "2",
                 "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create directory {out}:")
    assert blocker.read_text() == ""


def _dangle(path):
    path.symlink_to(path.parent.parent / "nowhere" / "x")


@pytest.mark.parametrize("name, block", [
    ("results.csv", Path.mkdir), ("config.resolved", Path.mkdir),
    ("results.csv", _dangle)],
    ids=["results.csv", "config.resolved", "results.csv-dangling-link"])
def test_run_rejects_a_directory_at_an_output_file_before_the_first_run(
        tmp_path, capsys, monkeypatch, name, block):
    path, out = _write_config(tmp_path)
    out.mkdir()
    block(out / name)
    ran = []
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    monkeypatch.setattr(sweep_mod, "run_simulation", ran.append)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}:")
    assert "Traceback" not in err
    assert ran == []
    assert [p.name for p in out.iterdir()] == [name]


def test_run_reports_a_results_file_it_cannot_write_at_the_end(
        tmp_path, capsys, monkeypatch):
    """results.csv turns into a directory during the runs."""
    path, out = _write_config(tmp_path)
    real = sweep_mod.run_simulation

    def blocking(cfg):
        (out / "results.csv").mkdir(exist_ok=True)
        return real(cfg)

    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    monkeypatch.setattr(sweep_mod, "run_simulation", blocking)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'results.csv'}:")
    assert "Traceback" not in err


def test_figures_rejects_a_directory_at_the_dat_file(tmp_path, capsys):
    results = Path(__file__).resolve().parent / "golden" / "poisson" / "results.csv"
    target = tmp_path / "plots" / "fig2_mean_delay_s.dat"
    target.mkdir(parents=True)
    assert main(["figures", "--results", str(results), "--fig", "2",
                 "--out", str(target.parent)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}:")
    assert "Traceback" not in err
    assert list(target.iterdir()) == []


def test_figures_rejects_an_unknown_number(tmp_path, capsys):
    path, out = _write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["figures", "--results", str(out / "results.csv"),
                 "--fig", "9", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "unknown figure" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["poisson", "saturated", "tinyqueue"])
def test_figures_emits_every_figure_from_one_load(tmp_path, monkeypatch,
                                                  capsys, name):
    """--fig 1 ... --fig 7 in one call writes the bytes of seven single
    calls, and reads the results once."""
    results = str(GOLDEN / name / "results.csv")
    for fig in range(1, 8):
        assert main(["figures", "--results", results, "--fig", str(fig),
                     "--out", str(tmp_path / "single")]) == EXIT_OK
    loads = []
    real_load = cli_mod.load_results
    monkeypatch.setattr(cli_mod, "load_results",
                        lambda path: loads.append(path) or real_load(path))
    argv = ["figures", "--results", results, "--out", str(tmp_path / "all")]
    for fig in range(1, 8):
        argv += ["--fig", str(fig)]
    assert main(argv) == EXIT_OK
    assert loads == [results]
    written = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
               for d in ("single", "all")]
    assert len(written[0]) == 7 and written[1] == written[0]


@pytest.mark.parametrize("figs", [("2", "9"), ("9", "2")])
def test_figures_checks_every_number_before_writing(tmp_path, capsys, figs):
    results = GOLDEN / "poisson" / "results.csv"
    plots = tmp_path / "plots"
    assert main(["figures", "--results", str(results), "--fig", figs[0],
                 "--fig", figs[1], "--out", str(plots)]) == EXIT_CONFIG
    assert "unknown figure 9" in capsys.readouterr().err
    assert not plots.exists()


def test_figures_needs_an_existing_results_file(tmp_path, capsys):
    assert main(["figures", "--results", str(tmp_path / "no.csv"),
                 "--fig", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read results file" in capsys.readouterr().err


def test_figures_reports_a_results_file_that_is_not_utf8(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_bytes(",".join(CSV_COLUMNS).encode() + b"\ncsma-ca,\xff\n")
    assert main(["figures", "--results", str(results),
                 "--fig", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read results file {results}: ")


@pytest.mark.parametrize("cells, message", [
    (["csma-ca", "two", "mean"] + ["1.0"] * 9, "n_nodes expects an integer"),
    (["csma-ca", "2", "mean", "abc"] + ["1.0"] * 8,
     "throughput_bps expects a number"),
    (["csma-ca", "2", "mean"] + ["1.0"] * 8, "expected 12 cells, got 11"),
    (["csma-ca", "2", "2", "1.0", "slow"] + ["1.0"] * 7,
     "mean_delay_s expects a number, got 'slow'"),
    (["csma-ca", "1" + "0" * 400, "mean"] + ["1.0"] * 9,
     "n_nodes must be from 1 to 1.79769e+308"),
    (["csma-ca", "0", "mean"] + ["1.0"] * 9,
     "n_nodes must be from 1 to 1.79769e+308, got '0'"),
], ids=["n-nodes", "metric", "short-row", "seed-row-metric", "n-nodes-huge",
        "n-nodes-zero"])
def test_figures_rejects_malformed_results_rows(tmp_path, capsys, cells,
                                                message):
    results = tmp_path / "results.csv"
    good = ["csma-ca", "2", "1"] + ["1.0"] * 9
    results.write_text("\n".join(",".join(row)
                                 for row in (CSV_COLUMNS, good, cells)) + "\n")
    assert main(["figures", "--results", str(results),
                 "--fig", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {results}:3: ")
    assert message in err


def test_subcommand_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_module_is_invocable_as_a_script(tmp_path):
    path, _ = _write_config(tmp_path)
    # -m finds the package from the working directory, installed or not
    src = Path(ecasim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "ecasim.cli", "validate", "--config", str(path)],
        capture_output=True, text=True, cwd=src)
    assert proc.returncode == EXIT_OK
    assert "node_counts = 2,3" in proc.stdout


# Runs in a fresh `python -I`: notes the modules each step loads beyond the
# interpreter's own start-up set, and prints them as the last stdout line.
IMPORT_DIET_CHILD = """\
import sys
baseline = set(sys.modules)
import json
sys.path.insert(0, sys.argv[1])
loaded = {}
def note(step):
    loaded[step] = sorted(set(sys.modules) - baseline)
import ecasim
note("import")
from ecasim.cli import main
from ecasim.sweep import parse_config_with_overrides, run_sweep
assert main(["validate", "--config", sys.argv[2]]) == 0
note("validate")
assert main(["figures", "--results", sys.argv[3], "--fig", "1",
             "--out", sys.argv[4]]) == 0
note("figures")
# two seeds, so every stddev goes through the exact variance
run_sweep(parse_config_with_overrides(sys.argv[2], ["seeds = 1, 2"]),
          workers=1)
note("one-worker run_sweep")
print(json.dumps(loaded))
"""


def test_commands_without_a_pool_skip_its_import_and_statistics(tmp_path):
    """multiprocessing is about as costly to import as ecasim itself.
    dataclasses, with the inspect it loads, cost more than the rest of
    ecasim's import.  statistics, with the fractions and decimal behind it,
    is not needed at all: a sweep aggregates in floats and integers.  So no
    step, the one-worker run_sweep included, may load any of them."""
    path, _ = _write_config(tmp_path)
    golden = Path(__file__).resolve().parent / "golden" / "poisson"
    src = Path(ecasim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_DIET_CHILD, str(src), str(path),
         str(golden / "results.csv"), str(tmp_path / "plots")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    banned = {"multiprocessing", "concurrent.futures.process", "dataclasses",
              "inspect", "statistics", "fractions", "decimal"}
    for step, modules in loaded.items():
        hits = banned & set(modules)
        assert not hits, f"{step} loaded {sorted(hits)}"
