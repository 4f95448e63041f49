"""Command line behavior: exit codes, outputs, and error reporting."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import ecasim
from ecasim import ConsistencyError
import ecasim.sweep as sweep_mod
from ecasim.cli import EXIT_CONFIG, EXIT_FAULT, EXIT_OK, main
from ecasim.sweep import CSV_COLUMNS, FAULT_MARKER


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


@pytest.mark.parametrize("name", ["results.csv", "config.resolved"])
def test_run_rejects_a_directory_at_an_output_file_before_the_first_run(
        tmp_path, capsys, monkeypatch, name):
    path, out = _write_config(tmp_path)
    (out / name).mkdir(parents=True)
    ran = []
    monkeypatch.setenv(sweep_mod.WORKERS_ENV, "1")
    monkeypatch.setattr(sweep_mod, "run_simulation", ran.append)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / name}:")
    assert "Traceback" not in err
    assert ran == []
    assert [p.name for p in out.iterdir()] == [name]


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


def test_figures_needs_an_existing_results_file(tmp_path, capsys):
    assert main(["figures", "--results", str(tmp_path / "no.csv"),
                 "--fig", "2", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read results file" in capsys.readouterr().err


@pytest.mark.parametrize("cells, message", [
    (["csma-ca", "two", "mean"] + ["1.0"] * 9, "n_nodes expects an integer"),
    (["csma-ca", "2", "mean", "abc"] + ["1.0"] * 8,
     "throughput_bps expects a number"),
    (["csma-ca", "2", "mean"] + ["1.0"] * 8, "expected 12 cells, got 11"),
], ids=["n-nodes", "metric", "short-row"])
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
run_sweep(parse_config_with_overrides(sys.argv[2], ()), workers=1)
note("one-worker run_sweep")
print(json.dumps(loaded))
"""


def test_commands_without_a_pool_skip_its_import_and_statistics(tmp_path):
    """multiprocessing is about as costly to import as ecasim itself, and
    statistics is needed only to aggregate a finished sweep.  dataclasses,
    with the inspect it loads, cost more than the rest of ecasim's import, so
    no step may load either."""
    path, _ = _write_config(tmp_path)
    golden = Path(__file__).resolve().parent / "golden" / "poisson"
    src = Path(ecasim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_DIET_CHILD, str(src), str(path),
         str(golden / "results.csv"), str(tmp_path / "plots")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    for step, modules in loaded.items():
        banned = {"multiprocessing", "concurrent.futures.process",
                  "dataclasses", "inspect"}
        if step != "one-worker run_sweep":  # aggregating needs statistics
            banned.add("statistics")
        hits = banned & set(modules)
        assert not hits, f"{step} loaded {sorted(hits)}"
