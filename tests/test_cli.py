"""Command line behavior: exit codes, outputs, and error reporting."""

import subprocess
import sys

import pytest

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
    proc = subprocess.run(
        [sys.executable, "-m", "ecasim.cli", "validate", "--config", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "node_counts = 2,3" in proc.stdout
