"""Frozen output bytes: small sweeps must reproduce committed files exactly.

Each `golden/<name>.cfg` is a sweep whose `results.csv` and
`config.resolved` were generated once, with `ecasim run` on an early engine
that modelled a packet as an object and stepped every busy slot through a
per-slot method of the package (its model lives on as tests/reference.py),
and committed under `golden/<name>/`.  Together the three
sweeps reach CSMA/CA and CSMA/ECA, `agg=16`, `hyst`, `rejoin_inclusive`,
saturated refills, drops from tiny queues (during and after warmup),
`warmup_slots = 0`, `n = 1`, one and two seeds, and a non-default payload
size.  A byte that differs means a run changed its random draws or its
arithmetic.  The fixture is never regenerated to make this test pass.
"""

from pathlib import Path

import pytest

from ecasim.cli import EXIT_OK, main
from ecasim.sweep import ECHO_NAME, RESULTS_NAME

GOLDEN = Path(__file__).resolve().parent / "golden"
SWEEPS = sorted(p.stem for p in GOLDEN.glob("*.cfg"))


def test_every_sweep_has_committed_bytes():
    assert SWEEPS == ["poisson", "saturated", "tinyqueue"]
    for name in SWEEPS:
        for output in (RESULTS_NAME, ECHO_NAME):
            assert (GOLDEN / name / output).is_file()


def _assert_run_reproduces(name, workers, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # output_dir in each config is relative
    monkeypatch.setenv("ECASIM_WORKERS", str(workers))
    assert main(["run", "--config", str(GOLDEN / f"{name}.cfg")]) == EXIT_OK
    for output in (RESULTS_NAME, ECHO_NAME):
        got = (tmp_path / name / output).read_bytes()
        assert got == (GOLDEN / name / output).read_bytes(), output


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_reproduces_golden_bytes(name, tmp_path, monkeypatch):
    _assert_run_reproduces(name, 1, tmp_path, monkeypatch)


@pytest.mark.parametrize("name", SWEEPS)
def test_pooled_sweep_reproduces_golden_bytes(name, tmp_path, monkeypatch):
    """The process pool, built on first use, must write the same bytes."""
    _assert_run_reproduces(name, 2, tmp_path, monkeypatch)
