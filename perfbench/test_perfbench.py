"""Tests of the benchmark itself: reporting, byte checks and seeding."""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from golden import digest_outputs, failed_cells, load_goldens
from workloads import (DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload,
                       sweep_seeds)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_CONFIG = """\
protocol = csma-ca, csma-eca hyst
node_counts = 1, 3
seeds = {seeds}
arrival_rate = 400
queue_capacity = 4
sim_slots = 3000
warmup_slots = 300
output_dir = {output_dir}
"""
TINY = Workload("tiny", 1, (("tiny", TINY_CONFIG),))
TINY_POOLED = Workload("tiny", 2, TINY.sweeps)


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """A default-seed batch of the tiny workload: its directory and goldens."""
    run.import_ecasim(run.ROOT)
    where = tmp_path_factory.mktemp("tiny")
    home = os.getcwd()
    os.chdir(where)
    try:
        batch = run.run_batch(TINY.configs(DEFAULT_SEED), 1)
    finally:
        os.chdir(home)
    assert not batch.errors
    return where / "tiny", {"tiny": {DEFAULT_SEED: batch.records}}


@pytest.mark.parametrize("workload, trace, section", [
    (TINY, False, "end_to_end"),
    (TINY_POOLED, False, "end_to_end"),
    (TINY_POOLED, True, "per_layer"),
])
def test_every_metric_printed_with_name_and_unit(workload, trace, section,
                                                 tiny_outputs, tmp_path, capsys):
    result = run.run_benchmark(workload, 5, 0, trace, tiny_outputs[1],
                               work_dir=tmp_path)
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert f"# {name} = {metric['value']!r} {metric['unit']}" in printed
    assert json.loads(json.dumps(result)) == result


def _flip(path, line_no):
    """Change one digit on the given line of a text file."""
    lines = path.read_bytes().split(b"\n")
    line = bytearray(lines[line_no])
    at = max(i for i, ch in enumerate(line) if chr(ch).isdigit())
    line[at] = ord("1") if line[at] != ord("1") else ord("2")
    lines[line_no] = bytes(line)
    path.write_bytes(b"\n".join(lines))


def test_flipped_byte_fails_its_cells(tiny_outputs, tmp_path):
    out, goldens = tiny_outputs
    expected = goldens["tiny"][DEFAULT_SEED]["tiny"]
    rows = [key for key, _ in expected["rows"]]
    all_cells = {k for k in rows if not k.endswith(("mean", "stddev"))}

    def failed_after_flip(name, line_no):
        target = tmp_path / f"{name}-{line_no}"
        shutil.copytree(out, target)
        _flip(target / name, line_no)
        return failed_cells(digest_outputs(target), expected)

    assert failed_cells(digest_outputs(out), expected) == set()
    assert failed_after_flip("results.csv", 1) == {rows[0]}
    mean_line = rows.index("csma-ca,3,mean") + 1
    assert failed_after_flip("results.csv", mean_line) == {
        k for k in all_cells if k.startswith("csma-ca,3,")}
    assert failed_after_flip("fig/fig1_throughput_bps.dat", 3) == all_cells


def test_flipped_golden_row_fails_the_run(tiny_outputs, tmp_path, capsys):
    goldens = copy.deepcopy(tiny_outputs[1])
    row = goldens["tiny"][DEFAULT_SEED]["tiny"]["rows"][0]
    row[1] = row[1][::-1]
    result = run.run_benchmark(TINY, DEFAULT_SEED, 0, False, goldens,
                               work_dir=tmp_path)
    # the warm-up batch and the measured batch both miss the golden row
    assert not result["correct"] and result["failed"] == 2
    assert "check failed" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_seeds_and_nothing_else(name):
    from ecasim.sweep import parse_config
    one, two = WORKLOADS[name].configs(1), WORKLOADS[name].configs(2)
    assert [tag for tag, _ in one] == [tag for tag, _ in two]
    for (_, a), (_, b) in zip(one, two):
        changed = [(x, y) for x, y in zip(a.splitlines(), b.splitlines())
                   if x != y]
        assert len(a.splitlines()) == len(b.splitlines())
        assert [x.partition("=")[0].strip() for x, _ in changed] == ["seeds"]
        spec_a, spec_b = parse_config(a), parse_config(b)
        assert spec_a.seeds == sweep_seeds(1) and spec_b.seeds == sweep_seeds(2)
        spec_b.seeds = spec_a.seeds
        assert spec_a == spec_b
    assert WORKLOADS[name].configs(1) == one


def test_goldens_cover_every_workload_at_both_seeds():
    goldens = load_goldens()
    assert set(goldens) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert set(goldens[name]) == {DEFAULT_SEED, HELD_OUT_SEED}
        for records in goldens[name].values():
            assert set(records) == {tag for tag, _ in workload.sweeps}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "knee_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no ecasim package" in done.stderr
