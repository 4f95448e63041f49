"""Digests of a sweep's output files and the cell-level comparison.

A record holds one digest per `results.csv` line, keyed by the line's first
three fields (protocol, n_nodes, seed or mean/stddev), plus one digest per
other output file (`config.resolved` and the seven figure `.dat` files).
A simulated cell is one (protocol, n_nodes, seed) row; a bad mean or stddev
row fails every cell of its (protocol, n_nodes) group, and a bad header, line
count or other file fails every cell of the sweep.
"""

import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens.json"
AGGREGATE_KINDS = ("mean", "stddev")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def digest_csv(data: bytes) -> dict:
    header, *lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    rows = [[b",".join(line.split(b",", 3)[:3]).decode(errors="replace"),
             _digest(line)] for line in lines]
    return {"header": _digest(header), "rows": rows}


def digest_outputs(out_dir: Path) -> dict | None:
    """The record for one sweep's output directory; None if results are missing."""
    csv_path = out_dir / "results.csv"
    if not csv_path.is_file():
        return None
    record = digest_csv(csv_path.read_bytes())
    record["files"] = {p.relative_to(out_dir).as_posix(): _digest(p.read_bytes())
                       for p in sorted(out_dir.rglob("*"))
                       if p.is_file() and p != csv_path}
    return record


def failed_cells(actual: dict | None, expected: dict) -> set[str]:
    """Cells of `expected` whose bytes `actual` does not reproduce."""
    cells = [key for key, _ in expected["rows"]
             if key.rpartition(",")[2] not in AGGREGATE_KINDS]
    if (actual is None or actual["header"] != expected["header"]
            or len(actual["rows"]) != len(expected["rows"])
            or actual["files"] != expected["files"]):
        return set(cells)
    bad = set()
    for (key, want), (_, got) in zip(expected["rows"], actual["rows"]):
        if got == want:
            continue
        group, _, seed = key.rpartition(",")
        if seed in AGGREGATE_KINDS:
            bad.update(c for c in cells if c.rpartition(",")[0] == group)
        else:
            bad.add(key)
    return bad


def load_goldens(path: Path = GOLDEN_PATH) -> dict:
    """{workload: {seed: {sweep tag: record}}}, seeds as integers."""
    with open(path) as fh:
        raw = json.load(fh)
    return {name: {int(seed): tags for seed, tags in seeds.items()}
            for name, seeds in raw["workloads"].items()}
