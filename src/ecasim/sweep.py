"""Multi-run sweep harness: config files, run orchestration, CSV results.

Config files are flat key = value text.  Repeated keys and comma separated
values both build lists; `#` starts a comment.  Protocol entries name a
variant: the protocol plus optional space separated flags, e.g.

    protocol = csma-ca
    protocol = csma-ca agg=16
    protocol = csma-eca hyst

Runs are keyed by (protocol label, n_nodes, seed) and executed in that fixed
order; a worker pool only changes wall-clock time, never the emitted bytes,
because results are written back in submission order.
"""

import csv
import math
import os
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

from .config import Protocol, SimConfig, SATURATED
from .engine import run_simulation
from .errors import ConfigError, ConsistencyError
from .timing import TimingTable

CSV_COLUMNS = ["protocol", "n_nodes", "seed", "throughput_bps", "mean_delay_s",
               "avg_end_queue", "q_empty_per_tx", "avg_end_stage",
               "collision_fraction", "drops", "transmissions", "duration_s"]
METRIC_COLUMNS = CSV_COLUMNS[3:]
FAULT_MARKER = "INTERNAL_CONSISTENCY_FAULT"

RESULTS_NAME = "results.csv"
ECHO_NAME = "config.resolved"
WORKERS_ENV = "ECASIM_WORKERS"


class ProtocolVariant(NamedTuple):
    protocol: Protocol
    max_aggregation: int | None = None  # None: inherit the sweep-wide value
    hysteresis: bool = False

    @property
    def label(self) -> str:
        text = self.protocol.value
        if self.max_aggregation is not None:
            text += f"-agg{self.max_aggregation}"
        if self.hysteresis:
            text += "-hyst"
        return text

    def spelling(self) -> str:
        """The config-file spelling that parses back to this variant."""
        text = self.protocol.value
        if self.max_aggregation is not None:
            text += f" agg={self.max_aggregation}"
        if self.hysteresis:
            text += " hyst"
        return text


def parse_variant(text: str, where: str = "") -> ProtocolVariant:
    tokens = text.split()
    if not tokens:
        raise ConfigError(f"empty protocol entry{where}")
    try:
        proto = Protocol(tokens[0])
    except ValueError:
        raise ConfigError(f"unknown protocol {tokens[0]!r}{where}") from None
    agg = None
    hyst = False
    for tok in tokens[1:]:
        if tok == "hyst":
            hyst = True
        elif tok.startswith("agg="):
            try:
                agg = int(tok[4:])
            except ValueError:
                raise ConfigError(f"bad aggregation flag {tok!r}{where}") from None
        else:
            raise ConfigError(f"unknown protocol flag {tok!r}{where}")
    return ProtocolVariant(proto, agg, hyst)


class SweepSpec:
    """The runs of a sweep: every variant at every node count and seed."""

    def __init__(self, base: SimConfig, node_counts: list,
                 variants: list | None = None, seeds: list | None = None,
                 output_dir: str = "results"):
        self.base = base
        self.node_counts = node_counts
        self.variants = ([ProtocolVariant(Protocol.CSMA_CA),
                          ProtocolVariant(Protocol.CSMA_ECA)]
                         if variants is None else variants)
        self.seeds = [1, 2, 3] if seeds is None else seeds
        self.output_dir = output_dir

    def __eq__(self, other):
        return type(other) is SweepSpec and vars(self) == vars(other)

    def config_for(self, variant: ProtocolVariant, n: int, seed: int) -> SimConfig:
        base = self.base
        return base._replace(
            protocol=variant.protocol,
            n_nodes=n,
            seed=seed,
            max_aggregation=(variant.max_aggregation
                             if variant.max_aggregation is not None
                             else base.max_aggregation),
            hysteresis=(variant.hysteresis
                        or (base.hysteresis
                            and variant.protocol is Protocol.CSMA_ECA)),
        )

    def run_keys(self):
        """All (variant, n, seed) triples in their fixed execution order."""
        for variant in self.variants:
            for n in self.node_counts:
                for seed in self.seeds:
                    yield variant, n, seed

    def validate(self) -> None:
        if not self.node_counts:
            raise ConfigError("node_counts must not be empty")
        if any(n < 1 for n in self.node_counts):
            raise ConfigError("node_counts entries must be positive")
        if list(self.node_counts) != sorted(set(self.node_counts)):
            raise ConfigError("node_counts must be strictly increasing")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not self.variants:
            raise ConfigError("at least one protocol is required")
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ConfigError("duplicate protocol entries")
        # Only the variant can make a run invalid: node counts are positive
        # (checked above) and any int is a seed.
        for variant in self.variants:
            self.config_for(variant, self.node_counts[0],
                            self.seeds[0]).validate()

    def resolved_text(self) -> str:
        """Canonical echo of every resolved value; parses back identically."""
        base = self.base
        t = base.timing
        lines = ["# resolved sweep configuration"]
        lines.append("node_counts = " + ",".join(str(n) for n in self.node_counts))
        lines.append("seeds = " + ",".join(str(s) for s in self.seeds))
        for v in self.variants:
            lines.append("protocol = " + v.spelling())
        lines.append(f"output_dir = {self.output_dir}")
        rate = "saturated" if base.arrival_rate == SATURATED else repr(base.arrival_rate)
        lines.append(f"arrival_rate = {rate}")
        for key, kind in _FIELD_KEYS.items():
            value = getattr(t if key in _TIMING_KEYS else base, key)
            lines.append(f"{key} = "
                         + (str(value).lower() if kind is bool else repr(value)))
        return "\n".join(lines) + "\n"


# -- config file grammar -----------------------------------------------------

_LIST_KEYS = {"node_counts", "seeds", "protocol"}

# One key per scalar field, mapped to its type, in echo order: SimConfig's
# int fields, then its bool fields, then TimingTable's fields.  n_nodes and
# seed vary per run (node_counts, seeds); arrival_rate has its own spelling.
_SIM_FIELDS = [(key, kind) for key, kind in SimConfig.__annotations__.items()
               if kind in (int, bool) and key not in ("n_nodes", "seed")]
_FIELD_KEYS = dict(sorted(_SIM_FIELDS, key=lambda item: item[1] is bool)
                   + list(TimingTable.__annotations__.items()))
_TIMING_KEYS = set(TimingTable._fields)


def _parse_lines(text: str, source: str):
    """Yield (line_number, key, value) for every assignment in the file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        yield lineno, key, value


def _cast_int(key, value, where):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects an integer, "
                          f"got {value!r}") from None


def _cast_float(key, value, where):
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"{where}: {key} expects a number, "
                          f"got {value!r}") from None
    return out


def _cast_bool(key, value, where):
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: {key} expects true or false, got {value!r}")


_CASTS = {int: _cast_int, float: _cast_float, bool: _cast_bool}


def parse_config(text: str, source: str = "<config>") -> SweepSpec:
    """Build a validated SweepSpec from config text."""
    lists: dict = {"node_counts": [], "seeds": [], "protocol": []}
    scalars: dict = {}
    for lineno, key, value in _parse_lines(text, source):
        where = f"{source}:{lineno}"
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key == "protocol":
                lists[key].extend(
                    parse_variant(item, f" ({where})") for item in items)
            else:
                lists[key].extend(_cast_int(key, item, where) for item in items)
        elif key in _FIELD_KEYS or key in ("arrival_rate", "output_dir"):
            if key in scalars:
                raise ConfigError(f"{where}: {key} already set on line "
                                  f"{scalars[key][1]}")
            if key in _FIELD_KEYS:
                parsed = _CASTS[_FIELD_KEYS[key]](key, value, where)
            elif key == "arrival_rate":
                parsed = (SATURATED if value.lower() in ("saturated", "inf")
                          else _cast_float(key, value, where))
            else:
                parsed = value
            scalars[key] = (parsed, lineno)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    if not lists["node_counts"]:
        raise ConfigError(f"{source}: node_counts is required")

    taken = {k: v for k, (v, _) in scalars.items()}
    timing = TimingTable(**{k: taken.pop(k) for k in list(taken)
                            if k in _TIMING_KEYS})
    output_dir = taken.pop("output_dir", "results")
    base = SimConfig(timing=timing, **taken)
    # an absent list key takes the default; an explicit empty list is rejected
    spec = SweepSpec(base, lists["node_counts"], lists["protocol"] or None,
                     lists["seeds"] or None, output_dir)
    spec.validate()
    return spec


def parse_config_with_overrides(path, overrides) -> SweepSpec:
    """File values first, then command-line overrides replacing them."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not overrides:
        return parse_config(text, str(path))
    # overrides replace, so strip earlier assignments of overridden keys
    keys = set()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        keys.add(item.partition("=")[0].strip())
    kept = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        key = line.partition("=")[0].strip() if "=" in line else None
        if key in keys:
            continue
        kept.append(raw)
    merged = "\n".join(kept) + "\n" + "\n".join(overrides) + "\n"
    return parse_config(merged, f"{path} (with overrides)")


# -- execution and CSV -------------------------------------------------------

class RunRow(NamedTuple):
    label: str
    n_nodes: int
    seed: int
    values: dict
    report: object


class SweepResults(NamedTuple):
    spec: SweepSpec
    rows: list
    aggregates: dict          # (label, n) -> {"mean": {...}, "stddev": {...}}
    fault: str | None = None  # fault marker text when a run aborted


def _project(report) -> dict:
    return {
        "throughput_bps": report.throughput_bps,
        "mean_delay_s": report.mean_delay_s,
        "avg_end_queue": report.avg_end_queue,
        "q_empty_per_tx": report.queue_empty_per_tx,
        "avg_end_stage": report.avg_end_stage,
        "collision_fraction": report.collision_fraction,
        "drops": report.drops,
        "transmissions": report.transmissions,
        "duration_s": report.duration_s,
    }


def _stdev(samples: list) -> float:
    """Sample standard deviation; 0 for one sample, nan if any is nan or inf.

    statistics.stdev raises on a non-finite sample (a run that measured no
    delay reports nan), where statistics.fmean lets the nan through.
    """
    if len(samples) < 2:
        return 0.0
    if not all(math.isfinite(x) for x in samples):
        return math.nan
    import statistics
    return statistics.stdev(samples)


def worker_count(requested: int | None = None) -> int:
    if requested is not None:
        n = requested
    else:
        raw = os.environ.get(WORKERS_ENV)
        if raw is None:
            n = os.cpu_count() or 1
        else:
            try:
                n = int(raw)
            except ValueError:
                raise ConfigError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("worker count must be at least 1")
    return n


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool, imported on first use.

    The import loads multiprocessing, which would cost every command (validate,
    figures, a one-worker run) about as much as the rest of ecasim's import.
    The name stays a module attribute that _reports looks up at call time, so a
    caller can still put its own executor class in its place.
    """
    from concurrent.futures import ProcessPoolExecutor as pool
    return pool(max_workers=max_workers)


def _reports(configs: list, workers: int):
    """run_simulation over configs, in order, on a pool if workers > 1."""
    if workers == 1 or len(configs) == 1:
        yield from map(run_simulation, configs)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(run_simulation, configs)


def _cells(rows: list):
    """(label, n_nodes) with that cell's rows; rows come in run_keys() order,
    so each cell's rows are contiguous."""
    return [(cell, list(group))
            for cell, group in groupby(rows, key=lambda r: (r.label, r.n_nodes))]


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResults:
    """Run every (protocol, n, seed) cell and write results under output_dir.

    Results land in submission order regardless of the pool size, so reruns
    and different worker counts produce byte-identical CSV files.  If a run
    dies with an internal consistency fault, everything finished before it is
    still written, followed by a fault marker row, and the error propagates.
    """
    spec.validate()
    keys = list(spec.run_keys())
    configs = [spec.config_for(*key) for key in keys]
    workers = worker_count(workers)
    # output paths fail before the first run, not after the last
    out = make_dir(spec.output_dir)
    if (out / RESULTS_NAME).is_dir():
        raise ConfigError(f"cannot write {out / RESULTS_NAME}: "
                          "it is a directory")
    write_text(out / ECHO_NAME, spec.resolved_text())

    rows = []
    try:
        for (variant, n, seed), report in zip(keys,
                                              _reports(configs, workers)):
            rows.append(RunRow(variant.label, n, seed, _project(report),
                               report))
    except ConsistencyError as exc:
        # results arrive in submission order, so the failed run is the next key
        variant, n, seed = keys[len(rows)]
        fault = f"{variant.label},{n},{seed}: {exc}"
        results = SweepResults(spec, rows, {}, fault=fault)
        write_results_csv(results, out / RESULTS_NAME)
        raise

    import statistics
    aggregates = {}
    for cell, cell_rows in _cells(rows):
        mean = {}
        std = {}
        for col in METRIC_COLUMNS:
            samples = [float(r.values[col]) for r in cell_rows]
            mean[col] = statistics.fmean(samples)
            std[col] = _stdev(samples)
        aggregates[cell] = {"mean": mean, "stddev": std}

    results = SweepResults(spec, rows, aggregates)
    write_results_csv(results, out / RESULTS_NAME)
    return results


def write_results_csv(results: SweepResults, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell, cell_rows in _cells(results.rows):
            for row in cell_rows:
                writer.writerow([row.label, row.n_nodes, row.seed]
                                + [row.values[c] for c in METRIC_COLUMNS])
            agg = results.aggregates.get(cell)
            if agg:
                for kind in ("mean", "stddev"):
                    writer.writerow(list(cell) + [kind]
                                    + [agg[kind][c] for c in METRIC_COLUMNS])
        if results.fault is not None:
            writer.writerow([FAULT_MARKER, results.fault]
                            + [""] * (len(CSV_COLUMNS) - 2))


def make_dir(path) -> Path:
    """Create a directory and its parents; a file in the way is a ConfigError."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc}") from None
    return path


def write_text(path: Path, text: str) -> None:
    """Write a whole file; a failed write is a ConfigError."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


# -- reading results back (figures work from the CSV, never recompute) -------

class ResultsTable(NamedTuple):
    labels: list
    node_counts: list
    mean: dict      # (label, n) -> {column -> float}
    stddev: dict
    meta: SweepSpec | None = None


def load_results(csv_path, echo_path=None) -> ResultsTable:
    csv_path = Path(csv_path)
    try:
        fh = open(csv_path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read results file {csv_path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_COLUMNS:
            raise ConfigError(f"{csv_path}: unexpected results header")
        labels = []
        node_counts = []
        mean: dict = {}
        stddev: dict = {}
        for row in reader:
            if not row:
                continue
            if row[0] == FAULT_MARKER:
                raise ConfigError(
                    f"{csv_path}: results contain a fault marker: {row[1]}")
            where = f"{csv_path}:{reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ConfigError(f"{where}: expected {len(CSV_COLUMNS)} "
                                  f"cells, got {len(row)}")
            label, n, seed = row[0], _cast_int("n_nodes", row[1], where), row[2]
            values = {c: _cast_float(c, v, where)
                      for c, v in zip(METRIC_COLUMNS, row[3:])}
            if label not in labels:
                labels.append(label)
            if n not in node_counts:
                node_counts.append(n)
            if seed in ("mean", "stddev"):
                (mean if seed == "mean" else stddev)[(label, n)] = values
    meta = None
    if echo_path is None:
        candidate = csv_path.parent / ECHO_NAME
        echo_path = candidate if candidate.exists() else None
    if echo_path is not None:
        meta = parse_config_with_overrides(echo_path, ())
    return ResultsTable(labels, sorted(node_counts), mean, stddev, meta)
