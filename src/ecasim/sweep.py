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
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path

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


@dataclass(frozen=True)
class ProtocolVariant:
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


@dataclass
class SweepSpec:
    base: SimConfig
    node_counts: list
    variants: list = field(default_factory=lambda: [
        ProtocolVariant(Protocol.CSMA_CA), ProtocolVariant(Protocol.CSMA_ECA)])
    seeds: list = field(default_factory=lambda: [1, 2, 3])
    output_dir: str = "results"

    def config_for(self, variant: ProtocolVariant, n: int, seed: int) -> SimConfig:
        base = self.base
        return replace(
            base,
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
        for variant, n, seed in self.run_keys():
            self.config_for(variant, n, seed).validate()

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
_SIM_FIELDS = [f for f in fields(SimConfig)
               if f.type in (int, bool) and f.name not in ("n_nodes", "seed")]
_FIELD_KEYS = {f.name: f.type
               for f in sorted(_SIM_FIELDS, key=lambda f: f.type is bool)
               + list(fields(TimingTable))}
_TIMING_KEYS = {f.name for f in fields(TimingTable)}


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
    spec = SweepSpec(base=base, node_counts=lists["node_counts"],
                     output_dir=output_dir)
    if lists["protocol"]:
        spec.variants = lists["protocol"]
    if lists["seeds"]:
        spec.seeds = lists["seeds"]
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

@dataclass
class RunRow:
    label: str
    n_nodes: int
    seed: int
    values: dict
    report: object


@dataclass
class SweepResults:
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
        _write_outputs(results)
        raise

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
    _write_outputs(results)
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


def _write_outputs(results: SweepResults) -> None:
    out = Path(results.spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(results, out / RESULTS_NAME)
    (out / ECHO_NAME).write_text(results.spec.resolved_text())


# -- reading results back (figures work from the CSV, never recompute) -------

@dataclass
class ResultsTable:
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
