"""Multi-run sweep harness: config files, run orchestration, CSV results.

Config files are flat key = value text.  Repeated keys and comma separated
values both build lists; `#` starts a comment.  Protocol entries name a
variant: the protocol plus optional space separated flags, each at most
once, e.g.

    protocol = csma-ca
    protocol = csma-ca agg=16
    protocol = csma-eca hyst

Runs are keyed by (protocol label, n_nodes, seed) and submitted in that fixed
order.  They execute grouped by seed, so that a cell reads the arrival
instants that earlier cells of its seed drew in the same process
(traffic.TraceBook); neither that nor a worker pool changes the emitted
bytes, because results are written back in submission order.
"""

import math
import os
import sys
from contextlib import closing, contextmanager
from itertools import groupby, product
from pathlib import Path
from typing import NamedTuple

from .config import Protocol, SimConfig, SATURATED
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
        return self.spelling().replace(" agg=", "-agg").replace(" hyst", "-hyst")

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
        if tok == "hyst" and not hyst:
            hyst = True
        elif tok.startswith("agg=") and agg is None:
            try:
                agg = int(tok[4:])
            except ValueError:
                raise ConfigError(f"bad aggregation flag {tok!r}{where}") from None
        elif tok == "hyst" or tok.startswith("agg="):
            flag = tok.partition("=")[0]
            raise ConfigError(f"repeated protocol flag {flag!r}{where}")
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
        return product(self.variants, self.node_counts, self.seeds)

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
        # Only the variant and the largest node count can make a run invalid:
        # node counts are positive and increasing (checked above), so a bound
        # on n refuses the largest first, and any int is a seed.
        for variant in self.variants:
            self.config_for(variant, self.node_counts[-1],
                            self.seeds[0]).validate()

    def resolved_text(self) -> str:
        """Canonical echo of every resolved value; parses back identically."""
        lines = ["# resolved sweep configuration"]
        lines.append("node_counts = " + ",".join(str(n) for n in self.node_counts))
        lines.append("seeds = " + ",".join(str(s) for s in self.seeds))
        for v in self.variants:
            lines.append("protocol = " + v.spelling())
        lines.append(f"output_dir = {self.output_dir}")
        for key, kind in _FIELD_KEYS.items():
            value = getattr(self.base.timing if key in TimingTable._fields
                            else self.base, key)
            text = str(value).lower() if kind is bool else repr(value)
            # arrival_rate is the one field that may be inf
            lines.append(f"{key} = "
                         + ("saturated" if value == SATURATED else text))
        return "\n".join(lines) + "\n"


# -- config file grammar -----------------------------------------------------

# One key per scalar field, mapped to its type, in echo order: SimConfig's
# number fields, then its bool fields, then TimingTable's fields.  n_nodes and
# seed vary per run (node_counts, seeds).
_FIELD_KEYS = dict(sorted(
    ((key, kind) for key, kind in SimConfig.__annotations__.items()
     if kind in (int, float, bool) and key not in ("n_nodes", "seed")),
    key=lambda item: item[1] is bool), **TimingTable.__annotations__)


def _split(raw: str) -> tuple:
    """A line's (key, value), each stripped, its comment cut off first; the
    key is None if no `=` is left, and the value is then the whole line."""
    key, eq, value = raw.split("#", 1)[0].partition("=")
    return (key.strip(), value.strip()) if eq else (None, key.strip())


def _parse_lines(text: str, source: str):
    """Yield (line_number, key, value) for every assignment in the file."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, value = _split(raw)
        if key is None and not value:
            continue  # blank, or only a comment
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        yield lineno, key, value


def _cast(kind, key, value: str, where: str):
    """value as kind for key: int, float, bool (true/false, 1/0, yes/no) or
    str; `saturated` for arrival_rate is the grammar's only special spelling."""
    low = value.lower()
    if kind is bool:
        if low in ("true", "1", "yes", "false", "0", "no"):
            return low in ("true", "1", "yes")
    elif key == "arrival_rate" and low == "saturated":
        return SATURATED
    else:
        try:
            return kind(value)
        except ValueError:
            pass
    noun = {int: "an integer", float: "a number", bool: "true or false"}[kind]
    raise ConfigError(f"{where}: {key} expects {noun}, got {value!r}")


def parse_config(text: str, source: str = "<config>") -> SweepSpec:
    """Build a validated SweepSpec from config text."""
    lists: dict = {}  # each list key that appears, with or without items
    scalars: dict = {}
    for lineno, key, value in _parse_lines(text, source):
        where = f"{source}:{lineno}"
        if key in ("node_counts", "seeds", "protocol"):
            items = [v.strip() for v in value.split(",") if v.strip()]
            into = lists.setdefault(key, [])
            if key == "protocol":
                into.extend(parse_variant(item, f" ({where})") for item in items)
            else:
                into.extend(_cast(int, key, item, where) for item in items)
        elif key in _FIELD_KEYS or key == "output_dir":
            if key in scalars:
                raise ConfigError(f"{where}: {key} already set on line "
                                  f"{scalars[key][1]}")
            scalars[key] = (_cast(_FIELD_KEYS.get(key, str), key, value, where),
                            lineno)
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    if "node_counts" not in lists:
        raise ConfigError(f"{source}: node_counts is required")

    taken = {k: v for k, (v, _) in scalars.items()}
    timing = TimingTable(**{k: taken.pop(k) for k in list(taken)
                            if k in TimingTable._fields})
    output_dir = taken.pop("output_dir", "results")
    base = SimConfig(timing=timing, **taken)
    # an absent list key takes the default; an explicit empty list is rejected
    spec = SweepSpec(base, lists["node_counts"], lists.get("protocol"),
                     lists.get("seeds"), output_dir)
    spec.validate()
    return spec


def parse_config_with_overrides(path, overrides) -> SweepSpec:
    """File values first, then command-line overrides replacing them."""
    path = Path(path)
    with _io_errors(f"read config file {path}"):
        text = path.read_text()
    if not overrides:
        return parse_config(text, str(path))
    # overrides replace, so blank out earlier assignments of overridden keys
    # (blanked, not dropped, so errors keep the file's line numbers)
    keys = set()
    for item in overrides:
        key = _split(item)[0]
        if not key:
            raise ConfigError(f"override {item!r} is not key=value")
        keys.add(key)
    kept = ["" if _split(raw)[0] in keys else raw for raw in text.splitlines()]
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
    aggregates: dict    # (label, n) -> {"mean": {...}, "stddev": {...}}


def _project(report) -> dict:
    """The report's CSV values; q_empty_per_tx is queue_empty_per_tx."""
    return {col: getattr(report, col.replace("q_", "queue_", 1))
            for col in METRIC_COLUMNS}


def _mean(samples: list) -> float:
    """Arithmetic mean, computed exactly as statistics.fmean computes it."""
    return math.fsum(samples) / len(samples)


def _stdev(samples: list) -> float:
    """Sample standard deviation; 0 for one sample, nan if any is nan or inf.

    The same float as statistics.stdev, without its Fraction arithmetic.  A
    finite float is an integer over a power of two, so over the largest such
    denominator d the samples are integers x_i, and the sample variance is
    exactly (k*sum(x_i**2) - sum(x_i)**2) / (k*(k-1)*d**2).  Its square root
    is rounded once, with the round-to-odd isqrt step statistics uses, which
    makes it correctly rounded.  statistics.stdev raises on a non-finite
    sample (a run that measured no delay reports nan); this returns nan.
    """
    k = len(samples)
    if k < 2:
        return 0.0
    if not all(map(math.isfinite, samples)):
        return math.nan
    ratios = [x.as_integer_ratio() for x in samples]
    d = max(m for _, m in ratios)
    xs = [n * (d // m) for n, m in ratios]
    total = sum(xs)
    num = k * sum(x * x for x in xs) - total * total
    den = k * (k - 1) * d * d
    # scale num/den to about 2*53+3 bits, so the integer root keeps at least
    # two bits beyond a float's 53: round-to-odd there, then one rounding
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return (root << max(q, 0)) / (1 << max(-q, 0))


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


def run_simulation(cfg):
    """engine.run_simulation(cfg), with the engine imported on first use.

    ecasim's import and the commands that run no cell (validate, figures)
    never load the simulator.  The name stays a module attribute that
    _reports looks up at call time, so a caller can put its own cell runner
    in its place.
    """
    from .engine import run_simulation as run
    return run(cfg)


def _run_cell(run, cfg):
    """run(cfg), in a pool worker or here, reading the arrival instants of
    the process's trace book for cfg's (seed, rate) (traffic.share); a
    ConsistencyError is returned, not raised, as the cell's outcome.

    A chunk of cells is one executor task, so a raise would lose the reports
    ahead of it in its chunk.  run is what stood at sweep.run_simulation when
    the sweep began, so that a replacement put there is what runs.
    """
    from . import traffic
    traffic.share(cfg.seed, cfg.arrival_rate)
    try:
        return run(cfg)
    except ConsistencyError as exc:
        return exc


def _reports(configs: list, workers: int):
    """Each config's outcome, its report or the ConsistencyError it
    returned, in submission order, from one map over the cells: on a pool
    if workers > 1.

    The cells run grouped by seed (stable within a seed), so that the cells
    of one seed follow each other and a process reads the instants its
    earlier cells of that seed drew, in any chunk (traffic.TraceBook).  The
    executor sends the cells out in contiguous chunks, about 16 per worker,
    so the parent handles a few dozen results instead of one per cell.
    Closing this early cancels the queued chunks; the running ones finish.
    The engine is imported before the pool starts, so that forked workers
    inherit it instead of each importing it again.
    """
    from . import engine, traffic
    rank = {}
    for cfg in configs:
        rank.setdefault(cfg.seed, len(rank))
    order = sorted(range(len(configs)), key=lambda k: rank[configs[k].seed])
    ordered = [configs[k] for k in order]
    runs = [run_simulation] * len(ordered)
    pool = None if workers == 1 else ProcessPoolExecutor(max_workers=workers)
    try:
        outcomes = (map(_run_cell, runs, ordered) if pool is None else
                    pool.map(_run_cell, runs, ordered,
                             chunksize=max(1, len(configs) // (workers * 16))))
        done = {}
        nxt = 0
        for k, outcome in zip(order, outcomes):
            done[k] = outcome
            while nxt in done:
                yield done.pop(nxt)
                nxt += 1
    finally:
        traffic.book = None  # no trace outlives its sweep
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _cells(rows: list):
    """(label, n_nodes) with that cell's rows; rows come in run_keys() order,
    so each cell's rows are contiguous."""
    return [(cell, list(group))
            for cell, group in groupby(rows, key=lambda r: (r.label, r.n_nodes))]


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResults:
    """Run every (protocol, n, seed) cell and write results under output_dir.

    Results land in submission order regardless of the pool size, so reruns
    and different worker counts produce byte-identical CSV files.  At the
    first cell, in submission order, that dies with an internal consistency
    fault, the rows before it are written with a fault row, and it is raised.
    """
    spec.validate()
    keys = list(spec.run_keys())
    configs = [spec.config_for(*key) for key in keys]
    # a pool starts all its processes at once, so none beyond the cell count
    workers = min(worker_count(workers), len(configs))
    # output paths fail before the first run, not after the last
    out = make_dir(spec.output_dir)
    _check_writable(out / RESULTS_NAME)
    write_text(out / ECHO_NAME, spec.resolved_text())

    rows = []
    with closing(_reports(configs, workers)) as outcomes:
        for (variant, n, seed), outcome in zip(keys, outcomes):
            if isinstance(outcome, ConsistencyError):
                fault = f"{variant.label},{n},{seed}: {outcome}"
                write_results_csv(SweepResults(spec, rows, {}),
                                  out / RESULTS_NAME, fault)
                raise outcome
            rows.append(RunRow(variant.label, n, seed, _project(outcome),
                               outcome))

    aggregates = {}
    for cell, cell_rows in _cells(rows):
        mean = {}
        std = {}
        for col in METRIC_COLUMNS:
            samples = [float(r.values[col]) for r in cell_rows]
            mean[col] = _mean(samples)
            std[col] = _stdev(samples)
        aggregates[cell] = {"mean": mean, "stddev": std}

    results = SweepResults(spec, rows, aggregates)
    write_results_csv(results, out / RESULTS_NAME)
    return results


def write_results_csv(results: SweepResults, path,
                      fault: str | None = None) -> None:
    """The results as CSV, ending in a marker row with the fault text if any."""
    import csv
    with _io_errors(f"write {path}"), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell, cell_rows in _cells(results.rows):
            for row in cell_rows:
                writer.writerow([row.label, row.n_nodes, row.seed]
                                + [row.values[c] for c in METRIC_COLUMNS])
            agg = results.aggregates.get(cell)
            if agg:
                for kind in ("mean", "stddev"):
                    writer.writerow(
                        list(cell) + [kind]
                        + [agg[kind][c] for c in METRIC_COLUMNS])
        if fault is not None:
            writer.writerow([FAULT_MARKER, fault]
                            + [""] * (len(CSV_COLUMNS) - 2))


@contextmanager
def _io_errors(what: str):
    """Turn a failed read or write into a ConfigError: cannot <what>: ..."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot {what}: {exc}") from None


def _check_writable(path: Path) -> None:
    """Open path for writing, truncating nothing and leaving no new file."""
    existed = path.exists()
    with _io_errors(f"write {path}"):
        open(path, "a").close()
    if not existed:
        path.resolve().unlink()


def make_dir(path) -> Path:
    """Create a directory and its parents; a file in the way is a ConfigError."""
    path = Path(path)
    with _io_errors(f"create directory {path}"):
        path.mkdir(parents=True, exist_ok=True)
    return path


def write_text(path: Path, text: str) -> None:
    """Write a whole file; a failed write is a ConfigError."""
    with _io_errors(f"write {path}"):
        path.write_text(text)


# -- reading results back (figures work from the CSV, never recompute) -------

class ResultsTable(NamedTuple):
    labels: list
    node_counts: list
    mean: dict      # (label, n) -> {column -> float}
    stddev: dict
    meta: SweepSpec | None = None


def load_results(csv_path) -> ResultsTable:
    import csv
    csv_path = Path(csv_path)
    with _io_errors(f"read results file {csv_path}"), \
            open(csv_path, newline="") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise ConfigError(f"{csv_path}: unexpected results header")
    labels: dict = {}       # insertion-ordered sets
    node_counts: dict = {}
    mean: dict = {}
    stddev: dict = {}
    width = len(CSV_COLUMNS)
    for row in reader:
        if not row:
            continue
        if row[0] == FAULT_MARKER:
            raise ConfigError(
                f"{csv_path}: results contain a fault marker: {row[1]}")
        if len(row) != width:
            raise ConfigError(f"{csv_path}:{reader.line_num}: expected "
                              f"{width} cells, got {len(row)}")
        try:
            n = int(row[1])
            values = list(map(float, row[3:]))
        except ValueError:
            # name the first cell that is not a number
            where = f"{csv_path}:{reader.line_num}"
            _cast(int, "n_nodes", row[1], where)
            for col, value in zip(METRIC_COLUMNS, row[3:]):
                _cast(float, col, value, where)
            raise
        if not 1 <= n <= sys.float_info.max:  # figure 1 needs n as a float
            raise ConfigError(f"{csv_path}:{reader.line_num}: n_nodes must be "
                              f"from 1 to {sys.float_info.max:g}, got {row[1]!r}")
        label, seed = row[0], row[2]
        labels[label] = None
        node_counts[n] = None
        if seed in ("mean", "stddev"):
            (mean if seed == "mean" else stddev)[(label, n)] = dict(
                zip(METRIC_COLUMNS, values))
    echo = csv_path.parent / ECHO_NAME
    meta = parse_config_with_overrides(echo, ()) if echo.exists() else None
    return ResultsTable(list(labels), sorted(node_counts), mean, stddev,
                        meta)
