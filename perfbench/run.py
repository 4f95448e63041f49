"""ecasim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload knee_sweep --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; ecasim is imported from the
checkout's `src/` and nowhere else.  A batch drives ecasim the way a user
does: config text is written to a file, `ecasim run` and `ecasim figures`
(figures 1-7) run in-process through `ecasim.cli.main`, and every output
file is checked byte for byte.  Batches repeat back to back for `--seconds`
after one untimed warm-up batch at the default seed, which is always checked
against the committed goldens.  Batches of a seed without goldens must match
that seed's first batch.

`--trace 0` reports the end-to-end metrics (medians over batches).  `--trace
1` alternates untraced and traced batches at one worker (plus a pooled batch
for multi-worker workloads) and reports the per-layer metrics and the tracing
overhead.  Times are host seconds scaled to a nominal host speed by reference
slices run next to the work (see hostspeed.py); the unscaled median is
printed too.  The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}, where attempted and failed count simulated
cells.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from golden import digest_outputs, failed_cells, load_goldens
from hostspeed import HostSpeed, pooled_scale, sliced_cell
from tracer import Patches, PoolProbe, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
FIGURES = range(1, 8)
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "wall_s": "s",
    "slots_per_s": "1/s",
    "busy_slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cell_pass_rate": "ratio",
}

# Runs in a fresh interpreter: the cost a user pays before the first slot,
# then reference slices in the same process to scale it by host speed.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ecasim
from ecasim.sweep import parse_config
for text in sys.argv[3:]:
    parse_config(text).validate()
took = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import statistics
from hostspeed import NOMINAL_S, slice_s
print(repr(took * NOMINAL_S / statistics.median(slice_s() for _ in range(3))))
"""


class MissingSource(Exception):
    """The checkout has no ecasim sources to benchmark."""


def import_ecasim(root: Path):
    """Import ecasim from root/src, refusing any other copy."""
    package = root / "src" / "ecasim"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no ecasim package under {package}")
    sys.path.insert(0, str(package.parent))
    import ecasim
    if Path(ecasim.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"ecasim was imported from {ecasim.__file__}, "
                            f"not from {package}")
    return ecasim


@dataclass
class Batch:
    wall_s: float              # host seconds, reference slices left out
    records: dict              # sweep tag -> golden.digest_outputs record
    scaled_s: float            # wall_s scaled to nominal host speed
    sim_slots: int = 0         # simulated slots, warmup included
    busy_slots: int = 0        # post-warmup success + collision slots
    errors: list = field(default_factory=list)


def run_batch(configs, workers: int, instrument=None, speed=None) -> Batch:
    """Run each (tag, config text) sweep plus its figures; time the lot.

    With a HostSpeed, a reference slice runs before every cell (in the pool
    worker for pooled sweeps) and, for cells run here, also between and
    around the sweeps; slice time is left out of wall_s, and scaled_s is
    wall_s scaled by the host speed the slices measured.
    """
    from ecasim import cli, sweep
    for tag, _ in configs:
        shutil.rmtree(tag, ignore_errors=True)
    os.environ["ECASIM_WORKERS"] = str(workers)
    swept = []
    errors = []
    patches = Patches()
    if instrument is not None:
        instrument.install(patches)
    run_sweep = cli.run_sweep

    def keep_results(*args, **kwargs):
        results = run_sweep(*args, **kwargs)
        swept.append(results)
        return results

    patches.set(cli, "run_sweep", keep_results)
    pooled = speed is not None and workers > 1
    if pooled:
        patches.set(sweep, "run_simulation", sliced_cell)
    elif speed is not None:
        run_cell = sweep.run_simulation

        def sampled_cell(cfg):
            speed.sample()
            return run_cell(cfg)

        patches.set(sweep, "run_simulation", sampled_cell)
        host0, scaled0 = speed.host_s, speed.scaled_s
        speed.sample()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for i, (tag, text) in enumerate(configs):
                if speed is not None and not pooled and i:
                    speed.sample()
                config = Path(f"{tag}.cfg")
                config.write_text(text)
                commands = [["run", "--config", str(config)]] + [
                    ["figures", "--results", f"{tag}/results.csv",
                     "--fig", str(fig), "--out", f"{tag}/fig"]
                    for fig in FIGURES]
                for argv in commands:
                    try:
                        code = cli.main(argv)
                    except Exception:
                        traceback.print_exc()
                        code = "exception"
                    if code != 0:
                        errors.append(f"ecasim {' '.join(argv)}: exit {code}")
                        break
        wall = time.perf_counter() - t0
        if speed is not None and not pooled:
            speed.sample()
            speed.restart()
            wall = speed.host_s - host0
    finally:
        patches.undo()
    batch = Batch(wall, {tag: digest_outputs(Path(tag)) for tag, _ in configs},
                  scaled_s=wall, errors=errors)
    if pooled and swept:
        factor, sliced = pooled_scale(
            [row.report for results in swept for row in results.rows], workers)
        batch.wall_s -= sliced
        batch.scaled_s = batch.wall_s * factor
    elif speed is not None:
        batch.scaled_s = speed.scaled_s - scaled0
    for results in swept:
        batch.sim_slots += len(results.rows) * results.spec.base.sim_slots
        batch.busy_slots += sum(row.report.slots_success
                                + row.report.slots_collision
                                for row in results.rows)
    return batch


class Checker:
    """Counts cells attempted and cells whose bytes differ from the reference.

    The reference for a seed is its golden record when one is committed, and
    otherwise the first batch run at that seed in this process.
    """

    def __init__(self, workload, goldens: dict):
        self.expected = dict(goldens.get(workload.name, {}))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        from ecasim.sweep import parse_config
        self.cells = {tag: len(list(parse_config(text).run_keys()))
                      for tag, text in workload.configs(DEFAULT_SEED)}

    def check(self, seed: int, batch: Batch, what: str) -> None:
        self.attempted += sum(self.cells.values())
        self.problems.extend(f"{what}: {e}" for e in batch.errors)
        expected = self.expected.get(seed)
        if expected is None:
            if all(r is not None for r in batch.records.values()):
                self.expected[seed] = batch.records
            else:
                self.failed += sum(self.cells.values())
                self.problems.append(f"{what}: seed {seed} gave no reference")
            return
        for tag, want in expected.items():
            bad = failed_cells(batch.records.get(tag), want)
            if bad:
                self.failed += min(len(bad), self.cells[tag])
                self.problems.append(f"{what}: {tag} seed {seed}: {len(bad)} "
                                     f"cells differ: {sorted(bad)[:4]}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def measure_setup_s(root: Path, configs) -> float:
    """Median scaled seconds to import ecasim and parse the configs."""
    argv = [sys.executable, "-I", "-c", SETUP_CHILD, str(root / "src"),
            str(Path(__file__).resolve().parent)]
    argv += [text for _, text in configs]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True,
                              check=True, timeout=60)
        if i:  # the first child only warms the bytecode and file caches
            samples.append(float(done.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024


def measure_end_to_end(workload, seed, seconds, checker, root) -> dict:
    configs = workload.configs(seed)
    setup_s = measure_setup_s(root, configs)
    warm = run_batch(workload.configs(DEFAULT_SEED), workload.workers)
    checker.check(DEFAULT_SEED, warm, "warm-up")
    speed = HostSpeed()
    batches = []
    deadline = time.perf_counter() + seconds
    while not batches or time.perf_counter() < deadline:
        batch = run_batch(configs, workload.workers, speed=speed)
        checker.check(seed, batch, f"batch {len(batches)}")
        batches.append(batch)
    walls = [b.scaled_s for b in batches]
    print(f"# {len(batches)} batches; unscaled host wall_s median "
          f"{statistics.median(b.wall_s for b in batches)!r} s")
    return {
        "wall_s": statistics.median(walls),
        "slots_per_s": statistics.median(
            b.sim_slots / w for b, w in zip(batches, walls)),
        "busy_slots_per_s": statistics.median(
            b.busy_slots / w for b, w in zip(batches, walls)),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "cell_pass_rate": 1 - checker.failed / checker.attempted,
    }


def _scaled(metrics: dict, factor: float) -> dict:
    return {name: value * factor if name.endswith("_s") else value
            for name, value in metrics.items()}


def measure_layers(workload, seed, seconds, checker, spans_path) -> dict:
    """Per-layer metrics from traced one-worker batches.

    Each round runs an untraced batch (the base for trace_overhead), a pooled
    batch when the workload has several workers, and a traced batch.  Host
    speed is sampled around each batch only: a slice inside a traced or
    probed sweep would be charged to the sweep layer.
    """
    configs = workload.configs(seed)
    warm = run_batch(workload.configs(DEFAULT_SEED), 1, Tracer())
    checker.check(DEFAULT_SEED, warm, "traced warm-up")

    def bracketed(workers, instrument, what):
        speed = HostSpeed()
        speed.sample()
        batch = run_batch(configs, workers, instrument)
        speed.sample()
        checker.check(seed, batch, what)
        return batch, speed.scaled_s / speed.host_s

    plain, traced, pooled, layers, spans = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        probe = PoolProbe(1)
        batch, factor = bracketed(1, probe if workload.workers == 1 else None,
                                  f"untraced batch {len(plain)}")
        plain.append(batch.wall_s * factor)
        if workload.workers > 1:
            probe = PoolProbe(workload.workers)
            batch, factor = bracketed(workload.workers, probe,
                                      f"pooled batch {len(pooled)}")
        pooled.append(_scaled(probe.metrics(), factor))

        tracer = Tracer()
        batch, factor = bracketed(1, tracer, f"traced batch {len(traced)}")
        traced.append(batch.wall_s * factor)
        layers.append(_scaled(tracer.layer_metrics(batch.sim_slots), factor))
        spans.append(tracer.span_records())
    spans_path.write_text(json.dumps(spans))
    metrics = {name: statistics.median(m[name] for m in rows)
               for rows in (layers, pooled) for name in rows[0]}
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith(("_calls", ".packets_built")):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_benchmark(workload, seed: int, seconds: float, trace: bool,
                  goldens: dict, root: Path = ROOT,
                  work_dir: Path = WORK_DIR) -> dict:
    """Measure one run in a private directory under work_dir; return the result."""
    run_dir = work_dir / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(run_dir)
    try:
        checker = Checker(workload, goldens)
        if DEFAULT_SEED not in checker.expected:
            checker.problems.append(f"no golden for {workload.name} at the "
                                    f"default seed {DEFAULT_SEED}")
        if trace:
            spans = work_dir / f"spans-{workload.name}-{seed}.json"
            values = measure_layers(workload, seed, seconds, checker, spans)
            units = {name: layer_unit(name) for name in values}
        else:
            values = measure_end_to_end(workload, seed, seconds, checker, root)
            units = END_TO_END_UNITS
    finally:
        os.chdir(home)
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={seed} trace={int(trace)}: "
          f"cell_error_rate = {checker.failed / checker.attempted!r} ratio "
          f"({checker.failed} of {checker.attempted} cells)")
    for name in sorted(values):
        print(f"# {name} = {values[name]!r} {units[name]}")
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_ecasim(ROOT)
    except MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), load_goldens())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
