"""Timing wrappers the traced run installs around ecasim's call sites.

Nothing here changes what ecasim computes: a wrapper calls the original and
returns its result, and draws no random numbers, so a traced sweep writes the
same bytes as an untraced one (the benchmark checks that it does).

Every timed call records its duration and its self time (duration minus the
time spent in timed calls it made).  Cell- and sweep-level calls also keep a
full span (name, start, end, parent span); per-slot calls keep only per-name
aggregates, because millions of spans would cost more than the work.

A wrapper must be installed where the caller looks the name up.  engine.py
binds `after_transmission` and `on_packet_arrival` by name at import, so those
two are patched in `ecasim.engine`; cli.py binds the sweep and figure entry
points, so those are patched in `ecasim.cli`.
"""

import resource
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

RECORD_METHODS = ("record_slot", "record_empty_bulk", "record_attempt",
                  "record_queue_empty", "record_drop", "record_delivery")
BACKOFF_RULES = ("next_backoff_after_success", "next_backoff_after_collision",
                 "rejoin_backoff")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def undo(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """Per-name call counts, total and self seconds, plus coarse spans."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.spans = []         # [name, start, end, parent index or None]
        self.packets_built = 0
        self.packets_dropped = 0
        self._stack = []        # [child seconds, span index or None] per open call

    def _open_span(self, name):
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None),
                      None)
        self.spans.append([name, time.perf_counter(), None, parent])
        return len(self.spans) - 1

    def timed(self, name, fn, keep_span=False, after=None):
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        spans = self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, self._open_span(name) if keep_span else None]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep_span:
                    spans[frame[1]][2] = t1
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_built(self, args, packets):
        self.packets_built += len(packets)

    def _count_dropped(self, args, report):
        self.packets_dropped += sum(node.counters.dropped
                                    for node in args[0].nodes)

    def install(self, patches):
        from ecasim import cli, engine, metrics, protocols, sweep, traffic
        sim = engine.Simulation
        patches.set(sim, "__init__",
                    self.timed("engine.init", sim.__init__, keep_span=True))
        patches.set(sim, "run", self.timed("engine.run", sim.run, keep_span=True,
                                           after=self._count_dropped))
        patches.set(sim, "advance_slot",
                    self.timed("engine.advance_slot", sim.advance_slot))
        for name in ("after_transmission", "on_packet_arrival"):
            patches.set(engine, name,
                        self.timed(f"protocols.{name}", getattr(engine, name)))
        for name in BACKOFF_RULES:
            patches.set(protocols, name,
                        self.counted("protocols.backoff", getattr(protocols, name)))
        stream = traffic.ArrivalStream
        patches.set(stream, "drain_poisson",
                    self.timed("traffic.drain", stream.drain_poisson,
                               after=self._count_built))
        patches.set(stream, "refill", self.timed("traffic.refill", stream.refill,
                                                 after=self._count_built))
        acc = metrics.MetricsAccumulator
        for name in RECORD_METHODS:
            patches.set(acc, name, self.timed("metrics.record", getattr(acc, name)))
        patches.set(acc, "finalize",
                    self.timed("metrics.finalize", acc.finalize, keep_span=True))
        patches.set(sweep, "run_simulation",
                    self.timed("sweep.cell", sweep.run_simulation, keep_span=True))
        patches.set(sweep, "write_results_csv",
                    self.timed("sweep.write", sweep.write_results_csv,
                               keep_span=True))
        for name, label in (("parse_config_with_overrides", "sweep.parse"),
                            ("run_sweep", "sweep.run_sweep"),
                            ("load_results", "figures.load"),
                            ("emit_figure_data", "figures.emit")):
            patches.set(cli, name,
                        self.timed(label, getattr(cli, name), keep_span=True))

    def layer_metrics(self, sim_slots: int) -> dict:
        """Per-layer metric values for everything traced so far.

        sim_slots is the batch's simulated slot count (warmup included);
        slots not stepped by advance_slot were bulk-skipped by run().
        """
        c, tot, own = self.calls, self.total_s, self.self_s
        built = self.packets_built
        return {
            "engine.advance_slot_calls": c["engine.advance_slot"],
            "engine.bulk_fraction": 1 - c["engine.advance_slot"] / sim_slots,
            "engine.advance_slot_self_s": own["engine.advance_slot"],
            "engine.run_self_s": own["engine.run"],
            "engine.init_s": tot["engine.init"],
            "protocols.after_transmission_calls": c["protocols.after_transmission"],
            "protocols.after_transmission_s": tot["protocols.after_transmission"],
            "protocols.on_packet_arrival_calls": c["protocols.on_packet_arrival"],
            "protocols.on_packet_arrival_s": tot["protocols.on_packet_arrival"],
            "protocols.backoff_calls": c["protocols.backoff"],
            "traffic.drain_calls": c["traffic.drain"],
            "traffic.drain_s": tot["traffic.drain"],
            "traffic.refill_s": tot["traffic.refill"],
            "traffic.packets_built": built,
            "traffic.useful_ratio": ((built - self.packets_dropped) / built
                                     if built else 1.0),
            "metrics.record_calls": c["metrics.record"],
            "metrics.record_s": tot["metrics.record"],
            "metrics.finalize_s": tot["metrics.finalize"],
            "sweep.parse_s": tot["sweep.parse"],
            "sweep.run_sweep_self_s": own["sweep.run_sweep"],
            "sweep.write_s": tot["sweep.write"],
            "figures.load_s": tot["figures.load"],
            "figures.emit_s": tot["figures.emit"],
        }

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


class PoolProbe:
    """Measures how well a sweep used its workers, without per-slot wrappers.

    Wraps `run_sweep` as cli calls it and the executor class sweep.py builds
    its pool from; the time the parent spends blocked on pool results is the
    pool wait.  Efficiency is the CPU time of whoever ran the cells (this
    process for one worker, the pool's children otherwise) over workers x
    sweep wall time.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.wait_s = 0.0
        self.cpu_s = 0.0
        self.sweep_s = 0.0

    def _cpu(self):
        who = resource.RUSAGE_SELF if self.workers == 1 else resource.RUSAGE_CHILDREN
        usage = resource.getrusage(who)
        return usage.ru_utime + usage.ru_stime

    def install(self, patches):
        from ecasim import cli, sweep
        probe = self
        original_run_sweep = cli.run_sweep

        def run_sweep(*args, **kwargs):
            cpu0, t0 = probe._cpu(), time.perf_counter()
            try:
                return original_run_sweep(*args, **kwargs)
            finally:
                probe.sweep_s += time.perf_counter() - t0
                probe.cpu_s += probe._cpu() - cpu0

        class TimedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                    finally:
                        probe.wait_s += time.perf_counter() - t0
                    yield item

        patches.set(cli, "run_sweep", run_sweep)
        patches.set(sweep, "ProcessPoolExecutor", TimedPool)

    def metrics(self) -> dict:
        return {
            "sweep.pool_efficiency": self.cpu_s / (self.workers * self.sweep_s),
            "sweep.pool_wait_s": self.wait_s,
        }
