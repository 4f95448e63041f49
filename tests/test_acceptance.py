"""End-to-end acceptance checks for the contention simulator.

Each test prints one `check N <name>: PASS|FAIL` line (run with `-s` to see
the lines as they complete) and asserts the same condition, so the file both
reports and enforces.  Every simulation is a pure function of its config, so
each number here reproduces bit-for-bit across reruns and machines running
the same Python build.

Checks 1, 3, 5 and 8 and the session-scoped load sweep shared by checks 4-7
run their grids through run_sweep on a pool of one worker per CPU; check 2
steps advance_slot(), one seed per task on a pool of as many workers.  The whole file runs in about two
minutes on 2 vCPUs, the load sweep taking about a minute of it.

Known honest failure: check 1 demands that eight saturated deterministic-
backoff nodes settle into the eight-slot schedule within 10^4 slots for every
seed.  Eight nodes fill all eight schedule positions, so the last node must
land on the single free position by chance; the settling time is heavy-tailed
(quantiles of Simulation.settle_slot over seeds 1..200: median ~4.1k slots,
p90 ~13.9k, p99 ~27.8k, pinned by
tests/test_engine.py::test_check1_settling_quantiles), and a 10^4-slot bound
covers 80% of seeds.  With the fixed seeds 1..10, four seeds settle between
10^4 and 2*10^4 slots, so the check fails and the assertion message lists the
offenders.  Two- and four-node runs, which leave spare positions, settle every
seed; check 2 verifies that once settled the schedule is exactly periodic for
all ten seeds.
"""

import math
import os
import statistics

import pytest

from chain_oracle import collision_slot_fraction
from ecasim import Protocol, SimConfig
from ecasim.engine import Simulation, run_simulation
from ecasim.sweep import ProtocolVariant, SweepSpec, run_sweep
from ecasim.timing import DEFAULT_TIMING

SEEDS = list(range(1, 11))

# one full data/ACK exchange, and the throughput ceiling it implies
EXCHANGE_S = DEFAULT_TIMING.exchange_us(DEFAULT_TIMING.payload_bits) * 1e-6
CEILING_BPS = DEFAULT_TIMING.payload_bits / EXCHANGE_S

# shared load sweep (checks 4-7): fixed per-node rate, swept node count
RATE = 120.0                      # packets/s per node
GRID = [8, 18, 20, 24, 28, 32, 36]
SWEEP_SLOTS = 300_000
SWEEP_WARMUP = 30_000
QUEUE_CAP = 1000
KNEE_FRACTION = 0.95


def _check(num: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"check {num} {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


def _sweep_rows(out, base: SimConfig, node_counts: list, protocols,
                seeds: list) -> list:
    """run_sweep's rows for base at every (protocol, n, seed), in that nested
    order, on one worker per CPU.  The count is explicit because the default
    worker_count() reads ECASIM_WORKERS, which another test may have set."""
    spec = SweepSpec(base=base, node_counts=node_counts,
                     variants=[ProtocolVariant(p) for p in protocols],
                     seeds=seeds, output_dir=str(out))
    return run_sweep(spec, workers=os.cpu_count() or 1).rows


# ---------------------------------------------------------------- checks 1-2


def _saturated_eca(n: int, seed: int, sim_slots: int,
                   warmup_slots: int) -> SimConfig:
    return SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=n,
                     arrival_rate=math.inf, cw_min=16,
                     sim_slots=sim_slots, warmup_slots=warmup_slots, seed=seed)


def test_accept_01_collision_free_saturation(tmp_path):
    """Saturated deterministic backoff stops colliding within 10^4 slots."""
    base = _saturated_eca(2, 1, 110_000, 10_000)  # each row sets n and seed
    bad = [(row.n_nodes, row.seed, row.report.slots_collision)
           for row in _sweep_rows(tmp_path, base, [2, 4, 8],
                                  [Protocol.CSMA_ECA], SEEDS)
           if row.report.slots_collision]
    ok = not bad
    _check(1, "collision-free saturation", ok,
           "no collisions in slots [1e4, 1.1e5) for n in {2, 4, 8}, 10 seeds"
           if ok else
           "collisions past the warmup at "
           + ", ".join(f"n={n} seed={s} ({c} collision slots)"
                       for n, s, c in bad))
    assert ok, (
        "collision slots counted after a 10^4-slot warmup: "
        f"{bad}.  With n equal to the schedule period (8 slots for "
        "cw_min=16) every position must fill, and the last contender only "
        "lands on the one free position by chance, so settling time is "
        "heavy-tailed: roughly one seed in five needs more than 10^4 slots. "
        "These seeds settle shortly after the bound and stay collision-free "
        "from then on (the next check verifies the settled schedule).")


CHECK2_HORIZON = 150_000
CHECK2_WINDOW = 100_000


def _settled_window(seed: int):
    """Check 2 for one seed: step advance_slot() to the horizon, then run the
    window from the slot after the last non-success.  Returns (seed, start,
    exact, rel) for a broken window, None for an exact one."""
    probe = _saturated_eca(8, seed, CHECK2_HORIZON + 1, CHECK2_HORIZON)
    sim = Simulation(probe)
    last_bad = -1
    for slot in range(CHECK2_HORIZON):
        if len(sim.advance_slot()) != 1:
            last_bad = slot
    start = last_bad + 1
    window = CHECK2_WINDOW
    cfg = probe._replace(sim_slots=start + window, warmup_slots=start)
    report = run_simulation(cfg)
    per_node = sorted(row.transmissions for row in report.per_node)
    exact = (report.slots_success == window
             and report.slots_empty == 0
             and report.slots_collision == 0
             and per_node == [window // 8] * 8)
    rel = abs(report.throughput_bps - CEILING_BPS) / CEILING_BPS
    return None if exact and rel <= 1e-3 else (seed, start, exact, rel)


def test_accept_02_converged_schedule_period():
    """Once settled, eight saturated nodes form an exact 8-slot rotation.

    The ten seed probes run on a pool of one worker per CPU.  The pool
    spawns its workers rather than forking this process."""
    import multiprocessing
    with multiprocessing.get_context("spawn").Pool(os.cpu_count() or 1) as pool:
        failures = [f for f in pool.map(_settled_window, SEEDS, chunksize=1)
                    if f is not None]
    ok = not failures
    _check(2, "converged schedule period", ok,
           "every slot a success, each node once per 8 slots, throughput at "
           "the exchange ceiling within 0.1%, 10 seeds"
           if ok else f"broken schedule windows: {failures}")
    assert ok, f"settled-schedule windows not exactly periodic: {failures}"


# ------------------------------------------------------------------ check 3


def test_accept_03_offered_load_tracking(tmp_path):
    """At half the ceiling, throughput equals offered load within 2%."""
    bad = []
    for n in (2, 10):
        rate = 0.5 * CEILING_BPS / (DEFAULT_TIMING.payload_bits * n)
        offered = n * rate * DEFAULT_TIMING.payload_bits
        base = SimConfig(arrival_rate=rate, sim_slots=1_500_000,
                         warmup_slots=20_000, queue_capacity=QUEUE_CAP)
        for row in _sweep_rows(tmp_path / f"n{n}", base, [n],
                               (Protocol.CSMA_CA, Protocol.CSMA_ECA),
                               SEEDS[:5]):
            report = row.report
            rel = abs(report.throughput_bps - offered) / offered
            if rel > 0.02 or report.drops:
                bad.append((row.label, n, row.seed, rel, report.drops))
    ok = not bad
    _check(3, "offered-load tracking", ok,
           "throughput within 2% of offered load, zero drops, both "
           "protocols, n in {2, 10}, 5 seeds" if ok else f"misses: {bad}")
    assert ok, f"(protocol, n, seed, rel_err, drops) misses: {bad}"


# -------------------------------------------------- shared sweep, checks 4-7


@pytest.fixture(scope="session")
def load_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("load_sweep")
    base = SimConfig(arrival_rate=RATE, sim_slots=SWEEP_SLOTS,
                     warmup_slots=SWEEP_WARMUP, queue_capacity=QUEUE_CAP)
    spec = SweepSpec(
        base=base, node_counts=GRID,
        variants=[ProtocolVariant(Protocol.CSMA_CA),
                  ProtocolVariant(Protocol.CSMA_ECA),
                  ProtocolVariant(Protocol.CSMA_CA, max_aggregation=16)],
        seeds=SEEDS, output_dir=str(out))
    return run_sweep(spec, workers=os.cpu_count() or 1)


def _mean(sweep, label: str, n: int, column: str) -> float:
    return sweep.aggregates[(label, n)]["mean"][column]


def _offered_bps(n: int) -> float:
    return n * RATE * DEFAULT_TIMING.payload_bits


def _knee(sweep, label: str):
    """Smallest swept n whose mean throughput falls below 95% of offered."""
    for n in GRID:
        ratio = _mean(sweep, label, n, "throughput_bps") / _offered_bps(n)
        if ratio < KNEE_FRACTION:
            return n
    return None


def test_accept_04_saturation_knee_ordering(load_sweep):
    """Deterministic backoff, then aggregation, push the knee to higher n."""
    knees = {label: _knee(load_sweep, label)
             for label in ("csma-ca", "csma-eca", "csma-ca-agg16")}
    ok = (all(k is not None and k > GRID[0] for k in knees.values())
          and knees["csma-eca"] > knees["csma-ca"]
          and knees["csma-ca-agg16"] > knees["csma-ca"])
    _check(4, "saturation-knee ordering", ok,
           ", ".join(f"knee[{label}]={k}" for label, k in knees.items()))
    assert ok, f"knee positions not ordered as required: {knees}"


def test_accept_05_delay_ordering_below_knee(load_sweep, tmp_path):
    """Below the knee, deterministic backoff delivers no-worse mean delay.

    The sweep's below-knee points are re-run with the same settings but many
    more slots, because the delay difference in deep unsaturation is a few
    microseconds and needs long averages to resolve.  Ten seeds per point,
    paired across protocols.
    """
    knee_ca = _knee(load_sweep, "csma-ca")
    points = [n for n in GRID if n < knee_ca]
    slots_for = {8: 4_000_000, 18: 8_000_000}
    summary = []
    ordered = True
    separated = 0
    for n in points:
        means = {}
        sds = {}
        base = SimConfig(arrival_rate=RATE,
                         sim_slots=slots_for.get(n, 4_000_000),
                         warmup_slots=50_000, queue_capacity=QUEUE_CAP)
        rows = _sweep_rows(tmp_path / f"n{n}", base, [n],
                           (Protocol.CSMA_CA, Protocol.CSMA_ECA), SEEDS)
        for proto in (Protocol.CSMA_CA, Protocol.CSMA_ECA):
            delays = [row.report.mean_delay_s for row in rows
                      if row.label == proto.value]
            means[proto] = statistics.fmean(delays)
            sds[proto] = statistics.stdev(delays)
        ca, eca = means[Protocol.CSMA_CA], means[Protocol.CSMA_ECA]
        ca_sd, eca_sd = sds[Protocol.CSMA_CA], sds[Protocol.CSMA_ECA]
        ordered &= eca <= ca
        gap = (ca - ca_sd) - (eca + eca_sd)
        separated += gap > 0
        summary.append(f"n={n}: ca={ca * 1e6:.1f}±{ca_sd * 1e6:.1f}us "
                       f"eca={eca * 1e6:.1f}±{eca_sd * 1e6:.1f}us"
                       + (", separated" if gap > 0 else ""))
    ok = ordered and 2 * separated >= len(points)
    _check(5, "below-knee delay ordering", ok, "; ".join(summary))
    assert ok, ("need mean delay (eca) <= mean delay (ca) at every "
                "below-knee point and one-stddev separation at half or "
                f"more of them; got {summary}")


def test_accept_06_queue_blowup_at_knee(load_sweep):
    """Crossing the knee multiplies the standing queue at least tenfold."""
    details = []
    ok = True
    for label in ("csma-ca", "csma-eca"):
        knee = _knee(load_sweep, label)
        i = GRID.index(knee)
        below, above = GRID[i - 1], knee
        q_below = _mean(load_sweep, label, below, "avg_end_queue")
        q_above = _mean(load_sweep, label, above, "avg_end_queue")
        region = GRID[i - 1:i + 2]
        delays = [_mean(load_sweep, label, n, "mean_delay_s")
                  for n in region]
        monotone = all(a < b for a, b in zip(delays, delays[1:]))
        grew = q_above >= 10 * q_below
        ok &= grew and monotone
        details.append(
            f"{label}: queue {q_below:.2f}@{below} -> {q_above:.1f}@{above}, "
            "delay " + " < ".join(f"{d * 1e3:.2f}ms@{n}"
                                  for d, n in zip(delays, region)))
    _check(6, "queue blow-up at the knee", ok, "; ".join(details))
    assert ok, ("queue must grow >= 10x across the knee and delay must rise "
                f"monotonically through it; got {details}")


def test_accept_07_collision_reappearance(load_sweep):
    """Collisions vanish in deep unsaturation and reappear near the knee."""
    label = "csma-eca"
    knee = _knee(load_sweep, label)
    i = GRID.index(knee)
    deep, mid = GRID[0], GRID[i - 1]
    cf_deep = _mean(load_sweep, label, deep, "collision_fraction")
    cf_mid = _mean(load_sweep, label, mid, "collision_fraction")
    qe_mid = _mean(load_sweep, label, mid, "q_empty_per_tx")
    qe_above = max(_mean(load_sweep, label, n, "q_empty_per_tx")
                   for n in GRID[i:])
    stage_deep = _mean(load_sweep, label, deep, "avg_end_stage")
    stage_mid = _mean(load_sweep, label, mid, "avg_end_stage")
    ok = (cf_deep < 1e-3
          and cf_mid > 0 and qe_mid > 0
          and qe_above < 1e-2 and qe_above < qe_mid / 10
          and stage_mid > stage_deep)
    _check(7, "collision reappearance in non-saturation", ok,
           f"collision fraction {cf_deep:.5f}@{deep} -> {cf_mid:.3f}@{mid}; "
           f"queue-empty/tx {qe_mid:.3f}@{mid} -> {qe_above:.4f} above the "
           f"knee; backoff stage {stage_deep:.2f}@{deep} -> "
           f"{stage_mid:.2f}@{mid}")
    assert ok, (
        "expected: near-zero collisions when every queue drains "
        f"(got {cf_deep:.2e} at n={deep}), collisions plus queue-empty "
        f"events midway (got {cf_mid:.3f} and {qe_mid:.3f} at n={mid}), "
        f"queue-empty rate back to ~0 past the knee (got {qe_above:.4f}), "
        f"and a raised backoff stage midway ({stage_deep:.2f} vs "
        f"{stage_mid:.2f})")


# ---------------------------------------------------------------- checks 8-9


def test_accept_08_chain_oracle_agreement(tmp_path):
    """Long-run collision fraction matches the exact joint-chain value."""
    expected = collision_slot_fraction(cw_min=4, max_stage=1)
    worst = 0.0
    base = SimConfig(arrival_rate=math.inf, cw_min=4, max_stage=1,
                     sim_slots=2_000_000, warmup_slots=50_000)
    for row in _sweep_rows(tmp_path, base, [2], [Protocol.CSMA_CA], [1, 2, 3]):
        worst = max(worst,
                    abs(row.report.collision_fraction - expected) / expected)
    ok = worst <= 0.01
    _check(8, "chain-oracle agreement", ok,
           f"two saturated nodes, cw_min=4, max_stage=1: collision fraction "
           f"within {worst * 100:.2f}% of {expected:.6f} over 3 seeds")
    assert ok, (f"simulated collision fraction deviates {worst * 100:.2f}% "
                f"from the enumerated stationary value {expected!r}")


def test_accept_09_determinism_and_conservation(tmp_path):
    """Sweeps are byte-reproducible and every report's ledgers balance.

    Every simulation already self-checks its slot and packet ledgers at
    finalization; this re-asserts the identities on the public report and
    checks that reruns and different worker counts give identical CSV bytes.
    """
    base = SimConfig(arrival_rate=2000.0, sim_slots=60_000,
                     warmup_slots=10_000, queue_capacity=50)

    def sweep_bytes(name: str, workers: int) -> bytes:
        spec = SweepSpec(base=base, node_counts=[2, 5], seeds=[1, 2, 3],
                         output_dir=str(tmp_path / name))
        run_sweep(spec, workers=workers)
        return (tmp_path / name / "results.csv").read_bytes()

    first = sweep_bytes("first", 1)
    rerun = sweep_bytes("rerun", 1)
    pooled = sweep_bytes("pooled", 2)
    identical = first == rerun == pooled

    samples = [
        SimConfig(protocol=Protocol.CSMA_CA, n_nodes=3, arrival_rate=500.0,
                  sim_slots=80_000, warmup_slots=8_000, seed=3),
        SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=6,
                  arrival_rate=math.inf, sim_slots=80_000, warmup_slots=8_000,
                  seed=4),
        SimConfig(protocol=Protocol.CSMA_ECA, n_nodes=12, arrival_rate=300.0,
                  sim_slots=80_000, warmup_slots=8_000, seed=5,
                  hysteresis=True),
        SimConfig(protocol=Protocol.CSMA_CA, n_nodes=9, arrival_rate=150.0,
                  sim_slots=80_000, warmup_slots=8_000, seed=6,
                  max_aggregation=16),
    ]
    balanced = True
    for cfg in samples:
        r = run_simulation(cfg)
        balanced &= (r.slots_total
                     == r.slots_empty + r.slots_success + r.slots_collision)
        balanced &= r.transmissions == r.successes + r.collisions
        balanced &= r.successes == sum(row.successes for row in r.per_node)
        balanced &= (r.delivered_packets
                     == sum(row.delivered_packets for row in r.per_node))

    ok = identical and balanced
    _check(9, "determinism and conservation", ok,
           "rerun and 2-worker sweeps byte-identical; slot and packet "
           "ledgers balance on varied configs" if ok else
           f"identical={identical} ledgers_balanced={balanced}")
    assert ok, (f"csv byte-identical: {identical}; "
                f"report ledgers balanced: {balanced}")
