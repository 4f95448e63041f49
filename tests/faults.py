"""The fault catalogue: faults planted by hand in src/ecasim, each with the
tests that catch it, kept so that any later change can plant them again.

    python tests/faults.py [NAME ...]

copies src/, tests/, perfbench/, pyproject.toml and BENCHMARK.json into a
temporary directory (pyproject's `pythonpath = ["src"]` and perfbench's
check of where ecasim was imported from must both find the patched copy).
There it runs the catching tests of the named faults (every fault when none
is named) on the unpatched code, which must pass; then, one fault at a
time, it plants the fault (its `old` text replaced by its `new` text) and
runs all of its tests in one pytest session of at most LIMIT_S seconds,
reading each test's outcome from a JUnit XML report.  A fault is caught
only if every test named for it fails (one named without parameter ids
fails if any of its cases does).  Each fault prints as caught, missed by k
of its n tests (each test that passed under it is listed), or hung, with
its seconds; a fault not caught counts as escaped, and the exit status is
then 1.  pytest's process group is killed when it is done, so no pool
worker outlives it, and nothing is written outside the temporary
directory.  A fault that escapes gets a test that catches it.

tests/test_faults.py, in the suite, is the cheap guard: every `old` text
occurs exactly once in its file, every patched module compiles, no two
faults plant the same change, and every catching test exists.  A change
that moves a fault's code re-targets its entry.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "ecasim"
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
# a fault's tests run this long at most: a caught fault takes seconds, but a
# failing hypothesis test can shrink for minutes
LIMIT_S = 120


class Fault(NamedTuple):
    name: str
    path: str           # the patched file, under src/ecasim
    old: str            # occurs exactly once in it
    new: str
    tests: tuple        # pytest node ids, from the checkout root


SWEEP = "tests/test_sweep.py::"
ENGINE = "tests/test_engine.py::"
GOLDEN = "tests/test_golden.py::"
CLI = "tests/test_cli.py::"
TIMING = "tests/test_timing.py::"
TRAFFIC = "tests/test_traffic.py::"
ORACLE = "tests/test_queue_oracle.py::"
# the csma-eca post-success rule, in the arrival driver (the saturated
# driver's copy is followed by no `else:`)
ARRIVAL_ECA_RULE = (
    "                            c = slot + (cw_min << stage[nid]) // 2\n"
    "                        next_tx[nid] = c\n"
    "                        heappush(tx_heap, c << NODE_BITS | nid)\n"
    "                    else:\n")
# the arrival driver's catch-up at the end of a phase, and the same with the
# catch-up taken at `now` for one boundary ({} chooses prev_end at the other)
PHASE_END_CATCH_UP = (
    "                if next_tx[nid] >= 0 and nxt[nid] < prev_end:\n"
    "                    catch_up(nid, prev_end)\n")
PHASE_END_CATCH_UP_AT = (
    "                at = {} else se * empty_count + busy_us\n"
    "                if next_tx[nid] >= 0 and nxt[nid] < at:\n"
    "                    catch_up(nid, at)\n")
BOUNDARY = (ENGINE + "test_an_arrival_on_a_boundary_lands_as_stepping_lands"
            "_it[{}]")
WAKES = ENGINE + "test_run_equals_stepping_when_nodes_wake_inside_idle_gaps"
MID_WARMUP = (ENGINE
              + "test_settled_replay_stops_short_of_a_mid_hyperperiod_warmup")
DROPS = (ENGINE + "test_report_counts_only_the_window_from_warmup_slots"
         "[drops-both-sides]")
SLOT_END = ENGINE + "test_an_arrival_at_a_slot_end_wakes_its_node_in_the_next_slot"
EARLY_SEED = (SWEEP + "test_a_fault_in_an_early_seed_still_writes_the_cells"
              "_submitted_first")
QUEUED_CHUNKS = SWEEP + "test_a_faulted_pooled_sweep_drops_the_chunks_no_one_will_read"
SOJOURN = ORACLE + "test_lone_poisson_node_matches_the_exact_mean_sojourn"

FAULTS = [
    # -- one path for a sweep's outcomes
    Fault("reports-in-execution-order", "sweep.py",
          "            done[k] = outcome\n",
          "            done[nxt] = outcome\n",
          (EARLY_SEED,
           GOLDEN + "test_sweep_reproduces_golden_bytes[poisson]")),
    Fault("faulty-cell-row-written", "sweep.py",
          '                fault = f"{variant.label},{n},{seed}: {outcome}"\n',
          '                fault = f"{variant.label},{n},{seed}: {outcome}"\n'
          "                rows.append(RunRow(variant.label, n, seed,\n"
          '                                   dict.fromkeys(METRIC_COLUMNS, ""),'
          "\n                                   outcome))\n",
          (SWEEP + "test_fault_writes_partial_results_and_reraises",
           SWEEP + "test_pooled_fault_writes_the_one_worker_bytes")),
    Fault("queued-chunks-not-cancelled", "sweep.py",
          "            pool.shutdown(cancel_futures=True)\n",
          "            pool.shutdown()\n",
          (QUEUED_CHUNKS,)),
    Fault("outcomes-not-closed", "sweep.py",
          "    with closing(_reports(configs, workers)) as outcomes:\n",
          "    for outcomes in [_reports(configs, workers)]:\n",
          (EARLY_SEED,
           QUEUED_CHUNKS)),
    # -- one sharing rule for arrival traces
    Fault("share-keeps-a-foreign-book", "traffic.py",
          "    if book is None or book.key != (seed, rate):\n",
          "    if book is None:\n",
          (SWEEP + "test_a_seed_draws_each_instant_once",
           SWEEP + "test_pooled_cells_share_traces_across_chunks")),
    Fault("run-reads-a-foreign-book", "traffic.py",
          "    if book is not None and book.key == (seed, rate):\n",
          "    if book is not None:\n",
          (SWEEP + "test_a_run_ignores_a_book_of_another_seed_or_rate[seed]",
           SWEEP + "test_a_run_ignores_a_book_of_another_seed_or_rate[rate]")),
    Fault("sweep-keeps-its-book", "sweep.py",
          "        traffic.book = None  # no trace outlives its sweep\n",
          "        pass\n",
          (SWEEP + "test_a_cell_that_raises_anything_else_propagates_it[1]",
           EARLY_SEED,
           SWEEP + "test_a_seed_draws_each_instant_once")),
    Fault("lend-redraws-a-held-trace", "traffic.py",
          "        if stream is None and book.room:\n",
          "        if book.room:\n",
          (SWEEP + "test_a_seed_draws_each_instant_once",
           SWEEP + "test_pooled_cells_share_traces_across_chunks",
           SWEEP + "test_the_book_keeps_to_its_budget[700]")),
    Fault("lend-ignores-room", "traffic.py",
          "        if stream is None and book.room:\n",
          "        if stream is None:\n",
          (SWEEP + "test_the_book_keeps_to_its_budget[0]",
           SWEEP + "test_the_book_keeps_to_its_budget[40]")),
    # -- one arrival path
    Fault("trim-before-drawing-on-one-too-many", "traffic.py",
          "        del instants[:pos]\n",
          "        del instants[:pos + 1]\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-poisson]",
           DROPS)),
    Fault("end-trim-one-too-far", "engine.py",
          "            st.reach(nid, rate, nxt[nid], cursor[nid])\n",
          "            st.reach(nid, rate, nxt[nid], cursor[nid] + 1)\n",
          (SWEEP + "test_a_run_trims_the_traces_it_draws_on",)),
    Fault("own-stream-left-untrimmed", "engine.py",
          "            st.reach(nid, rate, nxt[nid], cursor[nid])\n",
          "            pass\n",
          (SWEEP + "test_a_run_trims_the_traces_it_draws_on",
           ENGINE + "test_run_equals_slot_by_slot_stepping[ca-poisson]")),
    Fault("handoff-relands-held-instants", "traffic.py",
          "        del instants[:pos]\n        if instants[-1] < until:\n",
          "        if instants[-1] < until:\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-poisson]",
           SWEEP + "test_the_book_keeps_to_its_budget[40]")),
    Fault("let-go-keeps-its-traces", "traffic.py",
          "        self.traces.clear()\n        self.room = 0\n",
          "        self.room = 0\n",
          (SWEEP + "test_the_book_keeps_to_its_budget[1]",
           SWEEP + "test_the_book_keeps_to_its_budget[40]",
           SWEEP + "test_a_run_trims_the_traces_it_draws_on")),
    # -- one owner for a node's arrival stream: one draw count, and no
    # stream that keeps its book alive
    Fault("first-draw-counted-twice", "traffic.py",
          "        drawn += drew\n",
          "        drawn += drew + (least == 1)\n",
          (SWEEP + "test_a_seed_draws_exactly_what_its_book_holds",
           ENGINE + "test_run_counts_its_draws_and_wakes")),
    Fault("stream-points-back-at-its-book", "traffic.py",
          "            book.room -= stream.grow(rate, 0.0, 1)\n",
          "            book.room -= stream.grow(rate, 0.0, 1)\n"
          "            stream.rng.book = book\n",
          (SWEEP + "test_a_sweep_frees_every_book_it_used",)),
    # -- saturated queues as refill runs
    Fault("runs-built-for-some-nodes", "engine.py",
          "                for q in queues] if agg > 1 else []\n",
          "                for q in queues[:-1]] if agg > 1 else []\n",
          (ENGINE + "test_saturated_driver_equals_stepping",
           ENGINE + "test_saturated_driver_equals_stepping_on_caller_stamps")),
    Fault("run-count-off-by-one", "engine.py",
          "                                    head[1] = count - need\n",
          "                                    head[1] = count - need + 1\n",
          (ENGINE + "test_saturated_driver_equals_stepping",
           ENGINE + "test_saturated_driver_equals_stepping_on_caller_stamps")),
    Fault("run-delay-added-once", "engine.py",
          "                                    for _ in range(count):\n"
          "                                        delay_sum_us += delay\n"
          "                                        node_sum += delay\n",
          "                                    delay_sum_us += delay\n"
          "                                    node_sum += delay\n",
          (ENGINE + "test_saturated_driver_equals_stepping",
           GOLDEN + "test_sweep_reproduces_golden_bytes[saturated]")),
    Fault("write-back-max-aggregation-copies", "engine.py",
          "                q.extend([stamp] * count)\n",
          "                q.extend([stamp] * agg)\n",
          (ENGINE + "test_saturated_driver_equals_stepping_on_caller_stamps",
           ENGINE + "test_saturated_driver_equals_stepping")),
    # -- run() split by traffic: the saturated driver
    Fault("saturated-collision-not-recorded", "engine.py",
          "                        last_collision = slot\n"
          "                        self.slots_collision += 1\n",
          "                        self.slots_collision += 1\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-saturated]",
           ENGINE + "test_saturated_driver_equals_stepping")),
    Fault("saturated-one-packet-exchange", "engine.py",
          "        duration = t.exchange_us(agg * t.payload_bits)\n",
          "        duration = t.exchange_us(t.payload_bits)\n",
          (ENGINE + "test_saturated_driver_equals_stepping",
           GOLDEN + "test_sweep_reproduces_golden_bytes[saturated]")),
    Fault("saturated-refill-stamped-at-slot-end", "engine.py",
          "                            q.append(now)\n",
          "                            q.append(now + duration)\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]",
           ENGINE + "test_saturated_driver_equals_stepping")),
    # -- commands load only what they run
    Fault("sweep-imports-the-engine-eagerly", "sweep.py",
          "from .config import Protocol, SimConfig, SATURATED\n",
          "from . import engine\n"
          "from .config import Protocol, SimConfig, SATURATED\n",
          (CLI + "test_commands_that_run_no_cell_skip_the_simulator",)),
    Fault("workers-import-the-engine", "sweep.py",
          "    from . import engine, traffic\n",
          "    from . import traffic\n",
          (CLI + "test_a_pooled_sweep_loads_the_engine_before_its_workers"
           "_start",)),
    # -- the saturated ledger, from the successes
    Fault("saturated-window-opens-on-a-stale-ledger", "engine.py",
          "            delivered[:] = [agg * s for s in node_success]\n",
          "            if stop == end:\n"
          "                delivered[:] = [agg * s for s in node_success]\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]",)),
    # -- cheaper events: an int-keyed heap and a flat next-arrival list
    Fault("replay-heap-rebuild-drops-an-entry", "engine.py",
          "                tx_heap = sorted([due << NODE_BITS | nid\n"
          "                                  for nid, due in enumerate(next_tx)])\n",
          "                tx_heap = sorted([due << NODE_BITS | nid\n"
          "                                  for nid, due in enumerate(next_tx)"
          "])[1:]\n",
          (MID_WARMUP + "[cfg0]",
           ENGINE + "test_settled_replay_equals_stepping")),
    Fault("heap-key-one-bit-short", "engine.py",
          "NODE_BITS = (MAX_NODES - 1).bit_length()\n",
          "NODE_BITS = (MAX_NODES - 1).bit_length() - 1\n",
          (ENGINE + "test_run_equals_stepping_at_the_most_nodes[saturated]",
           ENGINE + "test_run_equals_stepping_at_the_most_nodes[poisson]")),
    # -- the settled replay
    Fault("replay-keeps-the-stage", "engine.py",
          "                    next_tx[nid] += reps * hyper\n"
          "                    if not keep_stage:\n"
          "                        stage[nid] = 0\n",
          "                    next_tx[nid] += reps * hyper\n",
          (ENGINE + "test_settled_replay_equals_stepping",)),
    Fault("replay-reps-rounded-up", "engine.py",
          "                reps = (stop - slot) // hyper\n",
          "                reps = -(-(stop - slot) // hyper)\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]",
           ENGINE + "test_settled_replay_equals_stepping",
           MID_WARMUP + "[cfg0]")),
    Fault("window-retest-skipped", "engine.py",
          "                if replayable:\n"
          "                    check_at = slot\n",
          "",
          (MID_WARMUP + "[cfg0]",
           MID_WARMUP + "[cfg2]",
           ENGINE + "test_replayed_slots_are_whole_hyperperiods[cfg5]")),
    Fault("replay-skips-the-idle-slots", "engine.py",
          "                    empty_count += idle_per\n",
          "",
          (ENGINE + "test_settled_replay_equals_stepping",)),
    Fault("replay-counts-stale-stamps-as-samples", "engine.py",
          "                        else:\n"
          "                            stale[nid] += 1\n",
          "",
          (ENGINE + "test_settled_replay_equals_stepping",)),
    Fault("replay-at-aggregation", "engine.py",
          "        replayable = (cfg.protocol is Protocol.CSMA_ECA and agg == 1\n",
          "        replayable = (cfg.protocol is Protocol.CSMA_ECA\n",
          (ENGINE + "test_settled_replay_equals_stepping",
           ENGINE + "test_saturated_driver_equals_stepping")),
    Fault("replay-idle-time-split", "engine.py",
          "                        now = se * (empty_count + idle) + busy_us\n",
          "                        now = se * empty_count + se * idle + busy_us\n",
          (ENGINE + "test_settled_replay_equals_stepping",
           MID_WARMUP)),
    Fault("replay-counts-a-warm-end-stamp-stale", "engine.py",
          "                        if enqueue_us >= warm_end:\n"
          "                            delay = now + duration - enqueue_us\n",
          "                        if enqueue_us > warm_end:\n"
          "                            delay = now + duration - enqueue_us\n",
          (ENGINE + "test_settled_replay_equals_stepping",)),
    # -- planted by hand in earlier changes, each with one target
    Fault("first-arrival-nine-us-late", "traffic.py",
          "        t = instants[-1] if instants else 0.0\n",
          "        t = instants[-1] if instants else 9.0\n",
          (TRAFFIC + "test_grow_draws_expovariate_bit_for_bit[list]",
           ENGINE + "test_reports_scale_exactly_with_the_clock",
           GOLDEN + "test_sweep_reproduces_golden_bytes[poisson]")),
    Fault("exchange-one-us-long", "timing.py",
          "                + self.phy_header + self.ack_bits / self.ack_rate)\n",
          "                + self.phy_header + self.ack_bits / self.ack_rate"
          " + 1)\n",
          (TIMING + "test_success_exchange_matches_hand_arithmetic",
           GOLDEN + "test_sweep_reproduces_golden_bytes[saturated]")),
    Fault("throughput-bits-hard-coded", "metrics.py",
          "    delivered_bits = delivered_packets * bits\n",
          "    delivered_bits = delivered_packets * 12000\n",
          (ENGINE + "test_reports_scale_exactly_with_the_payload",)),
    Fault("hyst-nodes-start-at-stage-1", "engine.py",
          "        self.stage = [0] * n       # backoff stage\n",
          "        self.stage = [int(cfg.hysteresis)] * n       # backoff stage\n",
          (ENGINE + "test_hysteresis_is_inert_at_max_stage_0",)),
    # -- lazy arrivals: a catch-up boundary moved by one ulp.  Each reads
    # the exact float slot end, as stepping computes it; "now" can differ
    # from it in the last bit, and a test lays an arrival inside that ulp.
    Fault("gap-end-taken-as-now", "engine.py",
          "                    prev_end = se * (empty_count - 1) + busy_us + se\n",
          "                    prev_end = se * empty_count + busy_us\n",
          (SLOT_END,)),
    Fault("stepped-slot-boundary-taken-as-now", "engine.py",
          "                    if n < agg and nxt[nid] < prev_end:\n"
          "                        catch_up(nid, prev_end)\n",
          "                    if n < agg and nxt[nid] < now:\n"
          "                        catch_up(nid, now)\n",
          (BOUNDARY.format("stepped-below"),
           BOUNDARY.format("stepped-above"))),
    # the end of either phase shares one catch-up site: each fault takes
    # "now" for one of the two boundaries only
    Fault("warmup-boundary-taken-as-now", "engine.py",
          PHASE_END_CATCH_UP,
          PHASE_END_CATCH_UP_AT.format("prev_end if stop == end"),
          (BOUNDARY.format("warmup-below"),
           BOUNDARY.format("warmup-above"))),
    Fault("end-boundary-taken-as-now", "engine.py",
          PHASE_END_CATCH_UP,
          PHASE_END_CATCH_UP_AT.format("prev_end if stop < end"),
          (BOUNDARY.format("end-below"), BOUNDARY.format("end-above"))),
    Fault("drop-counted-only-after-the-boundary", "engine.py",
          "                if next_tx[nid] >= 0 and nxt[nid] < prev_end:\n",
          "                if next_tx[nid] >= 0 and nxt[nid] <= prev_end:\n",
          (BOUNDARY.format("warmup-below"), BOUNDARY.format("end-below"))),
    # -- one copy of each rule in the arrival driver
    Fault("batch-left-uncapped", "engine.py",
          "                        size = n if n < agg else agg\n",
          "                        size = n\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-agg16-knee]",
           WAKES + "[cfg4]")),
    Fault("collider-catch-up-skipped", "engine.py",
          "                    if n < agg and nxt[nid] < prev_end:\n",
          "                    if colliders is None and n < agg"
          " and nxt[nid] < prev_end:\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-agg16-knee]",
           WAKES + "[cfg4]")),
    Fault("landing-queues-past-the-room", "engine.py",
          "                dropped[nid] += k - fits\n                k = fits\n",
          "                dropped[nid] += k - fits\n",
          (DROPS,
           ENGINE + "test_run_equals_slot_by_slot_stepping[ca-agg16-knee]")),
    Fault("never-firing-stream-fires", "engine.py",
          "        self.streams = [ArrivalStream([inf], None) for _ in range(n)]\n",
          "        self.streams = [ArrivalStream([0.0], None) for _ in range(n)]\n",
          (ENGINE + "test_run_equals_stepping_when_silent_nodes_empty_their"
           "_queues",
           ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]")),
    # -- seeds planted in earlier changes, re-targeted to today's code
    Fault("batch-size-re-read-after-arrivals", "engine.py",
          "                    if nxt[nid] < slot_end:\n"
          "                        catch_up(nid, slot_end)\n",
          "                    if nxt[nid] < slot_end:\n"
          "                        catch_up(nid, slot_end)\n"
          "                        size = len(q) if len(q) < agg else agg\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-agg16-knee]",
           WAKES + "[cfg4]")),
    Fault("no-catch-up-before-the-window", "engine.py",
          "                if next_tx[nid] >= 0 and nxt[nid] < prev_end:\n",
          "                if stop == end and next_tx[nid] >= 0"
          " and nxt[nid] < prev_end:\n",
          (DROPS,)),
    Fault("warmup-drops-left-out-of-the-snapshot", "engine.py",
          "                             [list(getattr(self, name))\n",
          "                             [[0] * len(self.dropped)"
          " if name == \"dropped\"\n"
          "                              else list(getattr(self, name))\n",
          (GOLDEN + "test_sweep_reproduces_golden_bytes[tinyqueue]",)),
    Fault("hysteresis-redraw-one-slot-late", "engine.py",
          ARRIVAL_ECA_RULE,
          ARRIVAL_ECA_RULE.replace("// 2\n", "// 2 + keep_stage\n", 1),
          (WAKES + "[cfg3]",)),
    Fault("replay-delay-sum-reassociated", "engine.py",
          "                            delay = now + duration - enqueue_us\n",
          "                            delay = now - enqueue_us + duration\n",
          (GOLDEN + "test_sweep_reproduces_golden_bytes[saturated]",
           ENGINE + "test_settled_replay_equals_stepping")),
    Fault("eca-service-one-slot-longer", "engine.py",
          ARRIVAL_ECA_RULE,
          ARRIVAL_ECA_RULE.replace("slot + (", "slot + 1 + (", 1),
          (SOJOURN + "[2000.0-csma-eca-False]",
           ENGINE + "test_run_equals_slot_by_slot_stepping[eca-poisson]")),
    Fault("wake-one-slot-late", "engine.py",
          "                            gap_end = j + 1\n",
          "                            gap_end = min(j + 2, gap_end)\n",
          (WAKES + "[cfg0]",
           SOJOURN + "[120.0-csma-ca-False]")),
    Fault("replay-past-the-warmup", "engine.py",
          "                reps = (stop - slot) // hyper\n",
          "                reps = (end - slot) // hyper\n",
          (MID_WARMUP,)),
    Fault("wake-slot-end-from-slot-count", "engine.py",
          "                            while se * (e + j) + busy_us + se <= a:\n",
          "                            while se * (e + j + 1) + busy_us <= a:\n",
          (SLOT_END,)),
    # -- set-up and report code: a stepper that shared it with run() would
    # agree with run() under these; the reference shares none of it
    Fault("end-stage-one-low", "metrics.py",
          "            end_stage=sim.stage[i],\n",
          "            end_stage=sim.stage[i] and sim.stage[i] - 1,\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[ca-agg16-knee]",)),
    Fault("end-queue-capped", "metrics.py",
          "            end_queue=len(queue),\n",
          "            end_queue=min(len(queue), 999),\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]",)),
    Fault("saturated-join-counts-a-phantom-drop", "engine.py",
          "                self.arrivals[nid] = cfg.queue_capacity\n",
          "                self.arrivals[nid] = cfg.queue_capacity + (nid == 1)\n"
          "                self.dropped[nid] = int(nid == 1)\n",
          (ENGINE + "test_run_equals_slot_by_slot_stepping[eca-saturated]",)),
    # -- the ledger checks of metrics.report(sim), each made one-sided
    Fault("slot-ledger-checks-only-an-excess", "metrics.py",
          "    if slots != expected_slots:\n",
          "    if slots > expected_slots:\n",
          ("tests/test_metrics.py::test_slot_ledger_mismatch_aborts",)),
    Fault("packet-ledger-checks-only-a-deficit", "metrics.py",
          "        if arrivals != out + dropped + len(queue):\n",
          "        if arrivals < out + dropped + len(queue):\n",
          (ENGINE + "test_finalize_rejects_an_unbalanced_packet_ledger",)),
    Fault("saturated-node-may-run-dry-once", "metrics.py",
          "        if cfg.saturated and sim.queue_empties[nid]:\n",
          "        if cfg.saturated and sim.queue_empties[nid] > 1:\n",
          (ENGINE + "test_finalize_rejects_a_saturated_node_that_ran_dry",)),
    # -- the config grammar: one line splitter, and a list key given with
    # no items is an empty list
    Fault("override-all-comment-accepted", "sweep.py",
          "        key = _split(item)[0]\n"
          "        if not key:\n",
          "        key = item.partition(\"=\")[0].strip()\n"
          "        if \"=\" not in item:\n",
          (SWEEP + "test_overrides_replace_file_values",)),
    Fault("empty-list-read-as-absent", "sweep.py",
          "            into = lists.setdefault(key, [])\n",
          "            into = lists.setdefault(key, []) if items else []\n",
          (SWEEP + "test_config_errors_name_the_problem[empty-seeds]",
           SWEEP + "test_config_errors_name_the_problem[empty-protocols]")),
]


def patched(fault: Fault, root: Path = ROOT) -> str:
    """The fault's file with the fault planted."""
    return (root / PACKAGE / fault.path).read_text().replace(fault.old,
                                                             fault.new)


def _pytest(tmp: Path, tests, limit=None) -> int | None:
    """pytest's exit status, or None if it ran past `limit` seconds; each
    test's outcome goes to tmp/junit.xml."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(tmp / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--basetemp={tmp / 'pytest'}", f"--junitxml={tmp / 'junit.xml'}",
         *tests],
        cwd=tmp, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        return None
    finally:
        try:  # pytest and whatever it started
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def _missed(tmp: Path, tests) -> list:
    """The named tests that passed, by the JUnit XML report pytest left."""
    failed = set()
    for case in ElementTree.parse(tmp / "junit.xml").iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            path = case.get("classname").replace(".", "/")
            failed.add(f"{path}.py::{case.get('name')}")
    return [node for node in tests if node not in failed and (
        "[" in node or not any(f.startswith(node + "[") for f in failed))]


def main(names) -> int:
    known = {f.name: f for f in FAULTS}
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown faults: {', '.join(unknown)}", file=sys.stderr)
        return 2
    faults = [known[name] for name in names] if names else FAULTS
    escaped = hung = 0
    begun = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, tmp / name,
                                ignore=shutil.ignore_patterns(
                                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, tmp / name)
        tests = list(dict.fromkeys(t for f in faults for t in f.tests))
        if _pytest(tmp, tests) != 0:
            print("the catching tests fail on the unpatched code",
                  file=sys.stderr)
            return 1
        for fault in faults:
            target = tmp / PACKAGE / fault.path
            clean = target.read_text()
            target.write_text(patched(fault, tmp))
            start = time.perf_counter()
            code = _pytest(tmp, fault.tests, LIMIT_S)
            target.write_text(clean)
            if code not in (0, 1, None):
                print(f"{fault.name}: pytest exited {code}", file=sys.stderr)
                return 2
            missed = [] if code is None else _missed(tmp, fault.tests)
            outcome = ("hung" if code is None else "caught" if not missed
                       else f"missed by {len(missed)} of {len(fault.tests)}")
            if outcome != "caught":
                escaped += 1
                hung += code is None
            print(f"{fault.name}: {outcome} in "
                  f"{time.perf_counter() - start:.1f} s", flush=True)
            for node in missed:
                print(f"    passed under it: {node}", flush=True)
    print(f"{len(faults)} faults, {escaped} escaped ({hung} hung), "
          f"{time.perf_counter() - begun:.0f} s in all")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
