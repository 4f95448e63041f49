"""A naive per-slot model of the simulator: the differential tests' oracle.

Reference(cfg) resolves one contention slot per step(), as the README's
Model section reads, with a literal backoff counter per node that ticks
every slot, no heaps, and its own report and end state.  It shares no code with the engine: of ecasim it
imports only the config, whose validate() and timing.exchange_us are the
spec's formulae.

In a slot, a node whose counter is 0 transmits and every other contending
node spends one tick; batch sizes are fixed before the slot's arrivals, an
arrival on a slot's end belongs to the next slot, and the window counts the
slots from warmup_slots on and the delays of packets enqueued from then on.

run() must agree with it bit for bit, so both draw in the same order:

1. Random(seed) seeds proto_rng, then one stream RNG per Poisson node, in
   node id order.  Each stream's first instant is drawn at set-up.
2. In a slot, arrivals land in instant order, and the first arrival at an
   idle node draws its rejoin counter.
3. Then the transmitters draw, in node id order.

An instant is the previous one (0.0 before the first) plus
expovariate(rate) * 1e6, and "now" is slot_empty * empty slots + busy time.
A saturated node starts with a full queue stamped 0.0 and joins with a
rejoin draw, in node id order; a saturated or silent node's stream is one
instant, inf, with no RNG.  The state is named as on the engine's
Simulation, so one set-up (tests/nodes.py) and end_state() serve both.
"""

import math
import random
from collections import deque
from types import SimpleNamespace

from ecasim.config import Protocol

PER_NODE = ("successes", "collisions", "queue_empty_events", "drops",
            "delivered_packets", "delay_samples")


class Reference:
    def __init__(self, cfg):
        cfg.validate()
        self.cfg, n, rate = cfg, cfg.n_nodes, cfg.arrival_rate
        master = random.Random(cfg.seed)
        self.proto_rng = random.Random(master.getrandbits(64))
        self.streams = [SimpleNamespace(instants=[math.inf], rng=None)
                        for _ in range(n)]
        for stream in self.streams if 0 < rate < math.inf else ():
            stream.rng = random.Random(master.getrandbits(64))
            stream.instants = [stream.rng.expovariate(rate) * 1e6]
        self.queues = [deque() for _ in range(n)]
        self.stage, self.counter = [0] * n, [-1] * n  # -1: idle
        self.arrivals, self.delivered = [0] * n, [0] * n
        self.dropped, self.queue_empties = [0] * n, [0] * n
        self.slot, self.empty_count, self.busy_us = 0, 0, 0.0
        self.last_collision_slot, self.warmup_end_us = -1, math.inf
        # the measured window, counted as it goes: idle, success and
        # collision slots, busy time and delays, and per node
        self.kinds = [0, 0, 0]
        self.window_busy_us = self.delay_sum_us = 0.0
        self.tally = {name: [0] * n for name in PER_NODE}
        self.node_delay_sum = [0.0] * n
        if cfg.saturated:
            for nid in range(n):
                self.queues[nid].extend([0.0] * cfg.queue_capacity)
                self.arrivals[nid] = cfg.queue_capacity
                self.counter[nid] = self._rejoin_draw()

    @property
    def next_tx(self):
        """The slot each node transmits in, -1 while idle, as the engine
        keeps it; assign the whole list to set it."""
        return [self.slot + c if c >= 0 else -1 for c in self.counter]

    @next_tx.setter
    def next_tx(self, due):
        self.counter = [d - self.slot if d >= 0 else -1 for d in due]

    @property
    def now_us(self):
        return self.cfg.timing.slot_empty * self.empty_count + self.busy_us

    def _rejoin_draw(self):
        cfg = self.cfg
        return self.proto_rng.randrange(cfg.cw_min + cfg.rejoin_inclusive)

    def _count(self, name, nid, k=1):
        if self.slot >= self.cfg.warmup_slots:
            self.tally[name][nid] += k

    def step(self):
        """Resolve one slot; returns its transmitters in node id order."""
        cfg, t, stage = self.cfg, self.cfg.timing, self.stage
        now = self.now_us
        if self.slot == cfg.warmup_slots:
            self.warmup_end_us = now
        txs = tuple(nid for nid, c in enumerate(self.counter) if c == 0)
        # every other contending node spends one tick
        counter = self.counter = [c - 1 if c > 0 else c for c in self.counter]
        sizes = [min(len(self.queues[nid]), cfg.max_aggregation)
                 for nid in txs]
        duration = (t.exchange_us(max(sizes) * t.payload_bits) if txs
                    else t.slot_empty)
        end = now + duration

        landing = []
        for nid, stream in enumerate(self.streams):
            instants = stream.instants
            if instants[0] < end:
                while instants[-1] < end:
                    instants.append(instants[-1] + stream.rng.expovariate(
                        cfg.arrival_rate) * 1e6)
                k = sum(at < end for at in instants)  # they are in order
                landing += [(at, nid) for at in instants[:k]]
                del instants[:k]
        for at, nid in sorted(landing):
            self.arrivals[nid] += 1
            if len(self.queues[nid]) >= cfg.queue_capacity:
                self.dropped[nid] += 1
                self._count("drops", nid)
                continue
            self.queues[nid].append(at)
            if counter[nid] < 0:
                if not (cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis):
                    stage[nid] = 0
                counter[nid] = self._rejoin_draw()

        if len(txs) > 1:
            self.last_collision_slot = self.slot
            for nid in txs:
                stage[nid] = min(stage[nid] + 1, cfg.max_stage)
                counter[nid] = self.proto_rng.randrange(
                    cfg.cw_min << stage[nid])
                self._count("collisions", nid)
        elif txs:
            (nid,), (size,) = txs, sizes
            queue = self.queues[nid]
            for _ in range(size):
                enqueued = queue.popleft()
                if enqueued >= self.warmup_end_us:
                    assert end >= enqueued, "a packet left before it arrived"
                    self.delay_sum_us += end - enqueued
                    self.node_delay_sum[nid] += end - enqueued
                    self._count("delay_samples", nid)
            self.delivered[nid] += size
            self._count("successes", nid)
            self._count("delivered_packets", nid, size)
            if cfg.saturated:
                self.arrivals[nid] += cfg.queue_capacity - len(queue)
                queue.extend([now] * (cfg.queue_capacity - len(queue)))
            if not queue:
                counter[nid] = -1
                self.queue_empties[nid] += 1
                self._count("queue_empty_events", nid)
            elif cfg.protocol is Protocol.CSMA_CA:
                stage[nid] = 0
                counter[nid] = self.proto_rng.randrange(cfg.cw_min)
            else:
                if not cfg.hysteresis:
                    stage[nid] = 0
                counter[nid] = (cfg.cw_min << stage[nid]) // 2 - 1

        if self.slot >= cfg.warmup_slots:
            self.kinds[min(len(txs), 2)] += 1
            self.window_busy_us += duration if txs else 0.0
        if txs:
            self.busy_us += duration
        else:
            self.empty_count += 1
        self.slot += 1
        return txs

    def run(self):
        """Step to sim_slots and report."""
        while self.slot < self.cfg.sim_slots:
            self.step()
        return self.report()

    def report(self):
        """The report's fields, per_node as one dict per node."""
        cfg, bits, tally = self.cfg, self.cfg.timing.payload_bits, self.tally
        empty, success, collision = self.kinds
        slots = empty + success + collision
        assert slots == cfg.sim_slots - cfg.warmup_slots
        duration_s = (empty * cfg.timing.slot_empty + self.window_busy_us) / 1e6
        total = {name: sum(counts) for name, counts in tally.items()}
        tx = success + total["collisions"]
        per_node = [dict(
            {name: counts[nid] for name, counts in tally.items()}, node_id=nid,
            transmissions=tally["successes"][nid] + tally["collisions"][nid],
            delivered_bits=tally["delivered_packets"][nid] * bits,
            mean_delay_s=_mean(self.node_delay_sum[nid],
                               tally["delay_samples"][nid]),
            end_queue=len(self.queues[nid]), end_stage=self.stage[nid])
            for nid in range(cfg.n_nodes)]
        return dict(
            duration_s=duration_s,
            throughput_bps=(total["delivered_packets"] * bits / duration_s
                            if duration_s > 0 else 0.0),
            mean_delay_s=_mean(self.delay_sum_us, total["delay_samples"]),
            delay_samples=total["delay_samples"],
            avg_end_queue=sum(map(len, self.queues)) / cfg.n_nodes,
            avg_end_stage=sum(self.stage) / cfg.n_nodes,
            queue_empty_per_tx=total["queue_empty_events"] / tx if tx else 0.0,
            collision_fraction=collision / slots if slots else 0.0,
            drops=total["drops"], transmissions=tx, successes=success,
            collisions=total["collisions"], slots_total=slots,
            slots_empty=empty, slots_success=success,
            slots_collision=collision,
            delivered_packets=total["delivered_packets"],
            delivered_bits=total["delivered_packets"] * bits,
            empty_run=slots == 0 or tx == 0, per_node=per_node)


def _mean(sum_us, samples):
    """A mean delay in seconds, nan without samples."""
    return sum_us / samples / 1e6 if samples else math.nan


def end_state(sim):
    """Everything a run of a Reference or of the engine's Simulation leaves
    behind, beyond the report."""
    return {
        "clock": (sim.slot, sim.empty_count, sim.busy_us),
        "queues": [list(q) for q in sim.queues],
        "stage": sim.stage, "next_tx": sim.next_tx, "ledger": (
            sim.arrivals, sim.delivered, sim.dropped, sim.queue_empties),
        "instants": [list(st.instants) for st in sim.streams],
        "rng": [sim.proto_rng.getstate()]
               + [st.rng and st.rng.getstate() for st in sim.streams],
        "warmup_end_us": sim.warmup_end_us,
        "last_collision_slot": sim.last_collision_slot,
    }
