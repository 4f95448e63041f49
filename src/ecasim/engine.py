"""Slot-synchronous contention engine.

The channel advances one contention slot at a time.  Every contending node
whose backoff counter has reached zero transmits in that slot: exactly one
transmitter is a success, two or more collide, none leaves the slot idle.  A
busy exchange is atomic at slot granularity and, like an idle slot, costs
every other contending node exactly one backoff tick.  That uniform tick is
what lets a deterministic post-success counter of V repeat with period V + 1
regardless of how busy the channel is.

Because a counter ticks once per slot unconditionally, "counter c at slot s"
is the same thing as "transmits at slot s + c".  So each node's schedule is
one absolute due slot, next_tx, -1 while the node is idle, instead of a
counter decremented every slot.  run() orders the due slots in a heap of its
own, one int per node, due << NODE_BITS | nid, which orders as (due, nid)
does for every node id below config.MAX_NODES.  It skips each idle gap in
bulk and goes straight into the transmission at its end, so it steps busy
slots only.  An idle slot is resolved only inside the skip, where an idle
node wakes: the rejoin draw is the only shared randomness a gap holds, so
bulk skipping is exactly stepping slot by slot.

Simulation owns every node's state as seven lists indexed by node id: queues,
stage and next_tx, and the whole-run ledger arrivals, delivered, dropped and
queue_empties.  Every tally counts the whole run; the report reads the
measured window as its end value minus a snapshot taken when slot
warmup_slots begins (see metrics), so no event asks whether warmup is over.
A caller sets a node up through the lists alone: queues, arrivals, next_tx,
and the instants of streams[nid], the node's ArrivalStream.
advance_slot() is the reference stepper, for tests.  It drains the slot's
arrivals in (instant, node id) order, then resolves the nodes due in the slot
in node id order and returns them, the slot's whole outcome, through
on_packet_arrival, after_transmission and the traffic and metrics functions.
run() runs a fresh Simulation from slot 0 to the end through one of two
drivers, saturated or arrival, each with those functions inlined and the
same random draws and float operations in the same order.  Both run two
phases, up to warmup_slots and up to the end, and settle each phase's
tallies at its end; the first then takes the snapshot.  A differential
test holds both drivers equal to stepping, and run() refuses a Simulation
that advance_slot() has stepped.
The clock is the slot index, the count of empty slots and the busy time;
now_us composes the last two on demand, which keeps time bit-identical
between bulk and stepped slots.

The saturated driver holds no arrival code.  Every node contends all the
time with a full queue (run() asserts so at the start; a collision keeps the
queue and a success refills what it popped), so every batch is
max_aggregation packets and every busy slot lasts that batch's exchange.
A success refills with copies of one instant, so above max_aggregation 1
the driver holds a node's queue, from its first success to the end, as
[stamp, count] runs of equal stamps: a success takes its batch from the head
runs and appends one run, and each run's delay is computed once and added
count times, the float additions of stepping.  Saturated csma-eca can also
settle: every node due within one post-success period and no two nodes ever
due in the same slot.  From then on nothing collides and nothing random is
drawn, so at max_aggregation 1 the driver tests for that state once per
period from slot 0 on and, once it holds, replays the whole hyperperiods of
the schedule that fit in the phase, without heap or random work; it tests
again when the window opens, so that the replay resumes there.  The replay
still performs each busy slot's float additions in stepping order, because
an exchange time such as 316.888... us is not a dyadic number and k
additions of it are not k times it; only integer tallies are added in bulk.
The driver keeps no per-success ledger: every success delivers
max_aggregation packets and refills as many, so it writes delivered from
the node's successes at the end of each phase, and arrivals at the end.

The arrival driver runs Poisson and silent (arrival_rate 0) configs; a
silent node's stream never fires.  An arrival at a contending node draws
nothing from the shared RNG and only grows its queue, which nothing reads
until the node's next pop.  So the driver keeps only idle nodes in its
arrival heap and lands a contending node's arrivals late but in the same
order: before it transmits with fewer than max_aggregation packets queued
(they fix the batch size), before a success pops its queue, and at the
end of each phase.  Every landing reads the node's stream
(traffic.ArrivalStream) with one search and one slice up to the room left:
the book's, inside a sweep (traffic.TraceBook), or the run's own, drawn
only as far as needed and trimmed as the run passes it, so that after run()
its first instant is the node's next arrival.  The driver keeps each node's
next arrival in a flat list, a cache of the stream's instant.
drawn_arrivals and wakes count what the run drew and how often an idle
node joined contention.
"""

import heapq
import random
from bisect import bisect_left
from collections import deque, namedtuple
from itertools import groupby
from math import inf

from . import protocols  # rules looked up per call, so wrappers apply
from . import traffic
from .config import MAX_NODES, Protocol, SimConfig
from .errors import ConsistencyError
from .metrics import (MetricsAccumulator, MetricsReport,
                      negative_delay_error)
from .traffic import ArrivalStream


NodeSnapshot = namedtuple("NodeSnapshot", "counters")
DropCount = namedtuple("DropCount", "dropped")

# run()'s heap of due nodes holds one int per node, due << NODE_BITS | nid,
# which orders as (due, nid) does for every node id a config allows
NODE_BITS = (MAX_NODES - 1).bit_length()
NODE_MASK = (1 << NODE_BITS) - 1


def _settled_firings(s: int, next_tx: list, periods: list, hyper: int):
    """The busy slots of one hyperperiod from slot s, if none can collide.

    periods[i] is node i's post-success period, a power of two, and hyper the
    longest of them.  When every node is due within one own period of s and
    no two nodes fire in the same slot of [s, s + hyper), each node's firings
    are a residue class that meets no other class, so every later
    transmission succeeds and the schedule repeats with period hyper for
    good.  Returns the sorted (slot, node id) firings of [s, s + hyper), or
    None.
    """
    firing = {}
    for nid, period in enumerate(periods):
        first = next_tx[nid]
        if first >= s + period:
            return None
        for f in range(first, s + hyper, period):
            if f in firing:
                return None
            firing[f] = nid
    return sorted(firing.items())


def on_packet_arrival(sim, nid: int, enqueue_us: float) -> None:
    """Enqueue one arrival at node nid during slot sim.slot.

    A full queue drops the packet.  An idle node rejoins contention: it draws
    a uniform counter over the base window and is due that many slots after
    this one.  csma-eca with hysteresis keeps its inflated stage across the
    idle period, everything else restarts at stage 0.
    """
    cfg = sim.cfg
    sim.arrivals[nid] += 1
    queue = sim.queues[nid]
    if len(queue) >= cfg.queue_capacity:
        sim.dropped[nid] += 1
        return
    queue.append(enqueue_us)
    if sim.next_tx[nid] >= 0:
        return
    if not (cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis):
        sim.stage[nid] = 0
    sim.next_tx[nid] = sim.slot + 1 + protocols.rejoin_backoff(
        cfg.cw_min, cfg.rejoin_inclusive, sim.proto_rng)


def after_transmission(sim, nid: int, success: bool,
                       batch_size: int) -> list[float]:
    """Apply the outcome of node nid's transmission attempt in sim.slot.

    On success the batch leaves the queue and a saturated source tops the
    queue back up to capacity; a node whose queue is then empty leaves
    contention (one queue-empty event).  On collision the batch stays queued
    for retry and the window doubles.  A node still contending is due its
    new counter's slots after this one.  Returns the enqueue instants of the
    delivered packets.
    """
    cfg = sim.cfg
    if not success:
        sim.stage[nid], counter = protocols.next_backoff_after_collision(
            sim.stage[nid], cfg.max_stage, cfg.cw_min, sim.proto_rng)
        sim.next_tx[nid] = sim.slot + 1 + counter
        return []
    queue = sim.queues[nid]
    batch = [queue.popleft() for _ in range(batch_size)]
    sim.delivered[nid] += batch_size
    if cfg.saturated:
        fill = cfg.queue_capacity - len(queue)
        queue.extend([sim.now_us] * fill)
        sim.arrivals[nid] += fill
    if not queue:
        sim.next_tx[nid] = -1
        sim.queue_empties[nid] += 1
        return batch
    sim.stage[nid], counter = protocols.next_backoff_after_success(
        cfg.protocol, cfg.hysteresis, sim.stage[nid], cfg.cw_min,
        sim.proto_rng)
    sim.next_tx[nid] = sim.slot + 1 + counter
    return batch


class Simulation:
    """One configured run.  run() it, or step it with advance_slot()."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        t = cfg.timing
        master = random.Random(cfg.seed)
        self.proto_rng = random.Random(master.getrandbits(64))
        n = cfg.n_nodes
        self.queues = [deque() for _ in range(n)]  # enqueue instants, us, FIFO
        self.stage = [0] * n       # backoff stage
        self.next_tx = [-1] * n    # the slot the node transmits in; -1: idle
        # the whole-run packet ledger
        self.arrivals = [0] * n
        self.delivered = [0] * n
        self.dropped = [0] * n
        self.queue_empties = [0] * n
        # the clock: slots resolved, how many were empty, the others' time
        self.slot = 0
        self.empty_count = 0
        self.busy_us = 0.0
        self.acc = MetricsAccumulator(
            t.slot_empty, t.payload_bits,
            (self.delivered, self.dropped, self.queue_empties))
        # a Poisson stream is seeded after proto_rng (inside a sweep, the
        # book's if it lends one); every other never fires and seeds nothing
        self.streams = [ArrivalStream([inf], None) for _ in range(n)]
        self.last_collision_slot = -1
        self._settled = False
        # run() counts them; drawn_arrivals starts at the streams' first draws
        self.stepped_slots = self.replayed_slots = 0
        self.drawn_arrivals = self.wakes = 0
        rate = cfg.arrival_rate
        book = traffic.book
        if book is not None and book.key != (cfg.seed, rate):
            book = None
        self._book = book
        self._book_drawn = book.drawn if book else 0
        if 0 < rate < inf:
            for nid in range(n):
                bits = master.getrandbits(64)
                stream = book and book.lend(nid, bits)
                if stream is None:
                    stream = ArrivalStream([], random.Random(bits))
                    self.drawn_arrivals += stream.grow(rate, 0.0, 1)
                self.streams[nid] = stream
        if cfg.saturated:
            # backlogged from the first instant: full queue, join before slot
            # 0 with the rejoin draw of the first arrival, in node id order
            for nid in range(n):
                self.queues[nid].extend([0.0] * cfg.queue_capacity)
                self.arrivals[nid] = cfg.queue_capacity
                self.next_tx[nid] = protocols.rejoin_backoff(
                    cfg.cw_min, cfg.rejoin_inclusive, self.proto_rng)

    # -- derived state ------------------------------------------------------

    @property
    def now_us(self) -> float:
        """The instant slot `slot` begins."""
        return self.cfg.timing.slot_empty * self.empty_count + self.busy_us

    @property
    def settle_slot(self) -> int | None:
        """First slot after the last collision, once run() has proved that no
        collision can follow (see _settled_firings); None otherwise."""
        return self.last_collision_slot + 1 if self._settled else None

    @property
    def nodes(self) -> list:
        """Each node's drop count as nodes[i].counters.dropped, a read-only
        copy built on access.  Kept only because perfbench/tracer.py reads
        it (ROADMAP item 2); everything else reads sim.dropped."""
        return [NodeSnapshot(DropCount(d)) for d in self.dropped]

    # -- the reference stepper --------------------------------------------------

    def advance_slot(self) -> tuple:
        """Resolve exactly one contention slot, advance the clock and return
        the slot's transmitters in node id order: () for an idle slot, one
        node id for a success, more for a collision."""
        assert self._book is None, "only run() reads a sweep's streams"
        cfg = self.cfg
        acc = self.acc
        s = self.slot
        now = self.now_us
        if s == cfg.warmup_slots:
            acc.open_window(now, self.empty_count)

        next_tx = self.next_tx
        txs, nid = (), -1
        for _ in range(next_tx.count(s)):  # the due nodes, in node id order
            nid = next_tx.index(s, nid + 1)
            txs += (nid,)

        t = cfg.timing
        # a batch's size is fixed before this slot's arrivals are enqueued
        sizes = [min(len(self.queues[nid]), cfg.max_aggregation)
                 for nid in txs]
        if len(txs) > 1:
            self.last_collision_slot = s
        duration = (t.exchange_us(max(sizes) * t.payload_bits) if txs
                    else t.slot_empty)
        slot_end = now + duration

        # arrivals land mid-slot, in (instant, node id) order; a node they
        # wake joins from the next slot on
        streams = self.streams
        due = sorted((st.instants[0], nid) for nid, st in enumerate(streams)
                     if st.instants[0] < slot_end)
        for _, nid in due:
            for enqueue_us in streams[nid].drain_poisson(cfg.arrival_rate,
                                                         slot_end):
                on_packet_arrival(self, nid, enqueue_us)

        success = len(txs) == 1
        for nid, size in zip(txs, sizes):
            batch = after_transmission(self, nid, success, size)
            assert next_tx[nid] != s, "transmitter left due in its slot"
            acc.record_attempt(nid, success)
            acc.record_delivery(nid, batch, slot_end)

        acc.record_slot(txs, duration)
        self.slot = s + 1
        if txs:
            self.busy_us += duration
        else:
            self.empty_count += 1
        return txs

    # -- the two drivers ------------------------------------------------------

    def run(self) -> MetricsReport:
        """Run a fresh Simulation from slot 0 to cfg.sim_slots and report,
        through _run_saturated() or _run_arrivals().  A caller may fill
        queues and set next_tx first.  Refused: a stepped Simulation, an
        idle node holding packets, and a saturated run whose queues are not
        all full or whose nodes are not all due."""
        assert self.slot == 0 and all(
            due >= 0 or not q for q, due in zip(self.queues, self.next_tx)), \
            "run() needs a fresh Simulation and no idle node holding packets"
        if self.cfg.saturated:  # full queues, so (above) every node due
            cap = self.cfg.queue_capacity
            assert all(len(q) == cap for q in self.queues), \
                "a saturated run() needs every queue full"
            drive = self._run_saturated
        else:
            drive = self._run_arrivals
        acc = self.acc
        (self.slot, self.empty_count, self.busy_us, acc.busy_us,
         acc.delay_sum_us, self.last_collision_slot, replayed_busy) = drive()
        self.stepped_slots = self.slot - self.empty_count - replayed_busy
        return self._finalize()

    def _run_saturated(self) -> tuple:
        """run()'s saturated driver (see the module docstring).  Returns the
        clock (slot, empty slots, busy time), the counted busy time, the
        delay sum, the last collision slot and the replayed busy slots.  At
        agg > 1, a node that has succeeded works on runs and gets its queue
        of one stamp per packet back at the end."""
        cfg = self.cfg
        t = cfg.timing
        acc = self.acc
        heappush, heappop = heapq.heappush, heapq.heappop
        # randrange(w), inlined: the same getrandbits calls, so the same state
        getrandbits = self.proto_rng.getrandbits

        se = t.slot_empty
        end = cfg.sim_slots
        agg = cfg.max_aggregation
        cw_min = cfg.cw_min
        max_stage = cfg.max_stage
        random_success = cfg.protocol is Protocol.CSMA_CA
        keep_stage = cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis
        cw_bits = cw_min.bit_length()
        duration = t.exchange_us(agg * t.payload_bits)
        n_nodes = cfg.n_nodes
        # without hyst, more than cw_min/2 nodes never fit one period; the
        # replay moves one packet per busy slot, so aggregation is stepped
        eca_periods = [cw_min // 2] * n_nodes
        replayable = (cfg.protocol is Protocol.CSMA_ECA and agg == 1
                      and (keep_stage or n_nodes <= cw_min // 2))
        warm_end = inf
        check_at = 0 if replayable else end
        last_collision = -1
        replayed_busy = 0

        queues = self.queues
        # at agg > 1, a node's working queue from its first success on: its
        # [stamp, count] runs of equal stamps, FIFO; queues[nid] at the end
        runs = [None] * n_nodes
        stage = self.stage
        next_tx = self.next_tx
        arrivals = self.arrivals
        delivered = self.delivered
        # due << NODE_BITS | nid, one entry per node; sorted is a heap
        tx_heap = sorted([due << NODE_BITS | nid
                          for nid, due in enumerate(next_tx)])
        # the accumulator's lists change in place, scalars are written back
        node_success = acc.node_success
        node_collision = acc.node_collision
        node_delay_sum = acc.node_delay_sum
        node_delay_n = acc.node_delay_n
        counted_busy_us = delay_sum_us = busy_us = 0.0
        slot = empty_count = 0

        for stop in (cfg.warmup_slots, end):
            while slot < stop:
                # -- stepping, up to the next settled check or the phase end
                step_to = check_at if check_at < stop else stop
                while slot < step_to:
                    due = tx_heap[0] >> NODE_BITS
                    if due > slot:  # skip the idle slots before it
                        if due >= step_to:
                            empty_count += step_to - slot
                            slot = step_to
                            break
                        empty_count += due - slot
                        slot = due
                    nid = heappop(tx_heap) & NODE_MASK
                    if tx_heap and tx_heap[0] >> NODE_BITS == slot:
                        # -- a collision: the colliders escalate in node id
                        # order, each due past the slot once it has drawn
                        last_collision = slot
                        acc.slots_collision += 1
                        while True:
                            st = stage[nid] + 1
                            if st > max_stage:
                                st = max_stage
                            stage[nid] = st
                            w = cw_min << st
                            r = getrandbits(cw_bits + st)
                            while r >= w:
                                r = getrandbits(cw_bits + st)
                            c = slot + 1 + r
                            next_tx[nid] = c
                            heappush(tx_heap, c << NODE_BITS | nid)
                            node_collision[nid] += 1
                            if tx_heap[0] >> NODE_BITS != slot:
                                break
                            nid = heappop(tx_heap) & NODE_MASK
                    else:
                        # -- a success: the batch's delays, then the refill
                        now = se * empty_count + busy_us
                        if agg == 1:
                            q = queues[nid]
                            enqueue_us = q.popleft()
                            if enqueue_us >= warm_end:
                                slot_end = now + duration
                                delay = slot_end - enqueue_us
                                if delay < 0:
                                    raise negative_delay_error(
                                        delay, nid, slot_end, enqueue_us)
                                delay_sum_us += delay
                                node_delay_sum[nid] += delay
                                node_delay_n[nid] += 1
                            q.append(now)
                        else:
                            slot_end = now + duration
                            node_sum = node_delay_sum[nid]
                            samples = 0
                            r = runs[nid]
                            if r is None:  # the node's first success
                                r = runs[nid] = deque(
                                    [stamp, len(list(g))]
                                    for stamp, g in groupby(queues[nid]))
                            need = agg
                            while need:  # a run, or its head, at a time
                                head = r[0]
                                enqueue_us, count = head
                                if count > need:
                                    head[1] = count - need
                                    count = need
                                else:
                                    r.popleft()
                                need -= count
                                if enqueue_us >= warm_end:
                                    delay = slot_end - enqueue_us
                                    if delay < 0:
                                        raise negative_delay_error(
                                            delay, nid, slot_end, enqueue_us)
                                    for _ in range(count):
                                        delay_sum_us += delay
                                        node_sum += delay
                                    samples += count
                            node_delay_sum[nid] = node_sum
                            node_delay_n[nid] += samples
                            r.append([now, agg])
                        node_success[nid] += 1
                        if not keep_stage:
                            stage[nid] = 0
                        if random_success:
                            r = getrandbits(cw_bits)
                            while r >= cw_min:
                                r = getrandbits(cw_bits)
                            c = slot + 1 + r
                        else:
                            c = slot + (cw_min << stage[nid]) // 2
                        next_tx[nid] = c
                        heappush(tx_heap, c << NODE_BITS | nid)
                    counted_busy_us += duration
                    busy_us += duration
                    slot += 1
                if slot == stop:
                    break
                # -- at check_at: once the schedule has settled, replay whole
                # hyperperiods of it, up to the phase end, with no random
                # draw or heap work.  Only the per-busy-slot float sums are
                # kept, in stepping order; integer tallies are added in bulk
                # afterwards.
                periods = ([(cw_min << st) // 2 for st in stage] if keep_stage
                           else eca_periods)
                hyper = max(periods)
                firings = _settled_firings(slot, next_tx, periods, hyper)
                if firings is None:
                    check_at = slot + hyper
                    continue
                self._settled = True
                check_at = end
                reps = (stop - slot) // hyper
                if not reps:
                    continue
                idle_per = hyper - len(firings)
                # per busy slot: empty slots before it in the hyperperiod, the
                # node, and its queue's pop and refill
                plan = []
                for j, (f, nid) in enumerate(firings):
                    q = queues[nid]
                    plan.append((f - slot - j, nid, q.popleft, q.append))
                # stamps popped from before warm_end give no delay sample
                stale = [0] * n_nodes
                for _ in range(reps):
                    for idle, nid, pop, refill in plan:
                        now = se * (empty_count + idle) + busy_us
                        enqueue_us = pop()
                        if enqueue_us >= warm_end:
                            delay = now + duration - enqueue_us
                            if delay < 0:
                                raise negative_delay_error(
                                    delay, nid, now + duration, enqueue_us)
                            delay_sum_us += delay
                            node_delay_sum[nid] += delay
                        else:
                            stale[nid] += 1
                        refill(now)
                        busy_us += duration
                        counted_busy_us += duration
                    empty_count += idle_per
                for nid, period in enumerate(periods):
                    fired = reps * (hyper // period)
                    node_success[nid] += fired
                    node_delay_n[nid] += fired - stale[nid]
                    next_tx[nid] += reps * hyper
                    if not keep_stage:
                        stage[nid] = 0
                slot += reps * hyper
                assert slot <= stop, "a replay passed its phase's end"
                self.replayed_slots += reps * hyper
                replayed_busy += reps * len(firings)
                tx_heap = sorted([due << NODE_BITS | nid
                                  for nid, due in enumerate(next_tx)])

            # -- the phase ends: the ledger, from the successes, each of which
            # delivered agg packets and refilled as many
            delivered[:] = [agg * s for s in node_success]
            if stop < end:
                # -- slot warmup_slots begins; a replayable run re-tests the
                # schedule there, so a settled replay resumes in the window
                warm_end = se * empty_count + busy_us
                acc.open_window(warm_end, empty_count)
                counted_busy_us = 0.0
                if replayable:
                    check_at = slot

        arrivals[:] = [a + d for a, d in zip(arrivals, delivered)]
        for q, r in zip(queues, runs):
            if r is not None:
                q.clear()
                for stamp, count in r:
                    q.extend([stamp] * count)
        return (slot, empty_count, busy_us, counted_busy_us, delay_sum_us,
                last_collision, replayed_busy)

    def _run_arrivals(self) -> tuple:
        """run()'s arrival driver (see the module docstring).  Returns what
        _run_saturated() returns, with no replayed busy slots."""
        cfg = self.cfg
        t = cfg.timing
        acc = self.acc
        heappush, heappop = heapq.heappush, heapq.heappop
        # randrange(w), inlined: the same getrandbits calls, so the same state
        getrandbits = self.proto_rng.getrandbits

        se = t.slot_empty
        end = cfg.sim_slots
        cap = cfg.queue_capacity
        agg = cfg.max_aggregation
        cw_min = cfg.cw_min
        max_stage = cfg.max_stage
        rate = cfg.arrival_rate
        random_success = cfg.protocol is Protocol.CSMA_CA
        keep_stage = cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis
        rejoin_window = cw_min + 1 if cfg.rejoin_inclusive else cw_min
        cw_bits = cw_min.bit_length()
        rejoin_bits = rejoin_window.bit_length()
        exchange = [t.exchange_us(k * t.payload_bits) for k in range(agg + 1)]
        n_nodes = cfg.n_nodes
        warm_end = inf
        last_collision = -1

        queues = self.queues
        stage = self.stage
        next_tx = self.next_tx
        arrivals = self.arrivals
        delivered = self.delivered
        dropped = self.dropped
        queue_empties = self.queue_empties
        streams = self.streams
        # due << NODE_BITS | nid, one entry per contending node; sorted is a
        # heap
        tx_heap = sorted([due << NODE_BITS | nid
                          for nid, due in enumerate(next_tx) if due >= 0])
        # nxt[nid] is the node's next arrival not yet applied, a cache of
        # instants[cursor[nid]]; only idle nodes wait for theirs in arr_heap
        nxt = [st.instants[0] for st in streams]
        arr_heap = sorted((nxt[nid], nid) for nid in range(n_nodes)
                          if next_tx[nid] < 0)
        # the accumulator's lists change in place, scalars are written back
        node_success = acc.node_success
        node_collision = acc.node_collision
        node_delay_sum = acc.node_delay_sum
        node_delay_n = acc.node_delay_n
        counted_busy_us = delay_sum_us = busy_us = prev_end = 0.0
        slot = empty_count = 0

        # every Poisson node reads its stream: the book's, or its own
        book = self._book
        drawn = 0  # what the run's own streams drew
        traced = [st.instants for st in streams]
        cursor = [0] * n_nodes  # the index of nxt[nid] in nid's stream

        def catch_up(nid, until):
            """Land nid's arrivals before `until`, instants[pos:k] of its
            stream, up to the room left (on_packet_arrival without the
            rejoin).  Past its end the book draws more, or the run trims and
            draws on."""
            nonlocal drawn
            instants = traced[nid]
            pos = cursor[nid]
            if instants[-1] < until and (
                    book is None or not book.extend(nid, streams[nid], until)):
                del instants[:pos]
                pos = 0
                drawn += streams[nid].grow(rate, until)
                k = len(instants) - 1
            elif instants[pos + 1] >= until:
                k = pos + 1
            else:
                k = bisect_left(instants, until, pos + 2)
            cursor[nid] = k
            nxt[nid] = instants[k]
            arrivals[nid] += k - pos
            q = queues[nid]
            fits = pos + cap - len(q)  # past the last instant with room
            if k > fits:
                dropped[nid] += k - fits
                k = fits
            q.extend(instants[pos:k])

        wakes = 0

        def wake(s, until):
            """Idle nodes' arrivals before `until`, slot s's end, in instant
            order: the first one queued wakes its node (on_packet_arrival)."""
            nonlocal wakes
            while arr_heap and arr_heap[0][0] < until:
                nid = heappop(arr_heap)[1]
                wakes += 1
                catch_up(nid, until)
                if not keep_stage:
                    stage[nid] = 0
                r = getrandbits(rejoin_bits)
                while r >= rejoin_window:
                    r = getrandbits(rejoin_bits)
                c = s + 1 + r
                next_tx[nid] = c
                heappush(tx_heap, c << NODE_BITS | nid)

        for stop in (cfg.warmup_slots, end):
            while slot < stop:
                due = tx_heap[0] >> NODE_BITS if tx_heap else stop
                if due > slot:
                    # skip idle slots up to the next transmission, or through
                    # the first to end past an idle node's arrival: stepping
                    # ends slot j at se * (e + j) + busy_us + se, monotone in j
                    gap_end = due if due < stop else stop
                    if arr_heap:
                        a = arr_heap[0][0]
                        e = empty_count - slot
                        if se * (e + gap_end - 1) + busy_us + se > a:
                            j = (a - busy_us) / se - e
                            if j < slot:
                                j = slot
                            elif j > gap_end - 1:
                                j = gap_end - 1
                            else:
                                j = int(j)
                            while j > slot and (se * (e + j - 1) + busy_us
                                                + se > a):
                                j -= 1
                            while se * (e + j) + busy_us + se <= a:
                                j += 1
                            gap_end = j + 1
                    empty_count += gap_end - slot
                    slot = gap_end
                    prev_end = se * (empty_count - 1) + busy_us + se
                    if arr_heap and arr_heap[0][0] < prev_end:
                        wake(slot - 1, prev_end)  # the gap's last slot
                        continue
                    if slot == stop:
                        break
                assert due == slot, "overdue transmission in heap"

                # -- a busy slot: who transmits, and for how long.  A batch's
                # size is fixed by what landed before the slot, and size is
                # a success's batch or a collision's longest
                now = se * empty_count + busy_us
                colliders = None  # started when a second node is due
                size = 0
                while True:
                    nid = heappop(tx_heap) & NODE_MASK
                    assert next_tx[nid] == slot
                    q = queues[nid]
                    n = len(q)
                    if n < agg and nxt[nid] < prev_end:
                        catch_up(nid, prev_end)
                        n = len(q)
                    if n > size:
                        size = n if n < agg else agg
                    if colliders is not None:
                        colliders.append(nid)
                    if not tx_heap or tx_heap[0] >> NODE_BITS != slot:
                        break
                    if colliders is None:
                        colliders = [nid]
                duration = exchange[size]
                slot_end = now + duration
                if arr_heap and arr_heap[0][0] < slot_end:
                    wake(slot, slot_end)

                # -- outcome (after_transmission and record_* calls, inlined)
                if colliders is None:
                    # arrivals precede the pops
                    if nxt[nid] < slot_end:
                        catch_up(nid, slot_end)
                    delivered[nid] += size
                    node_success[nid] += 1
                    while size:  # pop the batch
                        size -= 1
                        enqueue_us = q.popleft()
                        if enqueue_us >= warm_end:
                            delay = slot_end - enqueue_us
                            if delay < 0:
                                raise negative_delay_error(
                                    delay, nid, slot_end, enqueue_us)
                            delay_sum_us += delay
                            node_delay_sum[nid] += delay
                            node_delay_n[nid] += 1
                    if q:
                        if not keep_stage:
                            stage[nid] = 0
                        if random_success:
                            r = getrandbits(cw_bits)
                            while r >= cw_min:
                                r = getrandbits(cw_bits)
                            c = slot + 1 + r
                        else:
                            c = slot + (cw_min << stage[nid]) // 2
                        next_tx[nid] = c
                        heappush(tx_heap, c << NODE_BITS | nid)
                    else:
                        next_tx[nid] = -1
                        heappush(arr_heap, (nxt[nid], nid))
                        queue_empties[nid] += 1
                else:
                    last_collision = slot
                    for nid in colliders:
                        st = stage[nid] + 1
                        if st > max_stage:
                            st = max_stage
                        stage[nid] = st
                        w = cw_min << st
                        r = getrandbits(cw_bits + st)
                        while r >= w:
                            r = getrandbits(cw_bits + st)
                        c = slot + 1 + r
                        next_tx[nid] = c
                        heappush(tx_heap, c << NODE_BITS | nid)
                        node_collision[nid] += 1
                    acc.slots_collision += 1
                counted_busy_us += duration
                busy_us += duration
                prev_end = slot_end
                slot += 1

            # -- the phase ends: what landed at contending nodes since their
            # last catch-up, so that the window's snapshot and the end hold
            # the drops stepping counts
            for nid in range(n_nodes):
                if next_tx[nid] >= 0 and nxt[nid] < prev_end:
                    catch_up(nid, prev_end)
            if stop < end:  # -- slot warmup_slots begins
                warm_end = se * empty_count + busy_us
                acc.open_window(warm_end, empty_count)
                counted_busy_us = 0.0

        for nid, st in enumerate(streams):
            if book is None or book.traces.get(nid) is not st:
                del st.instants[:cursor[nid]]  # the run's own: trimmed
        self.drawn_arrivals += drawn + (book.drawn - self._book_drawn
                                        if book else 0)
        self.wakes = wakes
        return (slot, empty_count, busy_us, counted_busy_us, delay_sum_us,
                last_collision, 0)

    def _finalize(self) -> MetricsReport:
        cfg = self.cfg
        report = self.acc.finalize(self.queues, self.stage,
                                   self.empty_count,
                                   cfg.sim_slots - cfg.warmup_slots)
        for nid, queue in enumerate(self.queues):
            arrivals, delivered = self.arrivals[nid], self.delivered[nid]
            dropped = self.dropped[nid]
            if arrivals != delivered + dropped + len(queue):
                raise ConsistencyError(
                    f"packet ledger mismatch for node {nid}: "
                    f"{arrivals} in, {delivered} out, {dropped} dropped, "
                    f"{len(queue)} still queued")
            if cfg.saturated and self.queue_empties[nid]:
                raise ConsistencyError(
                    f"saturated node {nid} ran out of traffic")
        return report


def run_simulation(cfg: SimConfig) -> MetricsReport:
    """Run one configuration to completion; pure function of the config."""
    return Simulation(cfg).run()
