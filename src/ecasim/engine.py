"""Slot-synchronous contention engine.

The channel advances one contention slot at a time.  Every active node whose
backoff counter has reached zero transmits in that slot: exactly one
transmitter is a success, two or more collide, none leaves the slot idle.  A
busy exchange is atomic at slot granularity and, like an idle slot, costs
every other active node exactly one backoff tick.  That uniform tick is what
lets a deterministic post-success counter of V repeat with period V + 1
regardless of how busy the channel is.

Because a counter ticks once per slot unconditionally, "counter c at slot s"
is the same thing as "transmits at slot s + c".  The engine therefore keeps a
heap of absolute due-slots instead of decrementing N counters per slot, and
run() skips idle gaps in bulk up to the next due transmission or the next
arrival at an idle node.  No shared randomness is consumed in a skipped gap,
so bulk skipping is exactly equivalent to stepping slot by slot.

An arrival at a node that is already contending draws nothing from the shared
RNG and only grows its queue, which nothing reads until the node's next pop.
So run() keeps only idle nodes in the arrival heap and applies an active
node's arrivals, from its private stream, where they matter: before it
transmits with fewer than max_aggregation packets queued (they fix the batch
size), before a success pops its queue, and at the end of the run.  Appended
later but in the same order, they give the same stamps, drops and RNG states.

Simulation owns every node's state as lists indexed by node id: queues,
active, stage and next_tx, and the whole-run ledger arrivals, delivered,
dropped and queue_empties.  Every tally counts the whole run; the report
reads the measured window as its end value minus a snapshot taken when slot
warmup_slots begins (see metrics), so no event asks whether warmup is over.
advance_slot() is the reference stepper: it resolves one slot through
on_packet_arrival, after_transmission and the traffic and metrics functions.
run() does the same work in one fused loop over the same lists, with those
functions inlined and the same random draws in the same order, stopping at
slot warmup_slots to take the snapshot, and a differential test holds it
equal to stepping.

Time is tracked as (idle slot count, accumulated busy time) and composed on
demand, which keeps the clock bit-identical between the bulk and single-step
paths.

Saturated csma-eca can settle: every node due within one post-success period
and no two nodes ever due in the same slot.  From then on nothing collides and
nothing random is drawn, so run() tests for that state once per period from
the warmup boundary on and, once it holds, replays whole hyperperiods of the
schedule without heap or random work.  The replay still performs each busy
slot's float additions (clock, delays, busy time) in stepping order, because
an exchange time such as 316.888... us is not a dyadic number and k additions
of it are not k times it; only integer tallies are added in bulk.  The
remainder of the run goes back through the general loop.  settle_slot reports
the first slot after the last collision once run() has proved this state.
Only runs that send one packet per exchange (max_aggregation 1) are tested
and replayed; aggregated runs stay in the general loop throughout.
"""

import heapq
import random
from collections import deque, namedtuple
from math import inf, log
from typing import NamedTuple, Union

from . import protocols  # rules looked up per call, so wrappers apply
from .config import Protocol, SimConfig
from .errors import ConsistencyError
from .metrics import (MetricsAccumulator, MetricsReport,
                      negative_delay_error)
from .traffic import ArrivalStream


class Empty:
    """An idle slot.  Not a named tuple: one with no fields would be falsy."""

    kind = "empty"

    def __eq__(self, other):
        return isinstance(other, Empty)

    def __hash__(self):
        return hash(Empty)


EMPTY = Empty()


class Success(NamedTuple):
    transmitter: int
    batch_size: int
    kind = "success"


class Collision(NamedTuple):
    transmitters: tuple
    kind = "collision"


SlotOutcome = Union[Empty, Success, Collision]

NodeSnapshot = namedtuple("NodeSnapshot", "counters")
DropCount = namedtuple("DropCount", "dropped")


class SimClock:
    """Slot index plus elapsed time, composed from idle and busy parts."""

    __slots__ = ("slot", "empty_count", "busy_us", "slot_empty_us")

    def __init__(self, slot_empty_us: float):
        self.slot = 0
        self.empty_count = 0
        self.busy_us = 0.0
        self.slot_empty_us = slot_empty_us

    @property
    def now_us(self) -> float:
        return self.slot_empty_us * self.empty_count + self.busy_us


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


def _replay_busy_slots(plan, reps, se, empty_count, idle_per, duration,
                       warm_end, busy_us, counted_busy_us, delay_sum_us,
                       node_delay_sum, stale):
    """The float work of reps settled hyperperiods, in stepping order.

    plan lists each busy slot of the hyperperiod as (empty slots before it,
    node id, its queue's popleft, its queue's append).  Every busy slot pops
    one packet, adds its delay if it was stamped from warm_end on (counting
    it in stale otherwise), refills the queue with its start instant and adds
    its duration to the clock and the counted busy time.  Returns the clock's
    busy time, the counted busy time and the delay sum.
    """
    e = empty_count
    for _ in range(reps):
        for idle, nid, pop, refill in plan:
            now = se * (e + idle) + busy_us
            enqueue_us = pop()
            if enqueue_us >= warm_end:
                delay = now + duration - enqueue_us
                if delay < 0:
                    raise negative_delay_error(delay, nid, now + duration,
                                               enqueue_us)
                delay_sum_us += delay
                node_delay_sum[nid] += delay
            else:
                stale[nid] += 1
            refill(now)
            busy_us += duration
            counted_busy_us += duration
        e += idle_per
    return busy_us, counted_busy_us, delay_sum_us


def on_packet_arrival(sim, nid: int, enqueue_us: float) -> int | None:
    """Enqueue one arrival at node nid; returns a backoff counter iff the
    node rejoined.

    A full queue drops the packet.  An inactive node becomes active again with
    a uniform counter over the base window; csma-eca with hysteresis keeps its
    inflated stage across the idle period, everything else restarts at stage 0.
    """
    cfg = sim.cfg
    sim.arrivals[nid] += 1
    queue = sim.queues[nid]
    if len(queue) >= cfg.queue_capacity:
        sim.dropped[nid] += 1
        return None
    queue.append(enqueue_us)
    if sim.active[nid]:
        return None
    sim.active[nid] = True
    if not (cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis):
        sim.stage[nid] = 0
    return protocols.rejoin_backoff(cfg.cw_min, cfg.rejoin_inclusive,
                                    sim.proto_rng)


def after_transmission(sim, nid: int, success: bool,
                       batch_size: int) -> tuple[list[float], int | None]:
    """Apply the outcome of node nid's transmission attempt.

    On success the batch leaves the queue and a saturated source tops the
    queue back up to capacity; a node whose queue is then empty leaves
    contention (one queue-empty event).  On collision the batch stays queued
    for retry and the window doubles.  Returns the enqueue instants of the
    delivered packets and the next backoff counter, or None if the node went
    idle.
    """
    cfg = sim.cfg
    if not success:
        sim.stage[nid], counter = protocols.next_backoff_after_collision(
            sim.stage[nid], cfg.max_stage, cfg.cw_min, sim.proto_rng)
        return [], counter
    queue = sim.queues[nid]
    batch = [queue.popleft() for _ in range(batch_size)]
    sim.delivered[nid] += batch_size
    if cfg.saturated:
        added = sim.streams[nid].refill(len(queue), cfg.queue_capacity,
                                        sim.clock.now_us)
        queue.extend(added)
        sim.arrivals[nid] += len(added)
    if not queue:
        sim.active[nid] = False
        sim.queue_empties[nid] += 1
        return batch, None
    sim.stage[nid], counter = protocols.next_backoff_after_success(
        cfg.protocol, cfg.hysteresis, sim.stage[nid], cfg.cw_min,
        sim.proto_rng)
    return batch, counter


class Simulation:
    """One configured run.  Drive it with advance_slot() or just run()."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        t = cfg.timing
        master = random.Random(cfg.seed)
        self.proto_rng = random.Random(master.getrandbits(64))
        n = cfg.n_nodes
        self.queues = [deque() for _ in range(n)]  # enqueue instants, us, FIFO
        self.active = [False] * n
        self.stage = [0] * n       # backoff stage
        self.next_tx = [-1] * n    # due slot; meaningless while inactive
        # the whole-run packet ledger
        self.arrivals = [0] * n
        self.delivered = [0] * n
        self.dropped = [0] * n
        self.queue_empties = [0] * n
        self.clock = SimClock(t.slot_empty)
        self.acc = MetricsAccumulator(
            t.slot_empty, t.payload_bits,
            (self.delivered, self.dropped, self.queue_empties))
        self.tx_heap: list = []       # (due slot, node id), one entry per active node
        self.arrival_heap: list = []  # (next arrival us, node id), poisson only
        self.streams: list = []
        for nid in range(n):
            rng = random.Random(master.getrandbits(64))
            stream = None
            if cfg.arrival_rate > 0:  # inf, the saturated rate, included
                stream = ArrivalStream(cfg.arrival_rate, rng)
                if not stream.saturated:
                    heapq.heappush(self.arrival_heap, (stream.next_us, nid))
            self.streams.append(stream)
        self.last_collision_slot = -1
        self._settled = False
        # end instant of the last resolved slot, as stepping computes it
        # (clock.now_us can differ by an ulp); run() catches up to it
        self.slot_end_us = 0.0
        if cfg.saturated:
            # backlogged from the first instant: full queue, join before slot 0
            for nid, stream in enumerate(self.streams):
                for enqueue_us in stream.refill(0, cfg.queue_capacity, 0.0):
                    counter = on_packet_arrival(self, nid, enqueue_us)
                    if counter is not None:
                        self.next_tx[nid] = counter
                        heapq.heappush(self.tx_heap, (counter, nid))

    # -- inspection helpers (handy in tests and debugging) -------------------

    @property
    def settle_slot(self) -> int | None:
        """First slot after the last collision, once run() has proved that no
        collision can follow (see _settled_firings); None otherwise."""
        return self.last_collision_slot + 1 if self._settled else None

    @property
    def nodes(self) -> list:
        """Each node's drop count as nodes[i].counters.dropped, a read-only
        copy built on access.  Kept only because perfbench/tracer.py reads
        it (ROADMAP item 4); everything else reads sim.dropped."""
        return [NodeSnapshot(DropCount(d)) for d in self.dropped]

    def backoff_counter(self, node_id: int) -> int | None:
        """Slots left before this node transmits, None while inactive."""
        if not self.active[node_id]:
            return None
        return self.next_tx[node_id] - self.clock.slot

    def inject_packets(self, node_id: int, count: int) -> None:
        """Test hook: place packets in a queue without touching contention."""
        queue = self.queues[node_id]
        assert len(queue) + count <= self.cfg.queue_capacity, "queue overfilled"
        queue.extend([self.clock.now_us] * count)
        self.arrivals[node_id] += count

    def set_backoff(self, node_id: int, counter: int) -> None:
        """Test hook: activate a node with an explicit counter."""
        assert counter >= 0
        assert self.queues[node_id], "a contending node needs something to send"
        assert not self.active[node_id], "node already scheduled"
        self.active[node_id] = True
        self.next_tx[node_id] = self.clock.slot + counter
        heapq.heappush(self.tx_heap, (self.next_tx[node_id], node_id))

    # -- the reference stepper --------------------------------------------------

    def advance_slot(self) -> SlotOutcome:
        """Resolve exactly one contention slot and advance the clock."""
        cfg = self.cfg
        clock = self.clock
        acc = self.acc
        s = clock.slot
        if s == cfg.warmup_slots:
            acc.open_window(clock.now_us, clock.empty_count)

        tx_heap = self.tx_heap
        txs = []
        while tx_heap and tx_heap[0][0] == s:
            _, nid = heapq.heappop(tx_heap)
            assert self.active[nid] and self.next_tx[nid] == s
            txs.append(nid)
        assert not tx_heap or tx_heap[0][0] > s, "overdue transmission in heap"

        t = cfg.timing
        # a batch's size is fixed before this slot's arrivals are enqueued
        sizes = [min(len(self.queues[nid]), cfg.max_aggregation)
                 for nid in txs]
        if not txs:
            outcome: SlotOutcome = EMPTY
            duration = t.slot_empty
        else:
            if len(txs) == 1:
                outcome = Success(txs[0], sizes[0])
            else:
                outcome = Collision(tuple(txs))
                self.last_collision_slot = s
            duration = t.exchange_us(max(sizes) * t.payload_bits)

        slot_end = self.slot_end_us = clock.now_us + duration

        # arrivals land mid-slot; a node they wake joins from the next slot on
        arr_heap = self.arrival_heap
        while arr_heap and arr_heap[0][0] < slot_end:
            _, nid = heapq.heappop(arr_heap)
            stream = self.streams[nid]
            for enqueue_us in stream.drain_poisson(slot_end):
                counter = on_packet_arrival(self, nid, enqueue_us)
                if counter is not None:
                    self.next_tx[nid] = s + 1 + counter
                    heapq.heappush(tx_heap, (s + 1 + counter, nid))
            heapq.heappush(arr_heap, (stream.next_us, nid))

        if txs:
            success = len(txs) == 1
            for nid, size in zip(txs, sizes):
                batch, counter = after_transmission(self, nid, success, size)
                acc.record_attempt(nid, success)
                acc.record_delivery(nid, batch, slot_end)
                if counter is not None:
                    self.next_tx[nid] = s + 1 + counter
                    heapq.heappush(tx_heap, (s + 1 + counter, nid))

        acc.record_slot(outcome, duration)
        clock.slot += 1
        if outcome is EMPTY:
            clock.empty_count += 1
        else:
            clock.busy_us += duration
        return outcome

    # -- the fused loop -----------------------------------------------------------

    def run(self) -> MetricsReport:
        """Run to cfg.sim_slots and report.

        Does exactly what repeated advance_slot() calls do, plus bulk skipping
        of idle gaps, lazy arrivals at active nodes and the settled replay, in
        one loop over the simulation's own lists.  Scalars (clock, ledger
        sums, idle-node arrival heap) live in locals and are written back
        before the report, so a later advance_slot() sees the same state.
        """
        cfg = self.cfg
        t = cfg.timing
        clock = self.clock
        acc = self.acc
        tx_heap = self.tx_heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        # randrange(w), inlined: the same getrandbits calls, so the same state
        getrandbits = self.proto_rng.getrandbits

        se = t.slot_empty
        end = cfg.sim_slots
        cap = cfg.queue_capacity
        agg = cfg.max_aggregation
        cw_min = cfg.cw_min
        max_stage = cfg.max_stage
        rate = cfg.arrival_rate
        saturated = cfg.saturated
        random_success = cfg.protocol is Protocol.CSMA_CA
        keep_stage = cfg.protocol is Protocol.CSMA_ECA and cfg.hysteresis
        eca_counter = cw_min // 2 - 1
        rejoin_window = cw_min + 1 if cfg.rejoin_inclusive else cw_min
        cw_bits = cw_min.bit_length()
        rejoin_bits = rejoin_window.bit_length()
        poisson = 0 < rate < inf
        exchange = [t.exchange_us(k * t.payload_bits) for k in range(agg + 1)]
        n_nodes = cfg.n_nodes
        # saturated csma-eca may settle into a collision-free schedule; from
        # the warmup boundary on, test for it once per period (without hyst
        # more than cw_min/2 nodes cannot all fit one period, so never).  The
        # replay moves one packet per busy slot, so aggregation stays stepped.
        eca_periods = [cw_min // 2] * n_nodes
        replayable = (saturated and cfg.protocol is Protocol.CSMA_ECA
                      and agg == 1 and (keep_stage or n_nodes <= cw_min // 2))
        warm_end = acc.warmup_end_us
        # the general loop also stops at warmup_slots, to open the window
        check_at = cfg.warmup_slots if replayable or warm_end == inf else end
        settled = self._settled
        last_collision = self.last_collision_slot

        queues = self.queues
        active = self.active
        stage = self.stage
        next_tx = self.next_tx
        arrivals = self.arrivals
        delivered = self.delivered
        dropped = self.dropped
        queue_empties = self.queue_empties
        streams = self.streams
        # each stream's next_us is its next arrival not yet applied; only idle
        # nodes wait for theirs in arr_heap
        arr_heap = [(streams[nid].next_us, nid) for nid in range(n_nodes)
                    if poisson and not active[nid]]
        heapq.heapify(arr_heap)
        # the accumulator's lists change in place, scalars are written back
        node_success = acc.node_success
        node_collision = acc.node_collision
        node_delay_sum = acc.node_delay_sum
        node_delay_n = acc.node_delay_n
        counted_busy_us = acc.busy_us
        delay_sum_us = acc.delay_sum_us
        slot = clock.slot
        empty_count = clock.empty_count
        busy_us = clock.busy_us
        prev_end = self.slot_end_us

        def catch_up(nid, until):
            """Apply nid's arrivals before `until` (on_packet_arrival without
            the rejoin): append each to the queue, or drop it if full."""
            st = streams[nid]
            t = st.next_us
            q = queues[nid]
            rnd = st.rng.random
            landed = lost = 0
            while t < until:
                landed += 1
                if len(q) < cap:
                    q.append(t)
                else:
                    lost += 1
                t += -log(1.0 - rnd()) / rate * 1e6  # expovariate(rate) * 1e6
            st.next_us = t
            arrivals[nid] += landed
            dropped[nid] += lost

        def catch_up_active(until):
            """What landed at active nodes since their last catch-up."""
            if poisson:
                for nid in range(n_nodes):
                    if active[nid]:
                        catch_up(nid, until)

        while slot < end:
            # -- the general loop, up to the end or the next settled check
            stop = end if end < check_at else check_at
            while slot < stop:
                due = tx_heap[0][0] if tx_heap else stop
                if due > slot:
                    # skip idle slots up to the next transmission or wake
                    gap_end = due if due < stop else stop
                    if arr_heap:
                        a = arr_heap[0][0]
                        now = se * empty_count + busy_us
                        k = int((a - now) / se)
                        while k > 0 and a < now + k * se:  # float floor guard
                            k -= 1
                        if slot + k < gap_end:
                            gap_end = slot + k
                    if gap_end > slot:
                        empty_count += gap_end - slot
                        slot = gap_end
                        prev_end = se * (empty_count - 1) + busy_us + se
                        continue
                assert due >= slot, "overdue transmission in heap"

                # -- one stepped slot: who transmits, and for how long
                s = slot
                now = se * empty_count + busy_us
                winner = -1
                colliders = None
                if due == s:
                    # a batch's size is fixed by what landed before the slot
                    nid = heappop(tx_heap)[1]
                    assert active[nid] and next_tx[nid] == s
                    q = queues[nid]
                    if (poisson and len(q) < agg
                            and streams[nid].next_us < prev_end):
                        catch_up(nid, prev_end)
                    size = len(q)
                    if size > agg:
                        size = agg
                    if tx_heap and tx_heap[0][0] == s:
                        colliders = [nid]
                        longest = size
                        while tx_heap and tx_heap[0][0] == s:
                            nid = heappop(tx_heap)[1]
                            assert active[nid] and next_tx[nid] == s
                            colliders.append(nid)
                            q = queues[nid]
                            if (poisson and len(q) < agg
                                    and streams[nid].next_us < prev_end):
                                catch_up(nid, prev_end)
                            size = len(q)
                            if size > longest:
                                longest = size
                        duration = exchange[longest if longest < agg else agg]
                    else:
                        winner = nid
                        duration = exchange[size]
                else:
                    duration = se
                slot_end = now + duration

                # -- idle nodes' arrivals before the slot ends; the first one
                # queued wakes its node (on_packet_arrival, inlined)
                while arr_heap and arr_heap[0][0] < slot_end:
                    nid = heappop(arr_heap)[1]
                    q = queues[nid]
                    held = len(q)
                    catch_up(nid, slot_end)
                    if len(q) == held:  # an idle queue a hook filled
                        heappush(arr_heap, (streams[nid].next_us, nid))
                        continue
                    active[nid] = True
                    if not keep_stage:
                        stage[nid] = 0
                    r = getrandbits(rejoin_bits)
                    while r >= rejoin_window:
                        r = getrandbits(rejoin_bits)
                    c = s + 1 + r
                    next_tx[nid] = c
                    heappush(tx_heap, (c, nid))

                # -- outcome (after_transmission and record_* calls, inlined)
                if winner >= 0:
                    nid = winner
                    q = queues[nid]
                    # arrivals precede the pops
                    if poisson and streams[nid].next_us < slot_end:
                        catch_up(nid, slot_end)
                    delivered[nid] += size
                    node_success[nid] += 1
                    node_sum = node_delay_sum[nid]
                    samples = 0
                    for _ in range(size):
                        enqueue_us = q.popleft()
                        if enqueue_us >= warm_end:
                            delay = slot_end - enqueue_us
                            if delay < 0:
                                raise negative_delay_error(
                                    delay, nid, slot_end, enqueue_us)
                            delay_sum_us += delay
                            node_sum += delay
                            samples += 1
                    node_delay_sum[nid] = node_sum
                    node_delay_n[nid] += samples
                    if saturated:  # a success always leaves room
                        fill = cap - len(q)
                        if fill == 1:  # every success at max_aggregation 1
                            q.append(now)
                        else:
                            q.extend([now] * fill)
                        arrivals[nid] += fill
                    if q:
                        if random_success:
                            stage[nid] = 0
                            r = getrandbits(cw_bits)
                            while r >= cw_min:
                                r = getrandbits(cw_bits)
                            c = s + 1 + r
                        elif keep_stage:
                            c = s + (cw_min << stage[nid]) // 2
                        else:
                            stage[nid] = 0
                            c = s + 1 + eca_counter
                        next_tx[nid] = c
                        heappush(tx_heap, (c, nid))
                    else:
                        active[nid] = False
                        if poisson:
                            heappush(arr_heap, (streams[nid].next_us, nid))
                        queue_empties[nid] += 1
                    counted_busy_us += duration
                    busy_us += duration
                elif colliders is not None:
                    last_collision = s
                    for nid in colliders:
                        st = stage[nid] + 1
                        if st > max_stage:
                            st = max_stage
                        stage[nid] = st
                        w = cw_min << st
                        r = getrandbits(cw_bits + st)
                        while r >= w:
                            r = getrandbits(cw_bits + st)
                        c = s + 1 + r
                        next_tx[nid] = c
                        heappush(tx_heap, (c, nid))
                        node_collision[nid] += 1
                    acc.slots_collision += 1
                    counted_busy_us += duration
                    busy_us += duration
                else:
                    empty_count += 1
                prev_end = slot_end
                slot += 1

            if slot >= end:
                break
            if warm_end == inf:
                # -- slot warmup_slots begins: with every arrival before it
                # applied, the snapshot holds the drops stepping counts
                catch_up_active(prev_end)
                warm_end = se * empty_count + busy_us
                acc.open_window(warm_end, empty_count)
                counted_busy_us = 0.0
                if not replayable:
                    check_at = end
                    continue
            # -- at check_at: once the schedule has settled, replay whole
            # hyperperiods of it with no random draw or heap work.  Only the
            # per-busy-slot float sums are kept, in stepping order; integer
            # tallies are added in bulk afterwards.
            # saturated nodes are all active, all the time
            periods = ([(cw_min << st) // 2 for st in stage] if keep_stage
                       else eca_periods)
            hyper = max(periods)
            firings = _settled_firings(slot, next_tx, periods, hyper)
            if firings is None:
                check_at = slot + hyper
                continue
            settled = True
            check_at = end
            reps = (end - slot) // hyper
            if not reps:
                continue
            duration = exchange[1]
            idle_per = hyper - len(firings)
            # per busy slot: empty slots before it in the hyperperiod, the
            # node, and its queue's pop and refill
            plan = []
            for j, (f, nid) in enumerate(firings):
                q = queues[nid]
                plan.append((f - slot - j, nid, q.popleft, q.append))
            # stamps popped from before warm_end give no delay sample
            stale = [0] * n_nodes
            busy_us, counted_busy_us, delay_sum_us = _replay_busy_slots(
                plan, reps, se, empty_count, idle_per, duration, warm_end,
                busy_us, counted_busy_us, delay_sum_us, node_delay_sum, stale)
            empty_count += reps * idle_per
            for nid, period in enumerate(periods):
                fired = reps * (hyper // period)
                node_success[nid] += fired
                delivered[nid] += fired
                arrivals[nid] += fired
                node_delay_n[nid] += fired - stale[nid]
                next_tx[nid] += reps * hyper
                if not keep_stage:
                    stage[nid] = 0
            slot += reps * hyper
            tx_heap[:] = sorted(zip(next_tx, range(n_nodes)))
            # prev_end now lags, but saturated runs have no arrivals to catch up

        catch_up_active(prev_end)
        if poisson:
            self.arrival_heap = sorted((st.next_us, nid)
                                       for nid, st in enumerate(streams))
        self.slot_end_us = prev_end
        self._settled = settled
        self.last_collision_slot = last_collision
        clock.slot = slot
        clock.empty_count = empty_count
        clock.busy_us = busy_us
        acc.busy_us = counted_busy_us
        acc.delay_sum_us = delay_sum_us
        return self._finalize()

    def _finalize(self) -> MetricsReport:
        cfg = self.cfg
        report = self.acc.finalize(self.queues, self.stage,
                                   self.clock.empty_count,
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
