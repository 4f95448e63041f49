"""How fast the host runs Python right now, from a fixed reference workload.

On a shared host the same batch can take 1.0x to 1.8x its quiet time for
tens of seconds at a stretch, which swamps the differences the benchmark is
meant to show.  So the benchmark runs a short reference slice before every
cell, leaves the slices' time out of the measurement, and scales the
measured host seconds by the nominal slice time over the slice times next to
the work: a batch run while the host ran at 70% speed is reported at the
time it would have taken at nominal speed.  Over 25-second windows on a
noisy 2-vCPU host this cut the spread of a median from about 20% to about
3%.  The reference never calls ecasim, so no change to ecasim can move it.

The slice mimics the simulator's bytecode mix: heap pushes and pops, random
draws, small slotted objects, deques and dict updates.
"""

import heapq
import random
import time
from collections import deque

# About the median slice time on the quiet host the benchmark was sized on
# (2 vCPUs, Python 3.11.7).  Only ratios matter; it keeps scaled times close
# to host seconds.
NOMINAL_S = 0.018
STEPS = 9000
# Pooled cells are short, so the slice a pool worker runs before each is a
# ninth as long; its nominal time scales with it.
POOLED_STEPS = 1000
POOLED_NOMINAL_S = NOMINAL_S * POOLED_STEPS / STEPS


class _Node:
    __slots__ = ("queue", "due", "stage")

    def __init__(self):
        self.queue = deque()
        self.due = 0
        self.stage = 0


def reference_slice(steps: int = STEPS) -> None:
    rng = random.Random(20130618)
    nodes = [_Node() for _ in range(24)]
    heap = []
    tallies = {}
    for step in range(steps):
        nid = rng.randrange(24)
        node = nodes[nid]
        node.queue.append((step, rng.expovariate(120.0)))
        node.due = step + rng.randrange(16 << node.stage)
        heapq.heappush(heap, (node.due, nid))
        if len(heap) > 16:
            _, nid = heapq.heappop(heap)
            node = nodes[nid]
            if node.queue:
                node.queue.popleft()
            node.stage = (node.stage + 1) % 6
            tallies[nid] = tallies.get(nid, 0) + 1


def slice_s() -> float:
    """Seconds one reference slice takes right now."""
    t0 = time.perf_counter()
    reference_slice()
    return time.perf_counter() - t0


class HostSpeed:
    """Host seconds of the work between reference slices, raw and scaled.

    Call sample() at the start and end of the measured work and between its
    parts.  Each stretch of work between two slices is scaled by NOMINAL_S
    over the mean of those two slices, so a part run during a slow spell is
    corrected by the speed measured right next to it.
    """

    def __init__(self):
        self.host_s = 0.0       # work seconds between slices
        self.scaled_s = 0.0     # the same, scaled to nominal host speed
        self._last = None       # (slice seconds, slice end) of the last slice

    def sample(self) -> None:
        """Run a reference slice now."""
        t0 = time.perf_counter()
        took = slice_s()
        t1 = time.perf_counter()
        if self._last is not None:
            last_took, last_end = self._last
            work = t0 - last_end
            self.host_s += work
            self.scaled_s += work * NOMINAL_S / ((last_took + took) / 2)
        self._last = (took, t1)

    def restart(self) -> None:
        """Forget the last slice, so work until the next sample is not counted."""
        self._last = None


def sliced_cell(cfg):
    """Run one simulation in a pool worker, after a short reference slice.

    A process pool pickles this function by name, which is why it lives at
    module level.  The report carries (slice seconds, cell seconds) home as
    `host_speed`; no field the sweep writes is touched.
    """
    from ecasim.engine import run_simulation
    t0 = time.perf_counter()
    reference_slice(POOLED_STEPS)
    t1 = time.perf_counter()
    report = run_simulation(cfg)
    report.host_speed = (t1 - t0, time.perf_counter() - t1)
    return report


def pooled_scale(reports, workers: int) -> tuple[float, float]:
    """(speed factor, slice seconds per worker) for a pooled sweep's reports.

    The factor is the cells' time scaled cell by cell by the slice before
    each, over their unscaled time.
    """
    pairs = [r.host_speed for r in reports]
    cells = sum(cell for _, cell in pairs)
    scaled = sum(cell * POOLED_NOMINAL_S / took for took, cell in pairs)
    return scaled / cells, sum(took for took, _ in pairs) / workers
