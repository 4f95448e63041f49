"""Setting a fresh Simulation or Reference up through its lists, for tests."""

from ecasim import Simulation
from reference import Reference


def load_node(sim, nid, packets, due_in=-1):
    """Queue packets stamped 0.0 at idle node nid and make it due in due_in
    slots (-1: left idle), as arrivals and a rejoin draw would."""
    loading((nid, packets, due_in), stage=sim.stage[nid])(sim)


def loading(*nodes, stage=0):
    """prepare(sim): load_node(sim, nid, packets, due_in) for each tuple of
    nodes, at the given backoff stage."""
    def prepare(sim):
        due = sim.next_tx
        for nid, packets, due_in in nodes:
            assert sim.slot == 0 and due[nid] < 0, "node already scheduled"
            queue = sim.queues[nid]
            assert len(queue) + packets <= sim.cfg.queue_capacity, \
                "queue overfilled"
            queue.extend([0.0] * packets)
            sim.arrivals[nid] += packets
            assert queue or due_in < 0, \
                "a contending node needs something to send"
            due[nid] = due_in
            sim.stage[nid] = stage
        # assigned whole, once: the reference derives next_tx from its
        # counters, and hands out a copy
        sim.next_tx = due
    return prepare


def lay_arrivals(sim, nid, instants):
    """Make instants, in increasing order, node nid's next arrivals in place
    of what its stream holds; the stream draws on after the last of them."""
    assert sim.slot == 0 and list(instants) == sorted(set(instants))
    sim.streams[nid].instants[:] = instants


def after_one_slot(cfg, prepare):
    """Yield (sim, transmitters) after slot 0 of cfg, for a Simulation that
    run() ran, then for a Reference stepped once, each set up by prepare."""
    cfg = cfg._replace(sim_slots=1, warmup_slots=0)
    sim = Simulation(cfg)
    prepare(sim)
    report = sim.run()
    yield sim, tuple(r.node_id for r in report.per_node if r.transmissions)
    ref = Reference(cfg)
    prepare(ref)
    yield ref, ref.step()
