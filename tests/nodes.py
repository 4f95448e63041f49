"""Setting a Simulation's node up through its lists, for tests."""


def load_node(sim, nid, packets, due_in=-1):
    """Queue packets stamped now at idle node nid and make it due in due_in
    slots (-1: left idle), as arrivals and a rejoin draw would."""
    queue = sim.queues[nid]
    assert len(queue) + packets <= sim.cfg.queue_capacity, "queue overfilled"
    assert sim.next_tx[nid] < 0, "node already scheduled"
    queue.extend([sim.now_us] * packets)
    sim.arrivals[nid] += packets
    assert queue or due_in < 0, "a contending node needs something to send"
    sim.next_tx[nid] = sim.slot + due_in if due_in >= 0 else -1
