"""One Poisson node against the exact mean sojourn of its queue.

A lone node never collides, so its queue is an M/G/1 queue whose first
customer in each busy period gets exceptional service (Welch 1964, "On a
generalized M/G/1 queuing process in which the first customer of each busy
period receives exceptional service", Operations Research 12(5)).  With
sigma the idle slot and X one exchange:

* regular service S = c sigma + X, with c uniform on {0..cw_min-1} for
  csma-ca and c = cw_min/2 - 1 for csma-eca;
* first service S_f = R + r sigma + X, with r the rejoin draw, uniform on
  {0..cw_min-1} ({0..cw_min} with rejoin_inclusive), and R = sigma -
  (I mod sigma) the wait to the next slot boundary: idle slots start a
  sigma-grid when the queue empties, and I ~ Exp(rate) is the time to the
  next arrival;
* with rho = rate E[S] and pi_f = (1 - rho) / (1 - rho + rate E[S_f]),
  E[T] = rate E[S^2] / (2 (1 - rho))
         + rate (E[S_f^2] - E[S^2]) / (2 (1 - rho + rate E[S_f]))
         + pi_f E[S_f] + (1 - pi_f) E[S].

This covers run()'s Poisson path: bulk skips, the float-floor guard, wakes,
lazy arrivals, delay stamps and the warmup cutoff.  Aggregation (a batch
depends on the queue length) and finite-queue drops are outside the model.

The two loads catch different faults.  A wake one slot late (R shifted by
sigma) moves E[T] by +2.26% at 120 pkt/s and +0.85% at 2000; an extra slot
of regular service (c + 1) moves it by +0.11% at 120 and +8.44% at 2000.
Tolerances are four standard errors of the mean over the seeds the test
runs, from a per-seed spread of (simulated - exact) / exact measured over
more seeds: at most 0.071% over seeds 1-16 at 120 pkt/s x 40M slots (all
four variants), and at most 1.47% over seeds 1-24 at 2000 pkt/s x 2M slots
(both protocols).  Seeds 1-4 at 120 pkt/s give a tolerance of 0.14%, and
seeds 1-3 at 2000 pkt/s one of 3.4%.
"""

from math import expm1, factorial

import pytest

from ecasim import Protocol, SimConfig, run_simulation

SEED_SPREAD = {120.0: 7.1e-4, 2000.0: 1.47e-2}  # per-seed sd, relative
SEEDS = {120.0: range(1, 5), 2000.0: range(1, 4)}
SLOTS = {120.0: 40_000_000, 2000.0: 2_000_000}
Z = 4


def _grid_moment(m, x):
    """E[V^m] for V = (I mod sigma) / sigma, with I ~ Exp(x / sigma).

    The density of V is x e^(-xv) / (1 - e^(-x)) on [0, 1); its moment is a
    series that needs no cancelling differences at small x."""
    series = sum((-x) ** k / (factorial(k) * (m + k + 1)) for k in range(40))
    return x * series / -expm1(-x)


def _uniform_moments(w):
    """E[c], E[c^2] for c uniform on {0..w-1}."""
    return (w - 1) / 2, (w - 1) * (2 * w - 1) / 6


def mean_sojourn_us(cfg):
    """Welch's exact mean sojourn of one node's packets, in microseconds."""
    t = cfg.timing
    lam = cfg.arrival_rate * 1e-6  # per us
    se, x = t.slot_empty, t.exchange_us(t.payload_bits)
    v1, v2 = _grid_moment(1, lam * se), _grid_moment(2, lam * se)
    r1, r2 = se * (1 - v1), se * se * (1 - 2 * v1 + v2)
    if cfg.protocol is Protocol.CSMA_ECA:
        c1 = cfg.cw_min // 2 - 1
        c2 = c1 * c1
    else:
        c1, c2 = _uniform_moments(cfg.cw_min)
    j1, j2 = _uniform_moments(cfg.cw_min + 1 if cfg.rejoin_inclusive
                              else cfg.cw_min)
    s1 = se * c1 + x
    s2 = se * se * c2 + 2 * se * x * c1 + x * x
    f1 = r1 + se * j1 + x
    f2 = (r2 + se * se * j2 + x * x
          + 2 * r1 * (se * j1 + x) + 2 * se * x * j1)
    rho = lam * s1
    pi_f = (1 - rho) / (1 - rho + lam * f1)
    return (lam * s2 / (2 * (1 - rho))
            + lam * (f2 - s2) / (2 * (1 - rho + lam * f1))
            + pi_f * f1 + (1 - pi_f) * s1)


def _lone_node(protocol, rate, inclusive=False, **kw):
    return SimConfig(protocol=protocol, n_nodes=1, arrival_rate=rate,
                     cw_min=16, queue_capacity=100_000,
                     rejoin_inclusive=inclusive, warmup_slots=1000, **kw)


def test_exact_sojourn_is_first_service_at_vanishing_load():
    """With no queueing every packet is a first service, and I mod sigma
    is uniform, so E[T] -> sigma/2 + sigma E[r] + X."""
    cfg = _lone_node(Protocol.CSMA_CA, 1e-6, inclusive=True)
    x = cfg.timing.exchange_us(cfg.timing.payload_bits)
    assert mean_sojourn_us(cfg) == pytest.approx(4.5 + 9.0 * 8 + x, rel=1e-9)


@pytest.mark.parametrize("rate, protocol, inclusive", [
    (rate, protocol, inclusive)
    for rate, flags in ((120.0, (False, True)), (2000.0, (False,)))
    for protocol in Protocol
    for inclusive in flags
])
def test_lone_poisson_node_matches_the_exact_mean_sojourn(rate, protocol,
                                                          inclusive):
    base = _lone_node(protocol, rate, inclusive, sim_slots=SLOTS[rate])
    exact = mean_sojourn_us(base)
    seeds = SEEDS[rate]
    errors = [run_simulation(base._replace(seed=seed)).mean_delay_s * 1e6
              / exact - 1 for seed in seeds]
    tolerance = Z * SEED_SPREAD[rate] / len(seeds) ** 0.5
    assert abs(sum(errors) / len(errors)) < tolerance, (exact, errors)
