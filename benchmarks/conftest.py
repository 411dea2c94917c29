"""Shared fixtures of the smoke tests under ``benchmarks/``.

They are part of tier-1 (``make test``) and time nothing; the timing
harness is ``perfbench/`` (``make bench``).  The core tests share one
generated 600-AS topology; the per-figure tests run every registered
experiment on one ``tiny``-scale experiment context.
"""

from __future__ import annotations

import pytest

from repro import core, topology
from repro.experiments import make_context


@pytest.fixture(scope="session")
def bench_topo():
    return topology.generate_topology(topology.TopologyParams(n=600, seed=2013))


@pytest.fixture(scope="session")
def bench_graph(bench_topo):
    return bench_topo.graph


@pytest.fixture(scope="session")
def bench_ctx(bench_graph):
    return core.RoutingContext(bench_graph)


@pytest.fixture(scope="session")
def bench_tiers(bench_graph):
    return topology.classify_tiers(bench_graph)


@pytest.fixture(scope="session")
def bench_pair(bench_graph, bench_tiers):
    """A fixed (attacker, destination) pair: Tier-2 attacks a CP."""
    attacker = bench_tiers.members(topology.Tier.TIER2)[0]
    destination = bench_tiers.members(topology.Tier.CP)[0]
    return attacker, destination


@pytest.fixture(scope="session")
def bench_deployment(bench_graph, bench_tiers):
    return core.tier12_rollout(bench_graph, bench_tiers)[-1].deployment


@pytest.fixture(scope="session")
def bench_pairs(bench_graph):
    """A seeded 16-pair (attacker, destination) sweep for batched benches."""
    import random

    rnd = random.Random(2013)
    asns = bench_graph.asns
    pairs = []
    while len(pairs) < 16:
        m, d = rnd.choice(asns), rnd.choice(asns)
        if m != d:
            pairs.append((m, d))
    return pairs


@pytest.fixture(scope="session")
def experiment_context():
    """Tiny-scale experiment context shared by the per-figure benches."""
    return make_context(scale="tiny", seed=2013)
