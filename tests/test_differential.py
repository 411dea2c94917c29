"""Differential tests: flat-array engine vs. the two independent oracles.

The flat routing engine (:mod:`repro.core.routing`) is a performance
rewrite of the seed's dict-based engine, which survives verbatim in
:mod:`repro.core.refimpl`.  Theorem 2.1 says the stable state is unique,
so three independent implementations must agree exactly:

* the flat engine vs. the **message-passing simulator**
  (:mod:`repro.bgpsim`) — deterministic-tiebreak ``choice``,
  ``endpoint`` and ``secure`` AS-for-AS;
* the flat engine vs. the **seed reference engine** — the entire
  :class:`RouteInfo` record AS-for-AS (next-hop sets, rank keys, reach
  bounds, wire security), which is the stronger
  behavior-preservation statement the rewrite is held to.

Instances: ≥20 seeded random topologies × all rank models (baseline +
the three security placements, plus LP2 variants against the reference
engine) × with/without an attacker.
"""

from __future__ import annotations

import random

import pytest

from repro.bgpsim import BGPSimulator, PolicyAssignment
from repro.core import (
    BASELINE,
    Deployment,
    Reach,
    SECURITY_MODELS,
    compute_routing_outcome,
    lp2_variant,
)
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, generate_topology

#: every state call here is certified stable (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("certified")

SEEDS = list(range(24))  # ≥ 20 topologies, all distinct
ALL_MODELS = (BASELINE,) + SECURITY_MODELS


def make_instance(seed: int, n: int = 52):
    """(graph, destination, attacker, deployment) from one seed."""
    topo = generate_topology(TopologyParams(n=n, seed=seed))
    graph = topo.graph
    rnd = random.Random(seed * 1003 + 7)
    asns = graph.asns
    destination = rnd.choice(asns)
    attacker = rnd.choice([a for a in asns if a != destination])
    members = rnd.sample(asns, rnd.randint(0, len(asns) // 2))
    deployment = Deployment.of(members)
    if rnd.random() < 0.5:
        # exercise simplex mode in half the instances
        deployment = deployment.with_simplex_stubs(graph)
    return graph, destination, attacker, deployment


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("with_attacker", [False, True], ids=["normal", "attack"])
def test_flat_engine_matches_simulator(seed, with_attacker):
    graph, destination, attacker, deployment = make_instance(seed)
    m = attacker if with_attacker else None
    for model in ALL_MODELS:
        out = compute_routing_outcome(
            graph, destination, attacker=m, deployment=deployment, model=model
        )
        sim = BGPSimulator(
            graph,
            destination,
            deployment=deployment,
            policies=PolicyAssignment.uniform(model),
            attacker=m,
        )
        sim.run()
        for asn in graph.asns:
            if asn == destination or asn == m:
                continue
            chosen = sim.best[asn]
            if chosen is None:
                assert asn not in out.routes, (model.label, asn)
                continue
            info = out.routes[asn]
            # choice: the deterministic lowest-ASN tiebreak next hop.
            assert info.choice == chosen[0], (model.label, asn)
            # endpoint: where the traffic actually terminates.
            sim_endpoint = (
                Reach.ATTACKER if sim.routes_to_attacker(asn) else Reach.DEST
            )
            assert info.endpoint == sim_endpoint, (model.label, asn)
            # secure: does the AS rank its chosen route as secure?
            assert out.uses_secure_route(asn) == sim.uses_secure_route(asn), (
                model.label,
                asn,
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("with_attacker", [False, True], ids=["normal", "attack"])
def test_flat_engine_matches_reference_engine(seed, with_attacker):
    graph, destination, attacker, deployment = make_instance(seed)
    m = attacker if with_attacker else None
    ref_ctx = RefRoutingContext(graph)
    models = ALL_MODELS + tuple(lp2_variant(mod) for mod in ALL_MODELS)
    for model in models:
        out = compute_routing_outcome(
            graph, destination, attacker=m, deployment=deployment, model=model
        )
        ref = ref_compute_routing_outcome(
            ref_ctx, destination, attacker=m, deployment=deployment, model=model
        )
        assert dict(out.routes) == ref.routes, model.label
        assert out.count_happy() == ref.count_happy(), model.label
        assert out.count_attacked() == ref.count_attacked(), model.label
        assert out.count_secure_sources() == ref.count_secure_sources(), model.label
        assert out.num_sources == ref.num_sources
        for asn in graph.asns:
            assert out.concrete_path(asn) == ref.concrete_path(asn), (
                model.label,
                asn,
            )
