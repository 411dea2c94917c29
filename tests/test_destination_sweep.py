"""Differential tests for the destination-major sweep.

:class:`repro.core.jobs.DestinationSweep` keeps one attacker-free
baseline per destination and runs each attacker as one pass on the
context's scratch, so the tests here hold it *bit-identical* to two
independent oracles on every observable:

* the per-pair flat engine (one full fixing pass per pair:
  ``batch_outcomes`` and ``compute_routing_outcome``), and
* the seed reference engine (:mod:`repro.core.refimpl`), kept verbatim
  from the pre-rewrite repository.

Instances: >= 10 seeded random topologies x all rank models (baseline +
three security placements, plus LP2 variants) x with/without the
Appendix J IXP augmentation, attacker sets that include every provider,
peer and customer of the destination (the adjacent edge cases where the
bogus route competes hardest), and repeated/interleaved attackers to
prove no attacker's pass leaks into the next or into the baseline.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BASELINE,
    Deployment,
    DestinationSweep,
    HONEST,
    ONE_HOP_HIJACK,
    RoutingContext,
    SECURITY_MODELS,
    batch_happiness_counts,
    batch_outcomes,
    compute_routing_outcome,
    jobs_happiness_counts,
    lp2_variant,
    normal_conditions,
    rollout_happiness_counts,
    security_metric,
)
from repro.core.attacks import DEFAULT_ATTACK
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, gadgets, generate_topology
from repro.topology.ixp import augment_with_ixp_peering

SEEDS = list(range(12))  # >= 10 topologies, all distinct
ALL_MODELS = (BASELINE,) + SECURITY_MODELS
LP2_MODELS = tuple(lp2_variant(m) for m in ALL_MODELS)


def per_pair_counts(topology, pairs, deployment, model, attack=DEFAULT_ATTACK):
    """``batch_happiness_counts``' result computed the per-pair way: one
    full fixing pass per pair, no sweep."""
    return [
        (*outcome.count_happy(), outcome.num_sources)
        for outcome in batch_outcomes(topology, pairs, deployment, model, attack)
    ]


def ref_pair_counts(ref_ctx, pairs, deployment, model, attack=DEFAULT_ATTACK):
    """``batch_happiness_counts``' result from the seed engine
    (:mod:`repro.core.refimpl`): one reference pass per pair."""
    return [
        (*ref.count_happy(), ref.num_sources)
        for ref in (
            ref_compute_routing_outcome(
                ref_ctx, d, m, deployment, model, attack=attack
            )
            for m, d in pairs
        )
    ]


def make_instance(seed: int, ixp: bool, n: int = 52):
    """(graph, destination, attackers, deployment) from one seed.

    The attacker set always contains every neighbor of the destination
    (providers, peers, customers) so the adjacent edge cases — including
    attacker == provider-of-destination — are exercised on every
    topology, plus a sample of remote attackers.
    """
    topo = generate_topology(TopologyParams(n=n, seed=seed))
    graph = topo.graph
    if ixp:
        graph = augment_with_ixp_peering(graph, topo.ixp_members).graph
    rnd = random.Random(seed * 1009 + 13)
    asns = graph.asns
    destination = rnd.choice(asns)
    adjacent = sorted(graph.neighbors(destination))
    remote = [a for a in asns if a != destination and a not in adjacent]
    attackers = adjacent + rnd.sample(remote, min(8, len(remote)))
    members = rnd.sample(asns, rnd.randint(0, len(asns) // 2))
    deployment = Deployment.of(members)
    if seed % 2:
        deployment = deployment.with_simplex_stubs(graph)
    return graph, destination, attackers, deployment


@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_counts_match_per_pair_engine(seed, ixp):
    graph, destination, attackers, deployment = make_instance(seed, ixp)
    ctx = RoutingContext(graph)
    pairs = [(m, destination) for m in attackers]
    for model in ALL_MODELS + LP2_MODELS:
        dest_major = batch_happiness_counts(ctx, pairs, deployment, model)
        per_pair = per_pair_counts(ctx, pairs, deployment, model)
        assert dest_major == per_pair, (model.label, destination)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_sweep_counts_match_refimpl(seed):
    graph, destination, attackers, deployment = make_instance(seed, ixp=False)
    ctx = RoutingContext(graph)
    ref_ctx = RefRoutingContext(graph)
    for model in ALL_MODELS:
        sweep = DestinationSweep(ctx, destination, deployment, model)
        for m in attackers:
            lo, up, sources = sweep.happiness_counts(m)
            ref = ref_compute_routing_outcome(
                ref_ctx, destination, attacker=m, deployment=deployment, model=model
            )
            assert (lo, up) == ref.count_happy(), (model.label, m)
            assert sources == ref.num_sources, (model.label, m)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_sweep_outcomes_bit_identical(seed):
    """Full RouteInfo records — not just counts — of the per-pair
    engine, one context shared with a sweep, match the seed engine, and
    the sweep's counts match them."""
    graph, destination, attackers, deployment = make_instance(seed, ixp=False)
    ctx = RoutingContext(graph)
    ref_ctx = RefRoutingContext(graph)
    providers = sorted(graph.providers(destination))
    sample = providers + attackers[len(providers) : len(providers) + 3]
    for model in ALL_MODELS:
        sweep = DestinationSweep(ctx, destination, deployment, model)
        for m in sample:
            direct = compute_routing_outcome(
                ctx, destination, attacker=m, deployment=deployment, model=model
            )
            ref = ref_compute_routing_outcome(
                ref_ctx, destination, attacker=m, deployment=deployment, model=model
            )
            assert sweep.happiness_counts(m) == (
                *direct.count_happy(), direct.num_sources
            ), (model.label, m)
            assert dict(direct.routes) == ref.routes, (model.label, m)
            assert direct.count_happy() == ref.count_happy()
            assert direct.count_attacked() == ref.count_attacked()
            assert direct.count_secure_sources() == ref.count_secure_sources()
            for asn in graph.asns:
                assert direct.concrete_path(asn) == ref.concrete_path(asn)


#: ``honest`` resolves every attacker from the sweep's baseline copy;
#: the hijack reads none of it.
BASELINE_READERS = pytest.mark.parametrize(
    "attack", [ONE_HOP_HIJACK, HONEST], ids=lambda a: a.token
)


@BASELINE_READERS
def test_restore_is_leak_free_across_attackers(attack):
    """Evaluating A, then B, then A again reproduces A exactly: each
    answer is the seed engine's, however the attackers interleave (on
    an instance whose attacker passes move ``honest``'s baseline
    records)."""
    graph, destination, attackers, deployment = make_instance(1, ixp=False)
    model = SECURITY_MODELS[1]
    sweep = DestinationSweep(
        RoutingContext(graph), destination, deployment, model, attack
    )
    order = attackers + attackers[::-1]
    want = ref_pair_counts(
        RefRoutingContext(graph), [(m, destination) for m in order],
        deployment, model, attack,
    )
    assert [sweep.happiness_counts(m) for m in order] == want


@BASELINE_READERS
def test_sweep_resyncs_after_foreign_scratch_use(attack):
    """Another computation on the same context between attackers must
    not corrupt the sweep (its baseline is a copy of its own)."""
    graph, destination, attackers, deployment = make_instance(5, ixp=False)
    model = SECURITY_MODELS[0]
    ctx = RoutingContext(graph)
    sweep = DestinationSweep(ctx, destination, deployment, model, attack)
    want = ref_pair_counts(
        RefRoutingContext(graph), [(m, destination) for m in attackers],
        deployment, model, attack,
    )
    for m, counts in zip(attackers, want):
        # Trash the scratch buffers with an unrelated pass on the context.
        compute_routing_outcome(ctx, m, attacker=destination, model=model)
        assert sweep.happiness_counts(m) == counts, m


def test_mixed_destination_batch_with_normal_conditions():
    """Destination-major batching handles interleaved destinations and
    attacker=None rows, in input order, identically to per-pair."""
    graph, d1, attackers, deployment = make_instance(7, ixp=False)
    rnd = random.Random(99)
    others = [a for a in graph.asns if a != d1]
    d2 = rnd.choice(others)
    pairs = [
        (attackers[0], d1),
        (None, d2),
        ([a for a in others if a != d2][0], d2),
        (attackers[1], d1),
        (None, d1),
    ]
    for model in ALL_MODELS:
        dest_major = batch_happiness_counts(graph, pairs, deployment, model)
        per_pair = per_pair_counts(graph, pairs, deployment, model)
        assert dest_major == per_pair, model.label


def test_sweep_rejects_bad_attackers():
    graph, destination, _attackers, deployment = make_instance(1, ixp=False)
    sweep = DestinationSweep(graph, destination, deployment, BASELINE)
    with pytest.raises(ValueError):
        sweep.happiness_counts(destination)
    with pytest.raises(ValueError):
        sweep.happiness_counts(-42)


#: Simplex AS 2 has customers: two stable states under security 1st
#: (``tests/test_bgpsim.py::TestTransitSimplexWitness``).
WITNESS = gadgets.transit_simplex_two_states()
WITNESS_DEPLOYMENT = Deployment(full=WITNESS.secure, simplex=WITNESS.simplex)
WITNESS_PAIRS = [(4, 1), (3, 1)]


@pytest.mark.parametrize(
    "entry",
    [
        lambda g, dep, model, pairs: compute_routing_outcome(
            g, 1, attacker=4, deployment=dep, model=model
        ),
        lambda g, dep, model, pairs: normal_conditions(g, 1, dep, model),
        lambda g, dep, model, pairs: batch_outcomes(g, pairs, dep, model),
        lambda g, dep, model, pairs: security_metric(g, pairs, dep, model),
        lambda g, dep, model, pairs: batch_happiness_counts(g, pairs, dep, model),
        # one attacker a destination: the per-pair arm of the batch
        lambda g, dep, model, pairs: batch_happiness_counts(g, pairs[:1], dep, model),
        lambda g, dep, model, pairs: rollout_happiness_counts(
            g, pairs + [(5, 1), (2, 1)], [Deployment.empty(), dep], model
        ),
        lambda g, dep, model, pairs: DestinationSweep(g, 1, dep, model),
        # a later job of the count plan: checked before the first runs
        lambda g, dep, model, pairs: jobs_happiness_counts(g, [
            (pairs, [None], model, DEFAULT_ATTACK),
            (pairs, [dep], model, DEFAULT_ATTACK),
        ]),
    ],
    ids=[
        "compute_routing_outcome", "normal_conditions", "batch_outcomes",
        "security_metric", "batch", "batch_single_attacker", "rollout",
        "DestinationSweep", "jobs",
    ],
)
def test_every_entry_point_rejects_transit_simplex(entry):
    ctx = RoutingContext(WITNESS.graph)
    with pytest.raises(ValueError, match=r"member\(s\) 2 have customers"):
        entry(ctx, WITNESS_DEPLOYMENT, SECURITY_MODELS[0], WITNESS_PAIRS)


@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_delta_kernels_bit_identical(seed, ixp):
    """A sweep's attacker pass — one dense pass — replays the seed
    engine exactly: counts for every attacker, and no leak from the
    full outcomes computed on its context in between (verified by
    re-querying)."""
    graph, destination, attackers, deployment = make_instance(seed, ixp)
    ref_ctx = RefRoutingContext(graph)
    for model in ALL_MODELS + LP2_MODELS:
        want = ref_pair_counts(
            ref_ctx, [(m, destination) for m in attackers], deployment, model
        )
        routes = [
            ref_compute_routing_outcome(
                ref_ctx, destination, m, deployment, model
            ).routes
            for m in attackers[:3]
        ]
        ctx = RoutingContext(graph)
        sweep = DestinationSweep(ctx, destination, deployment, model)
        assert sweep.last_delta_path == "dense"
        for m, counts in zip(attackers, want):
            assert sweep.happiness_counts(m) == counts, (model.label, m)
        for m, expected in zip(attackers, routes):
            out = compute_routing_outcome(ctx, destination, m, deployment, model)
            assert dict(out.routes) == expected, (model.label, m)
        assert sweep.happiness_counts(attackers[0]) == want[0], model.label
