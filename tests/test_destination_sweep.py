"""Differential tests for the destination-major sweep.

:class:`repro.core.routing.DestinationSweep` keeps one attacker-free
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
    RolloutSweep,
    RoutingContext,
    SECURITY_MODELS,
    batch_happiness_counts,
    batch_outcomes,
    compute_routing_outcome,
    lp2_variant,
    rollout_happiness_counts,
    security_metric,
)
from repro.core.attacks import DEFAULT_ATTACK
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, generate_topology, graph_from_edges
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
    """Full RouteInfo records — not just counts — match both oracles."""
    graph, destination, attackers, deployment = make_instance(seed, ixp=False)
    ctx = RoutingContext(graph)
    ref_ctx = RefRoutingContext(graph)
    providers = sorted(graph.providers(destination))
    sample = providers + attackers[len(providers) : len(providers) + 3]
    for model in ALL_MODELS:
        sweep = DestinationSweep(ctx, destination, deployment, model)
        for m in sample:
            incremental = sweep.outcome(m)
            direct = compute_routing_outcome(
                graph, destination, attacker=m, deployment=deployment, model=model
            )
            ref = ref_compute_routing_outcome(
                ref_ctx, destination, attacker=m, deployment=deployment, model=model
            )
            assert dict(incremental.routes) == dict(direct.routes), (model.label, m)
            assert dict(incremental.routes) == ref.routes, (model.label, m)
            assert incremental.count_happy() == direct.count_happy()
            assert incremental.count_attacked() == direct.count_attacked()
            assert incremental.count_secure_sources() == direct.count_secure_sources()
            for asn in graph.asns:
                assert incremental.concrete_path(asn) == direct.concrete_path(asn)


def test_restore_is_leak_free_across_attackers():
    """Evaluating A, then B, then A again reproduces A exactly, and the
    baseline outcome is unchanged afterwards."""
    graph, destination, attackers, deployment = make_instance(3, ixp=False)
    model = SECURITY_MODELS[1]
    ctx = RoutingContext(graph)
    sweep = DestinationSweep(ctx, destination, deployment, model)
    baseline_before = dict(sweep.baseline_outcome().routes)
    a, b = attackers[0], attackers[-1]
    first = sweep.happiness_counts(a)
    interleaved = [sweep.happiness_counts(m) for m in (b, a, b, a)]
    assert interleaved[1] == first
    assert interleaved[3] == first
    assert dict(sweep.baseline_outcome().routes) == baseline_before


def test_sweep_resyncs_after_foreign_scratch_use():
    """Another computation on the same context between attackers must
    not corrupt the sweep (its baseline is a copy of its own)."""
    graph, destination, attackers, deployment = make_instance(5, ixp=False)
    model = SECURITY_MODELS[0]
    ctx = RoutingContext(graph)
    sweep = DestinationSweep(ctx, destination, deployment, model)
    a = attackers[0]
    want = sweep.happiness_counts(a)
    # Trash the scratch buffers with unrelated pairs on the same context.
    other_dest = attackers[-1]
    compute_routing_outcome(ctx, other_dest, attacker=destination, model=model)
    assert sweep.happiness_counts(a) == want


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


#: Simplex members 1 and 2 have customers.  Before the sweep side
#: rejected that, it answered ``[(3, 3, 3), (0, 0, 3)]`` for the two
#: pairs below under ``security_1st`` where both oracles say ``(0, 0)``.
TRANSIT_SIMPLEX = Deployment(full=frozenset({3, 5}), simplex=frozenset({1, 2}))
TRANSIT_SIMPLEX_PAIRS = [(5, 1), (4, 1)]


def _five_as_graph():
    return graph_from_edges(
        customer_provider=[(2, 1), (3, 2), (4, 2), (4, 3), (5, 3)]
    )


@pytest.mark.parametrize(
    "entry",
    [
        lambda g, dep, model, pairs: security_metric(g, pairs, dep, model),
        lambda g, dep, model, pairs: batch_happiness_counts(g, pairs, dep, model),
        # one attacker a destination: the per-pair arm of the batch
        lambda g, dep, model, pairs: batch_happiness_counts(g, pairs[:1], dep, model),
        lambda g, dep, model, pairs: rollout_happiness_counts(
            g, pairs + [(3, 1), (2, 1)], [Deployment.empty(), dep], model
        ),
        lambda g, dep, model, pairs: DestinationSweep(g, 1, dep, model),
        lambda g, dep, model, pairs: RolloutSweep(
            g, 1, Deployment.empty(), model
        ).advance(dep),
    ],
    ids=[
        "security_metric", "batch", "batch_single_attacker", "rollout",
        "DestinationSweep", "RolloutSweep.advance",
    ],
)
def test_sweep_side_rejects_transit_simplex(entry):
    with pytest.raises(ValueError, match=r"1, 2 .*compute_routing_outcome"):
        entry(
            _five_as_graph(), TRANSIT_SIMPLEX, SECURITY_MODELS[0],
            TRANSIT_SIMPLEX_PAIRS,
        )


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "numpy"])
def test_per_pair_engine_still_evaluates_transit_simplex(vectorized):
    if vectorized:
        pytest.importorskip("numpy")
    graph = _five_as_graph()
    ctx = RoutingContext(graph, vectorized=vectorized)
    ref_ctx = RefRoutingContext(graph)
    for m, d in TRANSIT_SIMPLEX_PAIRS:
        kwargs = dict(
            attacker=m, deployment=TRANSIT_SIMPLEX, model=SECURITY_MODELS[0]
        )
        ours = compute_routing_outcome(ctx, d, **kwargs).count_happy()
        ref = ref_compute_routing_outcome(ref_ctx, d, **kwargs).count_happy()
        assert ours == ref == (0, 0)


@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
@pytest.mark.parametrize("seed", SEEDS[:6])
def test_delta_kernels_bit_identical(seed, ixp):
    """A numpy context's attacker pass — one dense pass — replays a
    scalar context's heap loop exactly: counts for every attacker, full
    outcomes, and no leak between them (verified by re-querying).  The
    context alone selects: pure never runs on a numpy context, nothing
    else ever runs on a scalar one."""
    pytest.importorskip("numpy")
    graph, destination, attackers, deployment = make_instance(seed, ixp)
    scalar = RoutingContext(graph)
    assert not scalar.vectorized
    for model in ALL_MODELS + LP2_MODELS:
        pure = DestinationSweep(scalar, destination, deployment, model)
        want = [pure.happiness_counts(m) for m in attackers]
        assert pure.last_delta_path == "pure"
        routes = [dict(pure.outcome(m).routes) for m in attackers[:3]]
        assert pure.happiness_counts(attackers[0]) == want[0], model.label
        sweep = DestinationSweep(
            RoutingContext(graph, vectorized=True),
            destination, deployment, model,
        )
        for m, counts in zip(attackers, want):
            assert sweep.happiness_counts(m) == counts, (model.label, m)
            assert sweep.last_delta_path == "dense"
        for m, expected in zip(attackers, routes):
            assert dict(sweep.outcome(m).routes) == expected, (model.label, m)
            assert sweep.last_delta_path == "dense"
        assert sweep.happiness_counts(attackers[0]) == want[0], model.label
