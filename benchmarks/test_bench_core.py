"""Smoke tests of the core primitives at n = 600, one call each.

These call once each primitive every experiment is built from: one
routing computation is the unit the paper parallelized over (Appendix
H), so ``routing_outcome_*`` is what every figure is made of.  Nothing
here is timed; ``perfbench/`` is the repository's timing harness.
"""

from repro import core, topology
from repro.bgpsim import BGPSimulator, PolicyAssignment


def test_routing_outcome_baseline(bench_ctx, bench_pair):
    attacker, destination = bench_pair
    result = core.compute_routing_outcome(bench_ctx, destination, attacker)
    assert result.num_sources > 0


def test_routing_outcome_security_second(bench_ctx, bench_pair, bench_deployment):
    attacker, destination = bench_pair
    result = core.compute_routing_outcome(
        bench_ctx, destination, attacker, bench_deployment, core.SECURITY_SECOND
    )
    assert result.count_happy()[0] >= 0


def test_routing_outcome_seed_reference(bench_graph, bench_pair, bench_deployment):
    """The seed dict-based engine on the same pair."""
    from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome

    attacker, destination = bench_pair
    result = ref_compute_routing_outcome(
        RefRoutingContext(bench_graph), destination, attacker,
        bench_deployment, core.SECURITY_SECOND,
    )
    assert result.count_happy()[0] >= 0


def test_batched_sweep_security_second(bench_ctx, bench_pairs, bench_deployment):
    """The batched count path: one fixing pass per pair, shared scratch."""
    result = core.batch_happiness_counts(
        bench_ctx, bench_pairs, bench_deployment, core.SECURITY_SECOND
    )
    assert len(result) == len(bench_pairs)
    assert all(lo <= up <= ns for lo, up, ns in result)


def test_batched_sweep_outcomes_baseline(bench_ctx, bench_pairs):
    """Batched sweep materializing full outcomes."""
    result = core.batch_outcomes(bench_ctx, bench_pairs)
    assert len(result) == len(bench_pairs)


def test_routing_context_build(bench_graph):
    ctx = core.RoutingContext(bench_graph)
    assert len(ctx.graph.asns) == len(bench_graph)


def test_perceivable_closures(bench_ctx, bench_pair):
    attacker, destination = bench_pair
    closure = core.perceivable_closure(bench_ctx, attacker, destination)
    assert (closure.reach & 1).any()


def test_partitions_security_third(bench_ctx, bench_pair):
    attacker, destination = bench_pair
    result = core.compute_partitions(
        bench_ctx, attacker, destination, core.SECURITY_THIRD
    )
    assert result.counts().total > 0


def test_partitions_security_first(bench_ctx, bench_pair):
    attacker, destination = bench_pair
    result = core.compute_partitions(
        bench_ctx, attacker, destination, core.SECURITY_FIRST
    )
    assert result.counts().total > 0


def test_downgrade_analysis(bench_ctx, bench_pair, bench_deployment):
    attacker, destination = bench_pair
    result = core.downgrade_analysis(
        bench_ctx, attacker, destination, bench_deployment, core.SECURITY_THIRD
    )
    assert result.secure_normal is not None


def test_pair_root_cause(bench_ctx, bench_pair, bench_deployment):
    attacker, destination = bench_pair
    result = core.pair_root_cause(
        bench_ctx, attacker, destination, bench_deployment, core.SECURITY_THIRD
    )
    assert result.metric_change == result.gains - result.losses


def test_simulator_convergence(bench_graph, bench_pair, bench_deployment):
    attacker, destination = bench_pair
    sim = BGPSimulator(
        bench_graph,
        destination,
        deployment=bench_deployment,
        policies=PolicyAssignment.uniform(core.SECURITY_SECOND),
        attacker=attacker,
    )
    assert sim.run().converged


def test_topology_generation():
    topo = topology.generate_topology(topology.TopologyParams(n=400, seed=1))
    assert len(topo.graph) == 400


def test_tier_classification(bench_graph):
    tiers = topology.classify_tiers(bench_graph)
    assert tiers.members(topology.Tier.TIER1)


def test_ixp_augmentation(bench_topo):
    result = topology.augment_with_ixp_peering(
        bench_topo.graph, bench_topo.ixp_members
    )
    assert result.added_count >= 0


def test_serial2_roundtrip(bench_graph):
    parsed = topology.parse_serial2(topology.dumps_serial2(bench_graph).splitlines())
    assert len(parsed) == len(bench_graph)
