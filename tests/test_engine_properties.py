"""Property-based invariants of the flat-array routing engine.

Complements ``tests/test_properties.py`` (which checks the *paper's*
theorems) with invariants of the *engine mechanics* on random inputs:

* **rank-key monotonicity along next hops** — every AS's key is
  strictly larger than the key of each AS in its BPR next-hop set
  (this is what makes the single fixing pass equal the staged BFS);
* **no export-rule violations** — an AS never holds a route its next
  hop was not allowed to export under ``Ex``;
* **bound ordering** — ``happy_lower ≤ happy_upper`` (and the same for
  the attacked counts), with both within ``[0, num_sources]``;
* **old-vs-new count equality** — ``count_happy()`` /
  ``count_attacked()`` from the engine's run-time counters equal both a
  recount over the lazy route view and the seed reference engine's
  counts;
* **batching is pure** — ``batch_outcomes`` over a pair sweep equals
  pair-at-a-time ``compute_routing_outcome`` even though the batch
  reuses scratch buffers and deployment masks;
* **every chain path is the same function** — along a random nested
  deployment chain, the count path, a fresh sweep per step and the
  per-pair engine equal the reference engine at every step, attacked
  and attacker-free (the tier-1 seed of the standing differential
  fuzzer).
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Deployment,
    DestinationSweep,
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    PathLengthHijack,
    Reach,
    RoutingContext,
    batch_outcomes,
    compute_routing_outcome,
    normal_conditions,
    rollout_happiness_counts,
)
from repro.core.refimpl import ref_compute_routing_outcome
from repro.topology.relationships import RouteClass

from test_properties import DEFAULT_SETTINGS, attack_instances


def _reference_counts(outcome):
    """Recount happy/attacked bounds the way the seed engine did."""
    happy = [0, 0]
    attacked = [0, 0]
    for asn, info in outcome.routes.items():
        if not outcome.is_source(asn):
            continue
        if info.reaches == Reach.DEST:
            happy[0] += 1
            happy[1] += 1
        elif info.reaches & Reach.DEST:
            happy[1] += 1
        if info.reaches == Reach.ATTACKER:
            attacked[0] += 1
            attacked[1] += 1
        elif info.reaches & Reach.ATTACKER:
            attacked[1] += 1
    return tuple(happy), tuple(attacked)


class TestEngineInvariants:
    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_rank_key_monotone_along_next_hops(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        roots = {destination, attacker}
        for asn, info in out.routes.items():
            if asn in roots:
                continue
            assert info.key is not None
            for nh in info.next_hops:
                if nh in roots:
                    continue
                assert out.routes[nh].key < info.key, (asn, nh)

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_no_export_rule_violations(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        roots = {destination, attacker}
        for asn, info in out.routes.items():
            if asn in roots:
                continue
            for nh in info.next_hops:
                if nh in roots:
                    continue  # origins announce to everyone
                # Ex: nh may export to asn only a customer route, unless
                # asn is nh's customer (customers receive everything).
                assert (
                    out.routes[nh].route_class is RouteClass.CUSTOMER
                    or asn in graph.customers(nh)
                ), (nh, asn)

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_happy_bounds_ordered(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        lower, upper = out.count_happy()
        att_lower, att_upper = out.count_attacked()
        assert 0 <= lower <= upper <= out.num_sources
        assert 0 <= att_lower <= att_upper <= out.num_sources

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_counts_match_view_and_reference_engine(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        happy, attacked = _reference_counts(out)
        assert out.count_happy() == happy
        assert out.count_attacked() == attacked
        ref = ref_compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        assert out.count_happy() == ref.count_happy()
        assert out.count_attacked() == ref.count_attacked()
        assert out.count_secure_sources() == ref.count_secure_sources()

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_batch_outcomes_equal_individual_calls(self, instance):
        graph, destination, attacker, deployment, model = instance
        asns = graph.asns
        pairs = [
            (attacker, destination),
            (None, destination),
            (attacker, next(a for a in asns if a != attacker)),
        ]
        batch = batch_outcomes(graph, pairs, deployment, model)
        for (m, d), got in zip(pairs, batch):
            want = compute_routing_outcome(
                graph, d, attacker=m, deployment=deployment, model=model
            )
            assert dict(got.routes) == dict(want.routes), (m, d)
            assert got.count_happy() == want.count_happy()


@st.composite
def nested_chains(draw):
    """(graph, destination, attacker, chain, model, attack): 2–4
    deployments nested per membership mode, simplex members included,
    the last step promoting at least one of them to full when any
    exist; the destination or the attacker may join on the way."""
    graph, destination, attacker, first, model = draw(
        attack_instances(simplex=True)
    )
    asns = graph.asns
    joining = st.sets(st.sampled_from(asns), max_size=len(asns) // 3)
    stubs = st.sets(st.sampled_from([a for a in asns if graph.is_stub(a)]))
    chain = [first]
    steps = draw(st.integers(1, 3))
    for step in range(steps):
        prev = chain[-1]
        promoted = set()
        if prev.simplex:
            promoted = draw(
                st.sets(
                    st.sampled_from(sorted(prev.simplex)),
                    min_size=step == steps - 1,
                )
            )
        full = prev.full | promoted | draw(joining)
        chain.append(
            Deployment(
                full=frozenset(full),
                simplex=frozenset((prev.simplex | draw(stubs)) - full),
            )
        )
    attack = draw(
        st.sampled_from(
            (ONE_HOP_HIJACK, FORGED_ORIGIN, PathLengthHijack(2), HONEST)
        )
    )
    return graph, destination, attacker, chain, model, attack


class TestSweepPathsAgree:
    @DEFAULT_SETTINGS
    @given(nested_chains())
    def test_chain_walks_equal_fresh_sweeps_and_oracles(self, instance):
        graph, d, m, chain, model, attack = instance
        sources = len(graph.asns) - 2
        want = []
        for deployment in chain:
            ref = ref_compute_routing_outcome(
                graph, d, attacker=m, deployment=deployment, model=model,
                attack=attack,
            )
            free = ref_compute_routing_outcome(
                graph, d, deployment=deployment, model=model
            )
            want.append(((*ref.count_happy(), sources), free.count_happy()))
        ctx = RoutingContext(graph)
        planned = rollout_happiness_counts(ctx, [(m, d)], chain, model, attack=attack)
        for t, deployment in enumerate(chain):
            attacked, attacker_free = want[t]
            fresh = DestinationSweep(ctx, d, deployment, model, attack)
            direct = compute_routing_outcome(
                ctx, d, attacker=m, deployment=deployment, model=model,
                attack=attack,
            )
            free = normal_conditions(ctx, d, deployment, model)
            assert planned[t] == [attacked], t
            assert (*direct.count_happy(), sources) == attacked, t
            assert free.count_happy() == attacker_free, t
            assert fresh.happiness_counts(m) == attacked, t
