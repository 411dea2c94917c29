"""Property-based tests (hypothesis): the paper's theorems as invariants.

* Theorem 2.1 — with a uniform security placement, the message-passing
  simulator converges to exactly the staged algorithm's stable state
  (uniqueness + correctness of both engines);
* Theorem 3.1 — no protocol downgrades when security is 1st;
* Theorem 6.1 — security 3rd is monotone: growing S never unhappies a
  happy AS;
* metric bounds are ordered, partitions are sound, and the rank keys
  stay monotone under arbitrary extensions.

Random instances come from a layered-topology strategy that mirrors the
generator but stays tiny so each example costs milliseconds.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bgpsim import BGPSimulator, PolicyAssignment
from repro.core import (
    BASELINE,
    Deployment,
    Reach,
    SECURITY_FIRST,
    SECURITY_MODELS,
    SECURITY_THIRD,
    compute_partitions,
    compute_routing_outcome,
)
from repro.core.rank import LocalPreference, RankModel, SecurityModel
from repro.topology import ASGraph, RouteClass, parse_serial2, dumps_serial2

# The example budget comes from the loaded profile (tests/conftest.py).
DEFAULT_SETTINGS = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def layered_graphs(draw, min_n: int = 12, max_n: int = 40) -> ASGraph:
    """Small random layered AS graphs (valley-free, connected-ish)."""
    n = draw(st.integers(min_n, max_n))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = ASGraph()
    tops = [1, 2]
    graph.add_as(1)
    graph.add_as(2)
    graph.add_peering(1, 2)
    for asn in range(3, n + 1):
        graph.add_as(asn)
        existing = [a for a in graph.asns if a != asn]
        providers = rnd.sample(existing, k=min(len(existing), rnd.randint(1, 3)))
        for p in providers:
            graph.add_customer_provider(asn, p)
    # sprinkle peering among non-adjacent pairs.
    attempts = rnd.randint(0, 2 * n)
    asns = graph.asns
    for _ in range(attempts):
        a, b = rnd.sample(asns, 2)
        if not graph.has_edge(a, b):
            graph.add_peering(a, b)
    graph.validate()
    return graph


@st.composite
def attack_instances(draw, simplex: bool | str = False):
    """(graph, destination, attacker, deployment, model).

    With ``simplex=True`` the deployment also holds simplex members —
    stubs only, which is what :class:`Deployment` documents, every
    rollout builds (§5.3.2) and the sweeps and numpy kernels take.
    With ``simplex="transit"`` they are drawn from every AS: a simplex
    AS with customers re-announces, signed, a route it ranked insecure,
    so fixing order is no longer key order (security 1st/2nd).  Only
    the per-pair engine's heap loop evaluates that, on either context;
    the sweep-backed entry points reject it.
    """
    graph = draw(layered_graphs())
    asns = graph.asns
    destination = draw(st.sampled_from(asns))
    attacker = draw(st.sampled_from([a for a in asns if a != destination]))
    secure = draw(st.sets(st.sampled_from(asns), max_size=len(asns)))
    model = draw(st.sampled_from((BASELINE,) + SECURITY_MODELS))
    deployment = Deployment.of(secure)
    if simplex:
        pool = [a for a in asns if simplex == "transit" or graph.is_stub(a)]
        deployment = Deployment(
            full=deployment.full,
            simplex=frozenset(draw(st.sets(st.sampled_from(pool))) - secure),
        )
    return graph, destination, attacker, deployment, model


class TestTheorem21CrossValidation:
    """The keystone: two independent engines, one stable state."""

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_staged_equals_simulator(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        sim = BGPSimulator(
            graph,
            destination,
            deployment=deployment,
            policies=PolicyAssignment.uniform(model),
            attacker=attacker,
        )
        sim.run()
        for asn in graph.asns:
            if asn in (destination, attacker):
                continue
            assert out.concrete_path(asn) == sim.physical_path(asn), asn
            if model.uses_security:
                assert out.uses_secure_route(asn) == sim.uses_secure_route(asn)

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_normal_conditions_agree_too(self, instance):
        graph, destination, _, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, deployment=deployment, model=model
        )
        sim = BGPSimulator(
            graph, destination, deployment=deployment,
            policies=PolicyAssignment.uniform(model),
        )
        sim.run()
        for asn in graph.asns:
            if asn == destination:
                continue
            assert out.concrete_path(asn) == sim.physical_path(asn), asn


class TestTheorem31NoDowngrades:
    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_secure_routes_survive_attacks_when_security_first(self, instance):
        graph, destination, attacker, deployment, _ = instance
        normal = compute_routing_outcome(
            graph, destination, deployment=deployment, model=SECURITY_FIRST
        )
        attack = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=SECURITY_FIRST,
        )
        for asn in graph.asns:
            if asn in (destination, attacker):
                continue
            if not normal.uses_secure_route(asn):
                continue
            if attacker in normal.concrete_path(asn):
                continue  # the theorem's exemption: m sat on the route
            assert attack.uses_secure_route(asn), asn
            assert attack.happy_lower(asn), asn


class TestTheorem61Monotonicity:
    @DEFAULT_SETTINGS
    @given(attack_instances(), st.sets(st.integers(1, 40)))
    def test_growing_s_never_unhappies_security_third(self, instance, extra):
        graph, destination, attacker, deployment, _ = instance
        bigger = Deployment.of(
            set(deployment.full) | {a for a in extra if a in graph}
        )
        small_out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=SECURITY_THIRD,
        )
        big_out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=bigger,
            model=SECURITY_THIRD,
        )
        for asn in graph.asns:
            if asn in (destination, attacker):
                continue
            if small_out.concrete_endpoint(asn) == Reach.DEST:
                assert big_out.concrete_endpoint(asn) == Reach.DEST, asn


class TestBoundsAndPartitions:
    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_happy_bounds_ordered(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        lower, upper = out.count_happy()
        attacked_lower, attacked_upper = out.count_attacked()
        assert 0 <= lower <= upper <= out.num_sources
        assert attacked_lower + upper <= out.num_sources + (upper - lower)
        # concrete outcome sits between the bounds.
        concrete = sum(
            1
            for asn in graph.asns
            if asn not in (destination, attacker)
            and out.concrete_endpoint(asn) == Reach.DEST
        )
        assert lower <= concrete <= upper

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_partitions_sound_for_sampled_deployment(self, instance):
        graph, destination, attacker, deployment, model = instance
        if not model.uses_security:
            model = SECURITY_THIRD
        parts = compute_partitions(graph, attacker, destination, model)
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        from repro.core import Category

        for asn in parts.members(Category.IMMUNE):
            assert out.happy_lower(asn), asn
        for asn in parts.members(Category.DOOMED):
            assert not out.happy_upper(asn), asn


class TestSerial2Roundtrip:
    @DEFAULT_SETTINGS
    @given(layered_graphs())
    def test_roundtrip_preserves_graph(self, graph):
        parsed = parse_serial2(dumps_serial2(graph).splitlines())
        assert list(parsed.edges()) == list(graph.edges())


class TestRankKeyProperties:
    @DEFAULT_SETTINGS
    @given(
        st.sampled_from(
            [SecurityModel.FIRST, SecurityModel.SECOND, SecurityModel.THIRD]
        ),
        st.one_of(st.none(), st.integers(1, 6)),
        st.sampled_from(list(RouteClass)),
        st.integers(1, 15),
        st.booleans(),
    )
    def test_keys_total_order_and_monotone_length(
        self, placement, window, route_class, length, secure
    ):
        model = RankModel(placement, LocalPreference(peer_window=window))
        key = model.key(route_class, length, secure)
        longer = model.key(route_class, length + 1, secure)
        assert longer > key
        # secure never hurts:
        assert model.key(route_class, length, True) <= model.key(
            route_class, length, False
        )
