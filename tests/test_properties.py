"""Property-based tests (hypothesis): the paper's theorems as invariants.

* Theorem 2.1 — with a uniform security placement, the message-passing
  simulator converges, under FIFO and LIFO activation alike, to exactly
  the staged algorithm's stable state (uniqueness + correctness of both
  engines);
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
    Category,
    Deployment,
    Reach,
    SECURITY_FIRST,
    SECURITY_MODELS,
    SECURITY_SECOND,
    SECURITY_THIRD,
    compute_partitions,
    compute_routing_outcome,
)
from repro.core.rank import LocalPreference, RankModel, SecurityModel, lp2_variant
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import (
    ASGraph, RouteClass, dumps_serial2, gadgets, graph_from_edges, parse_serial2,
)

from test_bgpsim import LifoSimulator

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
    c2p: list[tuple[int, int]] = []
    p2p = [(1, 2)]
    for asn in range(3, n + 1):
        existing = list(range(1, asn))
        providers = rnd.sample(existing, k=min(len(existing), rnd.randint(1, 3)))
        c2p += [(asn, p) for p in providers]
    # sprinkle peering among non-adjacent pairs.
    linked = {frozenset(edge) for edge in c2p + p2p}
    attempts = rnd.randint(0, 2 * n)
    asns = list(range(1, n + 1))
    for _ in range(attempts):
        a, b = rnd.sample(asns, 2)
        if frozenset((a, b)) not in linked:
            linked.add(frozenset((a, b)))
            p2p.append((a, b))
    graph = graph_from_edges(c2p, p2p)
    graph.validate()
    return graph


@st.composite
def attack_instances(draw, simplex: bool = False):
    """(graph, destination, attacker, deployment, model).

    With ``simplex=True`` the deployment also holds simplex members —
    stubs only, which is what :class:`Deployment` documents, every
    rollout builds (§5.3.2) and every routing entry point takes.
    """
    graph = draw(layered_graphs())
    asns = graph.asns
    destination = draw(st.sampled_from(asns))
    attacker = draw(st.sampled_from([a for a in asns if a != destination]))
    secure = draw(st.sets(st.sampled_from(asns), max_size=len(asns)))
    model = draw(st.sampled_from((BASELINE,) + SECURITY_MODELS))
    deployment = Deployment.of(secure)
    if simplex:
        pool = [a for a in asns if graph.is_stub(a)]
        deployment = Deployment(
            full=deployment.full,
            simplex=frozenset(draw(st.sets(st.sampled_from(pool))) - secure),
        )
    return graph, destination, attacker, deployment, model


def security_2nd_counterexample():
    """The instance ROADMAP item 2a shrank from
    ``test_partitions_sound_for_sampled_deployment`` (19 ASes, d = 7,
    m = 5, S = {1..7}, security 2nd), as plain data: no hypothesis
    version has to replay a blob.  Classing by the endpoints of the
    routes that survive pruning at ``S = ∅`` put AS 8 (and 14, 16) in
    DOOMED, yet the engine and ``refimpl`` route it to d: once S ≠ ∅
    its peer 1 switches to a secure customer route of the same class."""
    graph = graph_from_edges(
        customer_provider=[
            (3, 1), (3, 2), (4, 1), (4, 3), (5, 1), (6, 3), (6, 4), (7, 2),
            (7, 5), (7, 6), (8, 3), (8, 5), (8, 7), (9, 8), (10, 2), (10, 3),
            (10, 4), (11, 2), (11, 8), (12, 1), (12, 8), (13, 2), (13, 4),
            (14, 12), (15, 11), (16, 15), (17, 14), (18, 3), (19, 2), (19, 9),
        ],
        peerings=[
            (1, 2), (1, 8), (1, 14), (1, 16), (2, 9), (2, 15), (2, 18),
            (3, 13), (3, 17), (4, 11), (4, 17), (4, 18), (5, 6), (5, 11),
            (6, 12), (7, 9), (7, 11), (7, 12), (7, 13), (7, 17), (7, 19),
            (8, 16), (10, 11), (10, 13), (10, 17), (11, 13), (13, 15),
            (13, 18), (13, 19),
        ],
    )
    return graph, 7, 5, Deployment.of(range(1, 8)), SECURITY_SECOND


def figure14_with_a_customer():
    """Figure 14's gadget plus X = 64512, a single-homed customer of the
    collateral-damage AS 52142, at the gadget's own S, security 2nd.
    There X follows 52142 to the attacker, so X is not immune; the
    same pruning rule classed it IMMUNE, as every ``S = ∅`` route of
    52142 leads to d."""
    gadget = gadgets.figure14_collateral()
    c2p, p2p = gadget.graph.edge_lists()
    graph = graph_from_edges([*c2p.tolist(), (64512, 52142)], p2p.tolist())
    deployment = Deployment.of(gadget.secure)
    return graph, gadget.destination, gadget.attacker, deployment, SECURITY_SECOND


def oracle_max_n() -> int:
    """The exhaustive oracle's largest world: 2**n deployments a model,
    so n <= 7 under tier-1's budget and 9 under any larger one (the
    ``fuzz`` profile of ``make fuzz``)."""
    tier1 = settings.get_profile("tier1").max_examples
    return 7 if settings.default.max_examples <= tier1 else 9


@st.composite
def oracle_worlds(draw):
    """(graph, destination, attacker) small enough to enumerate."""
    graph = draw(layered_graphs(min_n=4, max_n=oracle_max_n()))
    destination = draw(st.sampled_from(graph.asns))
    attacker = draw(st.sampled_from([a for a in graph.asns if a != destination]))
    return graph, destination, attacker


class TestTheorem21CrossValidation:
    """The keystone: two independent engines, one stable state — the
    simulator's under two activation orders (FIFO and LIFO), with
    stub simplex members drawn too."""

    @DEFAULT_SETTINGS
    @given(attack_instances(simplex=True))
    def test_staged_equals_simulator(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        for simulator in (BGPSimulator, LifoSimulator):
            sim = simulator(
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
    @given(attack_instances(simplex=True))
    def test_normal_conditions_agree_too(self, instance):
        graph, destination, _, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, deployment=deployment, model=model
        )
        for simulator in (BGPSimulator, LifoSimulator):
            sim = simulator(
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
        _assert_partitions_sound(instance)

    def test_partitions_sound_on_the_shrunk_counterexample(self):
        _assert_partitions_sound(security_2nd_counterexample())

    def test_partitions_sound_on_figure14_with_a_customer(self):
        _assert_partitions_sound(figure14_with_a_customer())

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_doomed_is_exact_under_classic_lp(self, instance):
        """Under classic LP a source is DOOMED iff it is unhappy even
        when every AS but the attacker is secure, in every model."""
        graph, destination, attacker, _, _ = instance
        everyone = Deployment.of([a for a in graph.asns if a != attacker])
        for model in SECURITY_MODELS:
            parts = compute_partitions(graph, attacker, destination, model)
            out = compute_routing_outcome(
                graph, destination, attacker, everyone, model
            )
            unhappy = {a for a in out.sources() if not out.happy_upper(a)}
            assert parts.members(Category.DOOMED) == unhappy, model.label


class TestExhaustiveOracle:
    """DOOMED and IMMUNE read literally: unhappy, or happy, for every
    S ⊆ V, each S a ``refimpl`` pass, in all three models under
    classic LP and LP2."""

    MODELS = SECURITY_MODELS + tuple(map(lp2_variant, SECURITY_MODELS))

    @DEFAULT_SETTINGS
    @given(oracle_worlds())
    def test_partitions_hold_for_every_deployment(self, world):
        graph, destination, attacker = world
        for model in self.MODELS:
            parts = compute_partitions(graph, attacker, destination, model)
            always, ever = _fates(graph, destination, attacker, model)
            assert parts.members(Category.IMMUNE) <= always, model.label
            assert not parts.members(Category.DOOMED) & ever, model.label
            if model.local_preference.peer_window is None:
                never = always.union(ever, parts.members(Category.DISCONNECTED))
                sources = set(graph.asns) - {destination, attacker}
                assert parts.members(Category.DOOMED) == sources - never, model.label


def _fates(graph, destination, attacker, model) -> tuple[set[int], set[int]]:
    """The sources happy for every S ⊆ V (``happy_lower``) and those
    happy for some S (``happy_upper``)."""
    ref = RefRoutingContext(graph)
    asns = graph.asns
    always = set(asns) - {destination, attacker}
    ever: set[int] = set()
    for mask in range(1 << len(asns)):
        secure = Deployment.of(a for k, a in enumerate(asns) if mask >> k & 1)
        out = ref_compute_routing_outcome(ref, destination, attacker, secure, model)
        always = {a for a in always if out.happy_lower(a)}
        ever.update(a for a in out.sources() if out.happy_upper(a))
    return always, ever


def _assert_partitions_sound(instance) -> None:
    """Every IMMUNE source is happy and no DOOMED one is, for this
    instance's deployment."""
    graph, destination, attacker, deployment, model = instance
    if not model.uses_security:
        model = SECURITY_THIRD
    parts = compute_partitions(graph, attacker, destination, model)
    out = compute_routing_outcome(
        graph, destination, attacker=attacker, deployment=deployment,
        model=model,
    )
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
