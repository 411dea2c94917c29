"""Unit tests for the partial-deployment routing computation.

Hand-computed expectations on tiny topologies, covering route selection,
the export rule, attack mechanics, security propagation, tiebreak
bounds, simplex mode and the concrete (deterministic tiebreak) view.
"""

import pytest

from repro.core import (
    BASELINE,
    Deployment,
    Reach,
    RoutingContext,
    SECURITY_FIRST,
    SECURITY_SECOND,
    SECURITY_THIRD,
    compute_routing_outcome,
    normal_conditions,
)
from repro.topology import RouteClass, graph_from_edges


class TestBasicsOnLine:
    """Chain 4 -> 3 -> 2 -> 1 (arrows point at providers); d = 1."""

    @pytest.fixture()
    def graph(self):
        return graph_from_edges(customer_provider=[(2, 1), (3, 2), (4, 3)])

    def test_everyone_reaches_destination(self, graph):
        # d=1 is at the top: every AS reaches it via provider routes.
        out = normal_conditions(graph, destination=1)
        assert out.routes[2].route_class is RouteClass.PROVIDER
        assert out.routes[2].length == 1
        assert out.routes[3].length == 2
        assert out.routes[4].length == 3
        assert out.concrete_path(4) == (4, 3, 2, 1)

    def test_destination_at_bottom_gives_customer_routes(self, graph):
        out = normal_conditions(graph, destination=4)
        assert out.routes[3].route_class is RouteClass.CUSTOMER
        assert out.routes[1].length == 3

    def test_root_has_no_route_info(self, graph):
        out = normal_conditions(graph, destination=1)
        assert out.routes[1].key is None
        assert out.routes[1].length == 0
        assert out.routes[1].reaches == Reach.DEST

    def test_counts(self, graph):
        out = normal_conditions(graph, destination=1)
        assert out.num_sources == 3
        assert out.count_happy() == (3, 3)
        assert out.count_attacked() == (0, 0)


class TestExportRule:
    def test_peer_route_not_exported_to_peer(self):
        # 174's peer route to 3356 must not reach its peer 21740
        # (the Figure 2 normal-conditions situation).
        graph = graph_from_edges(
            customer_provider=[],
            peerings=[(174, 3356), (174, 21740)],
        )
        out = normal_conditions(graph, destination=3356)
        assert 174 in out.routes
        assert 21740 not in out.routes  # no route at all

    def test_provider_route_not_exported_to_peer(self):
        # 2 has a provider route to 1; its peer 3 must not learn it.
        graph = graph_from_edges(
            customer_provider=[(2, 1)], peerings=[(2, 3)]
        )
        out = normal_conditions(graph, destination=1)
        assert 3 not in out.routes

    def test_customer_route_exported_everywhere(self):
        # 2 has a customer route to 1; peer 3 and provider 4 learn it.
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 4)], peerings=[(2, 3)]
        )
        out = normal_conditions(graph, destination=1)
        assert out.routes[3].route_class is RouteClass.PEER
        assert out.routes[4].route_class is RouteClass.CUSTOMER

    def test_origin_announces_to_everyone(self):
        graph = graph_from_edges(
            customer_provider=[(1, 2), (3, 1)], peerings=[(1, 4)]
        )
        out = normal_conditions(graph, destination=1)
        assert out.routes[2].route_class is RouteClass.CUSTOMER
        assert out.routes[3].route_class is RouteClass.PROVIDER
        assert out.routes[4].route_class is RouteClass.PEER


class TestLocalPreference:
    def test_customer_beats_shorter_peer_and_provider(self):
        # 5 can reach d=1 via customer chain (len 2), peer (len 1 via
        # peering with 1) is impossible here; construct LP comparison:
        # 5 has customer 2 (route len 2) and provider 3 (route len 1)?
        # build: 1 customer-of 2, 2 customer-of 5 (so 5 has customer
        # route 5-2-1), and 5 customer-of 3 with 1 customer-of 3.
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 5), (5, 3), (1, 3)]
        )
        out = normal_conditions(graph, destination=1)
        assert out.routes[5].route_class is RouteClass.CUSTOMER
        assert out.routes[5].length == 2
        assert out.concrete_path(5) == (5, 2, 1)

    def test_peer_beats_provider(self):
        graph = graph_from_edges(
            customer_provider=[(1, 2), (5, 3), (1, 3)],
            peerings=[(5, 2)],
        )
        out = normal_conditions(graph, destination=1)
        assert out.routes[5].route_class is RouteClass.PEER

    def test_shorter_wins_within_class(self):
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (2, 1)],
        )
        # 5's providers: 2 (reaches d=1 in 1 hop) and 3 (no route).
        out = normal_conditions(graph, destination=1)
        assert out.routes[5].next_hops == (2,)


class TestAttack:
    """d=1 at top of a chain; attacker hangs off a side branch."""

    @pytest.fixture()
    def graph(self):
        #        1 (d)
        #      /   \
        #     2     3
        #     |     |
        #     4     666 (m)
        return graph_from_edges(
            customer_provider=[(2, 1), (3, 1), (4, 2), (666, 3)]
        )

    def test_attacker_path_length_includes_claimed_hop(self, graph):
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        # 3 sees the bogus "m d" as a 2-hop customer route vs its 1-hop
        # provider route to d: customer class wins -> 3 is unhappy.
        assert out.routes[3].route_class is RouteClass.CUSTOMER
        assert out.routes[3].length == 2
        assert out.routes[3].reaches == Reach.ATTACKER

    def test_attacked_concrete_path_ends_at_attacker(self, graph):
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.concrete_path(3) == (3, 666)

    def test_unaffected_branch_stays_happy(self, graph):
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.routes[2].reaches == Reach.DEST
        assert out.routes[4].reaches == Reach.DEST

    def test_counts_split(self, graph):
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.count_happy() == (2, 2)
        assert out.count_attacked() == (1, 1)
        assert out.num_sources == 3

    def test_attacker_does_not_transit_legitimate_routes(self):
        # 5's only physical path to d=1 goes through m: during the
        # attack m never announces a legitimate route, so 5 sees only
        # the bogus announcement.
        graph = graph_from_edges(
            customer_provider=[(666, 1), (5, 666)]
        )
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.routes[5].reaches == Reach.ATTACKER

    def test_validation_errors(self, graph):
        with pytest.raises(ValueError):
            compute_routing_outcome(graph, destination=999)
        with pytest.raises(ValueError):
            compute_routing_outcome(graph, destination=1, attacker=999)
        with pytest.raises(ValueError):
            compute_routing_outcome(graph, destination=1, attacker=1)


class TestTiebreakBounds:
    def test_both_status_on_equal_routes(self):
        # 5 has two equal-length provider routes: one to d (via 2 and 7,
        # 3 hops) and one to m (via 3; the bogus "m d" announcement makes
        # it 3 apparent hops too).
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (1, 7), (7, 2), (666, 3)]
        )
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        info = out.routes[5]
        assert info.reaches == Reach.BOTH
        assert info.next_hops == (2, 3)
        # sources are {2, 3, 5, 7}: 2 and 7 always happy, 3 always
        # unhappy, 5 is on the knife's edge -> bounds differ by one.
        assert out.count_happy() == (2, 3)

    def test_concrete_tiebreak_lowest_next_hop(self):
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (1, 7), (7, 2), (666, 3)]
        )
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.routes[5].choice == 2
        assert out.concrete_endpoint(5) == Reach.DEST

    def test_both_propagates_downstream(self):
        graph = graph_from_edges(
            customer_provider=[(5, 2), (5, 3), (1, 7), (7, 2), (666, 3), (6, 5)]
        )
        out = compute_routing_outcome(graph, destination=1, attacker=666)
        assert out.routes[6].reaches == Reach.BOTH


class TestSecurityPropagation:
    @pytest.fixture()
    def chain(self):
        # 4 -> 3 -> 2 -> 1(d): provider routes all the way up.
        return graph_from_edges(customer_provider=[(2, 1), (3, 2), (4, 3)])

    def test_fully_secure_chain(self, chain):
        deployment = Deployment.of([1, 2, 3, 4])
        out = normal_conditions(chain, 1, deployment, SECURITY_FIRST)
        assert all(out.uses_secure_route(v) for v in (2, 3, 4))

    def test_insecure_middle_breaks_the_chain(self, chain):
        deployment = Deployment.of([1, 2, 4])  # 3 is legacy
        out = normal_conditions(chain, 1, deployment, SECURITY_FIRST)
        assert out.uses_secure_route(2)
        assert not out.uses_secure_route(3)  # not deployed
        assert not out.uses_secure_route(4)  # signature chain broken at 3

    def test_insecure_destination_means_no_secure_routes(self, chain):
        deployment = Deployment.of([2, 3, 4])
        out = normal_conditions(chain, 1, deployment, SECURITY_FIRST)
        assert not any(out.uses_secure_route(v) for v in (2, 3, 4))

    def test_baseline_model_reports_no_secure_routes(self, chain):
        deployment = Deployment.of([1, 2, 3, 4])
        out = normal_conditions(chain, 1, deployment, BASELINE)
        assert not any(out.uses_secure_route(v) for v in (2, 3, 4))

    def test_count_secure_sources(self, chain):
        deployment = Deployment.of([1, 2, 3])
        out = normal_conditions(chain, 1, deployment, SECURITY_SECOND)
        assert out.count_secure_sources() == 2  # ASes 2 and 3


class TestSimplexMode:
    def test_simplex_destination_is_secure_origin(self):
        # stub 4 runs simplex: routes *to* it can be secure.
        graph = graph_from_edges(customer_provider=[(4, 3), (3, 2)])
        deployment = Deployment(full=frozenset({2, 3}), simplex=frozenset({4}))
        out = normal_conditions(graph, 4, deployment, SECURITY_FIRST)
        assert out.uses_secure_route(3)
        assert out.uses_secure_route(2)

    def test_simplex_source_ranks_insecure(self):
        # stub 4 runs simplex: it cannot validate, so its own routes
        # never rank secure.
        graph = graph_from_edges(customer_provider=[(4, 3), (3, 2)])
        deployment = Deployment(full=frozenset({2, 3}), simplex=frozenset({4}))
        out = normal_conditions(graph, 2, deployment, SECURITY_FIRST)
        assert out.uses_secure_route(3)
        assert not out.uses_secure_route(4)


class TestProtocolDowngradeScenario:
    """The Figure 2 story, end to end, on the gadget topology."""

    @pytest.fixture()
    def setup(self):
        from repro.topology.gadgets import figure2_protocol_downgrade

        gadget = figure2_protocol_downgrade()
        return gadget, Deployment.of(gadget.secure)

    def test_normal_conditions_secure_route(self, setup):
        gadget, deployment = setup
        for model in (SECURITY_FIRST, SECURITY_SECOND, SECURITY_THIRD):
            out = normal_conditions(gadget.graph, gadget.destination, deployment, model)
            assert out.uses_secure_route(21740)
            assert out.routes[21740].route_class is RouteClass.PROVIDER

    @pytest.mark.parametrize("model", [SECURITY_SECOND, SECURITY_THIRD])
    def test_downgrade_under_attack(self, setup, model):
        gadget, deployment = setup
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker, deployment, model
        )
        info = out.routes[21740]
        assert info.route_class is RouteClass.PEER
        assert info.length == 4
        assert not info.secure
        assert info.reaches == Reach.ATTACKER

    def test_security_first_resists(self, setup):
        gadget, deployment = setup
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker, deployment,
            SECURITY_FIRST,
        )
        assert out.uses_secure_route(21740)
        assert out.routes[21740].reaches == Reach.DEST


class TestRoutingContext:
    def test_context_reuse_matches_direct(self, small_graph):
        ctx = RoutingContext(small_graph)
        asns = small_graph.asns
        d, m = asns[0], asns[-1]
        via_ctx = compute_routing_outcome(ctx, d, attacker=m)
        direct = compute_routing_outcome(small_graph, d, attacker=m)
        assert via_ctx.count_happy() == direct.count_happy()
        assert {
            a: i.next_hops for a, i in via_ctx.routes.items()
        } == {a: i.next_hops for a, i in direct.routes.items()}

    def test_masks_ignore_members_absent_from_the_graph(self):
        """An ASN the graph lacks marks no AS, wherever it would sort."""
        ctx = RoutingContext(
            graph_from_edges(customer_provider=[(2, 1), (3, 1), (4, 2)])
        )
        absent = Deployment(full=[0, 2, 5, 99], simplex=[3, 7])
        present = Deployment(full=[2], simplex=[3])
        assert ctx.deployment_masks(absent) == ctx.deployment_masks(present)
        assert ctx.deployment_masks(present) == (
            bytearray([0, 1, 1, 0]), bytearray([0, 1, 0, 0])
        )

    def test_one_mask_serves_both_without_simplex_members(self):
        """Signing equals ranking when no simplex member is in the
        graph, and the context keeps that mask once."""
        ctx = RoutingContext(
            graph_from_edges(customer_provider=[(2, 1), (3, 1), (4, 2)])
        )
        signing, ranking = ctx.deployment_masks(Deployment(full=[2], simplex=[7]))
        assert signing is ranking == bytearray([0, 1, 0, 0])

    def test_csr_covers_all_edges(self, small_graph):
        ctx = RoutingContext(small_graph)
        total = len(ctx.graph.adj_node)
        expected = 2 * (
            small_graph.num_customer_provider_links + small_graph.num_peer_links
        )
        assert total == expected


class TestDisconnected:
    def test_unreachable_as_absent_from_routes(self):
        graph = graph_from_edges(customer_provider=[(2, 1)], asns=[9])  # 9 isolated
        out = normal_conditions(graph, 1)
        assert 9 not in out.routes
        assert out.reaches(9) == Reach.NONE
        assert not out.happy_lower(9) and not out.happy_upper(9)
        assert out.concrete_path(9) == ()
