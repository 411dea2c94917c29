"""Tests for the perceivable-route closures (Definition B.1)."""

import pytest

from repro.core import RoutingContext, attack_closures, perceivable_closures
from repro.topology import graph_from_edges


@pytest.fixture()
def graph():
    #       4
    #      / \          (arrows: customer -> provider)
    #     2   3
    #    / \   \
    #   1   5   6       peering: 5 -- 6
    g = graph_from_edges(
        customer_provider=[(2, 4), (3, 4), (1, 2), (5, 2), (6, 3)],
        peerings=[(5, 6)],
    )
    return g


class TestCustomerClosure:
    def test_upward_reachability(self, graph):
        reach = perceivable_closures(graph, endpoint=1)
        assert reach.customer == {2, 4}

    def test_endpoint_excluded(self, graph):
        reach = perceivable_closures(graph, endpoint=1)
        assert 1 not in reach.customer
        assert 1 not in reach.any()

    def test_avoid_blocks_traversal(self, graph):
        reach = perceivable_closures(graph, endpoint=1, avoid=2)
        assert reach.customer == frozenset()


class TestPeerClosure:
    def test_one_peering_hop_off_customer_cone(self, graph):
        # 6's peer 5 has a customer route to... nothing below 5; but 5
        # peers with 6 whose customer cone is empty. Use endpoint 1:
        # customer cone of 1 = {2, 4}; peers of cone members: none.
        reach = perceivable_closures(graph, endpoint=1)
        assert reach.peer == frozenset()

    def test_peer_of_endpoint_itself(self, graph):
        reach = perceivable_closures(graph, endpoint=5)
        assert 6 in reach.peer

    def test_peer_route_via_customer_cone(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        reach = perceivable_closures(g, endpoint=1)
        assert reach.peer == {3}


class TestProviderClosure:
    def test_downward_propagation(self, graph):
        reach = perceivable_closures(graph, endpoint=1)
        # everyone below the cone {2,4}: 5 under 2, 3/6 under 4
        # (transitively).  2 itself is included because the closure does
        # not track loop freedom (documented over-approximation).
        assert reach.provider == {2, 3, 5, 6}

    def test_any_union(self, graph):
        reach = perceivable_closures(graph, endpoint=1)
        assert reach.any() == {2, 3, 4, 5, 6}
        assert 5 in reach

    def test_by_class_accessor(self, graph):
        from repro.topology import RouteClass

        reach = perceivable_closures(graph, endpoint=1)
        assert reach.by_class(RouteClass.CUSTOMER) == reach.customer
        assert reach.by_class(RouteClass.PEER) == reach.peer
        assert reach.by_class(RouteClass.PROVIDER) == reach.provider


class TestAttackClosures:
    def test_pair_closures_avoid_each_other(self, graph):
        closures = attack_closures(graph, attacker=6, destination=1)
        assert 6 not in closures.legitimate.any()
        assert 1 not in closures.attacked.any()

    def test_attacked_closure_roots_at_attacker(self, graph):
        closures = attack_closures(graph, attacker=6, destination=1)
        # 6's providers: 3, then 4: customer closure of the bogus route.
        assert closures.attacked.customer == {3, 4}
        # 5 peers with 6 directly.
        assert 5 in closures.attacked.peer

    def test_context_reuse(self, graph):
        ctx = RoutingContext(graph)
        a = perceivable_closures(ctx, endpoint=1)
        b = perceivable_closures(graph, endpoint=1)
        assert a == b

    def test_unknown_endpoint(self, graph):
        with pytest.raises(ValueError):
            perceivable_closures(graph, endpoint=404)


class TestConsistencyWithRouting:
    def test_fixed_routes_lie_inside_closures(self, small_ctx):
        """Any route the engine fixes must be perceivable (sound closure)."""
        from repro.core import compute_routing_outcome

        asns = small_ctx.graph.asns
        destination, attacker = asns[3], asns[-3]
        closures = attack_closures(small_ctx, attacker, destination)
        out = compute_routing_outcome(small_ctx, destination, attacker=attacker)
        from repro.core import Reach

        for asn, info in out.routes.items():
            if asn in (destination, attacker) or info.route_class is None:
                continue
            if info.reaches == Reach.DEST:
                assert asn in closures.legitimate.by_class(info.route_class)
            elif info.reaches == Reach.ATTACKER:
                assert asn in closures.attacked.by_class(info.route_class)
