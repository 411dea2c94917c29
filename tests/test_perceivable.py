"""Tests for the perceivable-route closure (Definition B.1)."""

import numpy as np
import pytest

from repro.core import RoutingContext, perceivable_closure
from repro.topology import RouteClass, graph_from_edges

D, M = 1, 2  # reach bits: a route to d, a route to m


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


def members(graph, closure, route_class, bit) -> set[int]:
    """The ASes with a route of ``route_class`` whose reach has ``bit``."""
    return set(graph.asn_of[(closure.reach[route_class] & bit) > 0].tolist())


class TestCustomerClosure:
    def test_upward_reachability(self, graph):
        closure = perceivable_closure(graph, attacker=6, destination=1)
        assert members(graph, closure, RouteClass.CUSTOMER, D) == {2, 4}

    def test_endpoint_excluded(self, graph):
        closure = perceivable_closure(graph, attacker=6, destination=1)
        for root in (1, 6):
            assert not closure.reach[:, graph.index(root)].any()

    def test_avoid_blocks_traversal(self, graph):
        # the attacker 2 drops the legitimate route of its customer 1
        closure = perceivable_closure(graph, attacker=2, destination=1)
        assert members(graph, closure, RouteClass.CUSTOMER, D) == set()


class TestPeerClosure:
    def test_one_peering_hop_off_customer_cone(self, graph):
        # d's customer cone {2, 4} has no peer: nobody has a peer route
        # to d (5 has one to m = 6, which peers with it).
        closure = perceivable_closure(graph, attacker=6, destination=1)
        assert members(graph, closure, RouteClass.PEER, D) == set()
        assert members(graph, closure, RouteClass.PEER, M) == {5}

    def test_peer_of_endpoint_itself(self, graph):
        closure = perceivable_closure(graph, attacker=1, destination=5)
        assert 6 in members(graph, closure, RouteClass.PEER, D)

    def test_peer_route_via_customer_cone(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (9, 3)], peerings=[(2, 3)]
        )
        closure = perceivable_closure(g, attacker=9, destination=1)
        assert members(g, closure, RouteClass.PEER, D) == {3}
        assert members(g, closure, RouteClass.PEER, M) == {2}


class TestProviderClosure:
    def test_downward_propagation(self, graph):
        closure = perceivable_closure(graph, attacker=5, destination=1)
        # everyone below d's customer cone {2, 4}: 3 and 6 under 4.  2
        # itself is included because a class row does not track loop
        # freedom (documented over-approximation).
        assert members(graph, closure, RouteClass.PROVIDER, D) == {2, 3, 6}

    def test_any_union(self, graph):
        closure = perceivable_closure(graph, attacker=5, destination=1)
        reach = np.bitwise_or.reduce(closure.reach)
        assert set(graph.asn_of[(reach & D) > 0].tolist()) == {2, 3, 4, 6}
        assert set(graph.asn_of[(reach & M) > 0].tolist()) == {2, 3, 4, 6}

    def test_by_class_accessor(self, graph):
        """One row per route class, in ``RouteClass`` order."""
        closure = perceivable_closure(graph, attacker=6, destination=1)
        assert closure.reach.shape == (3, len(graph))
        assert closure.reach[RouteClass.CUSTOMER, graph.index(2)] == D
        assert closure.reach[RouteClass.PEER, graph.index(5)] == M
        assert closure.reach[RouteClass.PROVIDER, graph.index(5)] == D | M
        assert closure.safe is None


class TestAttackClosures:
    def test_pair_closures_avoid_each_other(self, graph):
        # 1's only route out runs through the attacker 2, which drops
        # it: nobody hears of d.
        closure = perceivable_closure(graph, attacker=2, destination=1)
        assert not (closure.reach & D).any()
        # and d never forwards the bogus route
        closure = perceivable_closure(graph, attacker=1, destination=2)
        assert not (closure.reach & M).any()

    def test_attacked_closure_roots_at_attacker(self, graph):
        closure = perceivable_closure(graph, attacker=6, destination=1)
        # 6's providers: 3, then 4: customer closure of the bogus route.
        assert members(graph, closure, RouteClass.CUSTOMER, M) == {3, 4}
        # 5 peers with 6 directly.
        assert 5 in members(graph, closure, RouteClass.PEER, M)

    def test_context_reuse(self, graph):
        ctx = RoutingContext(graph)
        a = perceivable_closure(ctx, attacker=6, destination=1)
        b = perceivable_closure(graph, attacker=6, destination=1)
        assert np.array_equal(a.reach, b.reach)
        assert ctx._walk is not None
        c = perceivable_closure(ctx, attacker=6, destination=1)
        assert np.array_equal(a.reach, c.reach)

    def test_unknown_endpoint(self, graph):
        with pytest.raises(ValueError):
            perceivable_closure(graph, attacker=6, destination=404)


class TestConsistencyWithRouting:
    def test_fixed_routes_lie_inside_closures(self, small_ctx):
        """Any route the engine fixes must be perceivable (sound closure),
        and with the ``S = ∅`` classes each AS sits in one row only."""
        from repro.core import Reach, compute_routing_outcome

        asns = small_ctx.graph.asns
        destination, attacker = asns[3], asns[-3]
        closure = perceivable_closure(small_ctx, attacker, destination)
        out = compute_routing_outcome(small_ctx, destination, attacker=attacker)
        route_class = np.full(small_ctx.n, 3)
        for asn, info in out.routes.items():
            if asn in (destination, attacker) or info.route_class is None:
                continue
            route_class[small_ctx.graph.index(asn)] = info.route_class
            column = closure.reach[info.route_class, small_ctx.graph.index(asn)]
            if info.reaches == Reach.DEST:
                assert column & D, asn
            elif info.reaches == Reach.ATTACKER:
                assert column & M, asn
        filtered = perceivable_closure(small_ctx, attacker, destination, route_class)
        assert ((filtered.reach > 0).sum(axis=0) <= 1).all()
        assert not (filtered.reach & ~closure.reach).any()
