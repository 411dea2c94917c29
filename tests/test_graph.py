"""Unit tests for the ASGraph substrate."""

import itertools

import pytest

from repro.topology import ASGraph, Relationship, TopologyError, graph_from_edges
from repro.topology.graph import _NO_NEIGHBORS


class TestConstruction:
    def test_add_as_idempotent(self):
        g = ASGraph()
        g.add_as(1)
        g.add_as(1)
        assert len(g) == 1

    def test_rejects_negative_asn(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.add_as(-5)

    def test_rejects_non_int_asn(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.add_as("AS13")  # type: ignore[arg-type]

    def test_customer_provider_edge(self):
        g = ASGraph()
        g.add_customer_provider(customer=10, provider=20)
        assert g.providers(10) == {20}
        assert g.customers(20) == {10}
        assert g.peers(10) == frozenset()

    def test_peering_edge_symmetric(self):
        g = ASGraph()
        g.add_peering(1, 2)
        assert g.peers(1) == {2}
        assert g.peers(2) == {1}

    def test_rejects_self_loop(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.add_customer_provider(3, 3)
        with pytest.raises(TopologyError):
            g.add_peering(4, 4)

    def test_rejects_duplicate_edge_any_annotation(self):
        """Whichever edge came first, a second between the same two ASes
        raises and leaves both ASes' neighbour maps as they were, the
        shared empty set still shared."""
        adds = {
            "c2p": lambda g: g.add_customer_provider(1, 2),
            "reverse c2p": lambda g: g.add_customer_provider(2, 1),
            "p2p": lambda g: g.add_peering(1, 2),
            "reverse p2p": lambda g: g.add_peering(2, 1),
        }
        for (first, add_first), (second, add_second) in itertools.product(
            adds.items(), repeat=2
        ):
            g = ASGraph()
            add_first(g)
            before = [(table[1], table[2]) for table in g.adjacency()]
            contents = [(set(a), set(b)) for a, b in before]
            with pytest.raises(TopologyError):
                add_second(g)
            after = [(table[1], table[2]) for table in g.adjacency()]
            for old, new in zip(before, after):
                assert all(o is n for o, n in zip(old, new)), (first, second)
            assert [(set(a), set(b)) for a, b in after] == contents
            empty = [nbrs for pair in after for nbrs in pair if not nbrs]
            assert len(empty) == 4 and all(e is _NO_NEIGHBORS for e in empty)

    def test_graph_from_edges(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        assert set(g.asns) == {1, 2, 3}
        assert g.relationship(1, 2) is Relationship.PROVIDER
        assert g.relationship(2, 3) is Relationship.PEER


class TestAccessors:
    def test_relationship_views(self):
        g = graph_from_edges(customer_provider=[(1, 2)], peerings=[(1, 3)])
        assert g.relationship(2, 1) is Relationship.CUSTOMER
        assert g.relationship(1, 2) is Relationship.PROVIDER
        assert g.relationship(1, 3) is Relationship.PEER
        assert g.relationship(3, 1) is Relationship.PEER

    def test_relationship_unknown_neighbor(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        with pytest.raises(TopologyError):
            g.relationship(1, 99)

    def test_neighbors_union(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 1)], peerings=[(1, 4)]
        )
        assert g.neighbors(1) == {2, 3, 4}

    def test_degrees(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 1)], peerings=[(1, 4)]
        )
        assert g.provider_degree(1) == 1
        assert g.customer_degree(1) == 1
        assert g.peer_degree(1) == 1
        assert g.degree(1) == 3

    def test_is_stub(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        assert g.is_stub(1)
        assert not g.is_stub(2)

    def test_edge_counts(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 2)], peerings=[(1, 3)]
        )
        assert g.num_customer_provider_links == 2
        assert g.num_peer_links == 1

    def test_contains_and_iter(self):
        g = graph_from_edges(customer_provider=[(5, 6)])
        assert 5 in g and 6 in g and 7 not in g
        assert sorted(g) == [5, 6]

    def test_asns_sorted(self):
        g = graph_from_edges(customer_provider=[(9, 2), (5, 9)])
        assert g.asns == [2, 5, 9]

    def test_edges_iteration(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        edges = list(g.edges())
        assert (1, 2, Relationship.PROVIDER) in edges
        assert (2, 3, Relationship.PEER) in edges
        assert len(edges) == 2

    def test_has_edge(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert not g.has_edge(1, 99)

    def test_repr(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        assert "|V|=2" in repr(g)


class TestMutation:
    def test_remove_edge_each_annotation(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        g.remove_edge(3, 2)
        assert not g.has_edge(2, 3)

    def test_remove_missing_edge(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        with pytest.raises(TopologyError):
            g.remove_edge(1, 99)

    def test_remove_as(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 1)], peerings=[(1, 4)]
        )
        g.remove_as(1)
        assert 1 not in g
        assert g.providers(3) == frozenset()
        assert g.peers(4) == frozenset()

    def test_remove_missing_as(self):
        g = ASGraph()
        with pytest.raises(TopologyError):
            g.remove_as(1)

    def test_copy_is_deep(self):
        g = graph_from_edges(customer_provider=[(1, 2)], peerings=[(2, 3)])
        h = g.copy()
        h.remove_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not h.has_edge(1, 2)


class TestStructure:
    def test_connected_components(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 4)], peerings=[(5, 6)]
        )
        components = g.connected_components()
        assert sorted(len(c) for c in components) == [2, 2, 2]
        # equal sizes keep discovery order (insertion order of the ASes)
        assert components == [{1, 2}, {3, 4}, {5, 6}]

    def test_largest_component_first(self):
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (4, 5)])
        components = g.connected_components()
        assert components[0] == {1, 2, 3}
        # a component reached through every relationship, several hops deep
        g = graph_from_edges(
            customer_provider=[(8, 9), (1, 2), (3, 2), (4, 3), (20, 21)],
            peerings=[(4, 5), (6, 1), (7, 6), (22, 23)],
        )
        g.add_as(30)
        assert g.connected_components() == [
            {1, 2, 3, 4, 5, 6, 7}, {8, 9}, {20, 21}, {22, 23}, {30}
        ]

    def test_cycle_detection_none(self):
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (1, 3)])
        assert g.find_customer_provider_cycle() is None

    def test_cycle_detection_found(self):
        g = ASGraph()
        # 1 buys from 2, 2 from 3, 3 from 1: everyone their own provider.
        g.add_customer_provider(1, 2)
        g.add_customer_provider(2, 3)
        g.add_customer_provider(3, 1)
        cycle = g.find_customer_provider_cycle()
        assert cycle is not None
        assert set(cycle) == {1, 2, 3}

    def test_validate_passes_on_dag(self):
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3)])
        g.validate()
        # diamonds and shared providers are not cycles
        graph_from_edges(
            customer_provider=[(1, 2), (1, 3), (2, 4), (3, 4), (5, 4), (4, 6)],
            peerings=[(2, 3), (6, 7)],
        ).validate()

    def test_validate_rejects_cycle(self):
        g = ASGraph()
        g.add_customer_provider(1, 2)
        g.add_customer_provider(2, 1 + 2)  # 2 -> 3
        g.add_customer_provider(3, 1)
        with pytest.raises(TopologyError, match=r"cycle: \[1, 2, 3\]"):
            g.validate()
        # the cycle sits between a customer fringe and a provider above
        # it; the error names the cycle the DFS finds
        g = graph_from_edges(
            customer_provider=[
                (10, 11), (11, 12), (12, 13), (13, 11), (13, 14), (15, 12),
            ],
            peerings=[(10, 14)],
        )
        assert g.find_customer_provider_cycle() == [11, 12, 13]
        with pytest.raises(TopologyError, match=r"cycle: \[11, 12, 13\]"):
            g.validate()

    def test_peering_does_not_create_cycle(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(1, 3), (2, 3)]
        )
        assert g.find_customer_provider_cycle() is None


class TestSharedEmptyNeighborSet:
    """An AS with no neighbors of a kind points at one shared empty
    ``frozenset``; its first edge of that kind gives it a set of its own,
    and no graph operation ever mutates the shared one."""

    @staticmethod
    def _check(g, removed=False):
        """Every AS keys all three maps, and an empty neighbor set is
        the shared one (or, once an edge was removed, a set of its own)."""
        maps = g.adjacency()
        for s in (s for m in maps for s in m.values() if not s):
            assert s is _NO_NEIGHBORS or (removed and type(s) is set)
        assert _NO_NEIGHBORS == frozenset()
        for m in maps:
            assert set(m) == set(g)
        g.validate()

    def test_generated_graph_shares_one_empty_set(self):
        from repro.topology import TopologyParams, generate_topology

        g = generate_topology(TopologyParams(n=2200, seed=2013)).graph
        providers, customers, peers = g.adjacency()
        stubs = [a for a in g if not customers[a]]
        assert len(stubs) > 1000
        assert all(customers[a] is _NO_NEIGHBORS for a in stubs)
        self._check(g)

    def test_mutations_never_touch_the_shared_set(self):
        g = graph_from_edges(
            customer_provider=[(1, 2), (3, 2), (4, 3)], peerings=[(1, 3)]
        )
        g.add_as(9)
        self._check(g)
        assert g.customers(1) is _NO_NEIGHBORS
        h = g.copy()
        self._check(h)
        h.add_customer_provider(9, 1)  # 1's first customer
        h.add_peering(9, 4)
        assert not g.customers(1) and not g.peers(9)
        self._check(h)
        h.remove_edge(1, 3)
        h.remove_as(3)
        self._check(h, removed=True)
        h.add_peering(1, 4)  # 1's emptied peer set takes an edge again
        self._check(h, removed=True)
        self._check(g)

    def test_ixp_and_serial2_round_trip(self):
        from repro.topology import TopologyParams, generate_topology
        from repro.topology.ixp import augment_with_ixp_peering
        from repro.topology.serial2 import dumps_serial2, parse_serial2

        topo = generate_topology(TopologyParams(n=300, seed=7))
        augmented = augment_with_ixp_peering(topo.graph, topo.ixp_members).graph
        self._check(augmented)
        self._check(topo.graph)
        text = dumps_serial2(augmented)
        back = parse_serial2(text.splitlines())
        self._check(back)
        assert dumps_serial2(back) == text

    def test_stray_update_of_an_empty_set_raises(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        _providers, customers, _peers = g.adjacency()
        with pytest.raises(AttributeError):
            customers[1].add(5)
        assert g.customers(1) == frozenset()
