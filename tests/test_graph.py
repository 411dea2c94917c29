"""Unit tests for the ASGraph substrate."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.topology import (
    ASGraph,
    Relationship,
    TopologyError,
    TopologyParams,
    generate_topology,
    graph_from_edges,
)
from repro.topology.graph import _ARRAYS


class TestConstruction:
    def test_customer_provider_edge(self):
        g = graph_from_edges(customer_provider=[(10, 20)])
        assert g.providers(10) == {20}
        assert g.customers(20) == {10}
        assert g.peers(10) == frozenset()

    def test_dense_and_sparse_asns_build_the_same_rows(self):
        """Dense indices are ranks: ASNs spread far apart give the same
        rows as consecutive ones."""
        c2p, p2p = [(2, 1), (3, 1), (4, 2), (5, 3)], [(2, 3), (4, 5)]
        dense = graph_from_edges(c2p, p2p, asns=[9])
        far = 10**6
        sparse = graph_from_edges(
            [(a * far, b * far) for a, b in c2p],
            [(a * far, b * far) for a, b in p2p],
            asns=[9 * far],
        )
        assert sparse.asn_of.tolist() == [a * far for a in dense.asn_of.tolist()]
        for name in _ARRAYS[1:]:
            assert np.array_equal(getattr(dense, name), getattr(sparse, name)), name

    def test_peering_edge_symmetric(self):
        g = graph_from_edges(peerings=[(1, 2)])
        assert g.peers(1) == {2}
        assert g.peers(2) == {1}

    def test_graph_from_edges(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        assert set(g.asns) == {1, 2, 3}
        assert g.relationship(1, 2) is Relationship.PROVIDER
        assert g.relationship(2, 3) is Relationship.PEER

    def test_ases_without_edges(self):
        g = graph_from_edges(customer_provider=[(1, 2)], asns=[7, 2, 7])
        assert g.asns == [1, 2, 7]
        assert g.degree(7) == 0 and g.neighbors(7) == frozenset()
        assert len(graph_from_edges(asns=[5])) == 1
        assert len(graph_from_edges()) == 0

    @pytest.mark.parametrize("big", [2**32 - 1, 2**32, 2**62])
    def test_asns_of_any_width(self, big):
        """ASNs sort as int64 whether or not they fit 32 bits."""
        g = graph_from_edges(
            customer_provider=[(big, 7)], peerings=[(big - 1, 7)], asns=[big - 2]
        )
        assert g.asn_of.dtype == np.int64
        assert g.asns == [7, big - 2, big - 1, big]
        assert g.customers(7) == {big} and g.peers(big - 1) == {7}

    def test_ases_without_edges_below_between_and_above(self):
        """Lone ASNs sort in among the edges' endpoints; the rows come
        out as if written by hand (providers, peers, customers)."""
        g = graph_from_edges(
            customer_provider=[(10, 20), (30, 20)],
            peerings=[(10, 30)],
            asns=[40, 15, 5, 20, 15],
        )
        assert g.asn_of.tolist() == [5, 10, 15, 20, 30, 40]
        assert g.adj_start.tolist() == [0, 0, 2, 2, 4, 6, 6]
        assert g.peer_start.tolist() == [0, 1, 2, 2, 5, 6]
        assert g.cust_start.tolist() == [0, 2, 2, 2, 6, 6]
        assert g.adj_node.tolist() == [3, 4, 1, 4, 3, 1]
        assert g.adj_class.tolist() == [0, 1, 2, 2, 0, 1]

    @pytest.mark.parametrize(
        "c2p, p2p, pair",
        [
            ([(3, 3)], [], "3-3"),
            ([], [(4, 4)], "4-4"),
            ([(1, 2), (1, 2)], [], "1-2"),
            ([(1, 2), (2, 1)], [], "2-1"),
            ([], [(1, 2), (1, 2)], "1-2"),
            ([], [(1, 2), (2, 1)], "2-1"),
            ([(1, 2)], [(1, 2)], "1-2"),
            ([(1, 2)], [(2, 1)], "2-1"),
            ([(5, 6), (1, -2)], [], "(1, -2)"),
            ([], [(-5, 6)], "(-5, 6)"),
            ([(1, "AS13")], [], "(1, 'AS13')"),
            ([(1, 2.5)], [], "(1, 2.5)"),
        ],
        ids=[
            "self-loop c2p", "self-loop p2p", "duplicate c2p", "reverse c2p",
            "duplicate p2p", "reverse p2p", "c2p and p2p", "c2p and reverse p2p",
            "negative", "negative p2p", "non-int", "float",
        ],
    )
    def test_rejects_naming_the_pair(self, c2p, p2p, pair):
        with pytest.raises(TopologyError) as err:
            graph_from_edges(customer_provider=c2p, peerings=p2p)
        assert pair in str(err.value)

    def test_rejects_a_bad_lone_asn(self):
        for asn in (-5, "AS13"):
            with pytest.raises(TopologyError, match="non-negative int"):
                graph_from_edges(asns=[asn])

    def test_edge_lists_round_trip(self):
        g = graph_from_edges(
            customer_provider=[(9, 2), (5, 9), (7, 2)], peerings=[(7, 5), (2, 5)],
            asns=[11],
        )
        c2p, p2p = g.edge_lists()
        assert c2p.tolist() == [[5, 9], [7, 2], [9, 2]]
        assert p2p.tolist() == [[2, 5], [5, 7]]
        h = graph_from_edges(c2p, p2p, g.asn_of)
        assert list(h.edges()) == list(g.edges()) and h.asns == g.asns


class TestFrozen:
    """Built once; no mutator exists and the arrays refuse writes."""

    def test_no_mutators(self):
        for name in (
            "add_as", "add_customer_provider", "add_peering", "remove_edge",
            "remove_as", "copy", "adjacency",
        ):
            assert not hasattr(ASGraph, name), name

    def test_arrays_are_read_only(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        for name in (
            "asn_of", "adj_start", "peer_start", "cust_start", "adj_node", "adj_class",
        ):
            with pytest.raises(ValueError):
                getattr(g, name)[0] = 0

    def test_rows_are_providers_peers_customers(self):
        g = graph_from_edges(
            customer_provider=[(2, 1), (3, 2), (4, 2), (2, 5)], peerings=[(2, 6)]
        )
        u = g.index(2)
        start, end = g.adj_start[u], g.adj_start[u + 1]
        assert g.asn_of[g.adj_node[start:end]].tolist() == [1, 5, 6, 3, 4]
        assert g.adj_class[start:end].tolist() == [0, 0, 1, 2, 2]
        assert (g.peer_start[u], g.cust_start[u]) == (start + 2, start + 3)

    def test_retained_size_of_a_generated_graph(self):
        """A generated graph keeps arrays (its CSR and one ASN array a
        generator layer), not a python container per AS: 0.22 MB at
        2 200 ASes, where an ASN → index dict and an ASN → layer dict
        beside them kept 0.53 MB and a set graph 1.53 MB.  Traced, the
        generation takes about 0.2 s on a 2-vCPU VM (about 1 s with a
        weight list per layer)."""
        generate_topology(TopologyParams(n=60, seed=1))  # lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            topo = generate_topology(TopologyParams(n=2200))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(topo.graph) == 2200
        assert retained < 0.25e6

    def test_peak_size_of_generating_a_graph(self):
        """The generator's draws keep one edge set (of the pairs a later
        draw can ask about), flat edge lists and a weight tree per
        transit layer, not a python container per AS, and drop them as
        the graph is built: a 0.59 MB traced peak at 2 200 ASes, where
        every stub edge in the set, the weights kept through the build
        and ``np.unique``'s inverse peaked at 1.10 MB, and per-AS
        neighbour sets at 1.56 MB."""
        generate_topology(TopologyParams(n=60, seed=1))  # lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            generate_topology(TopologyParams(n=2200))
            _retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.65e6

    #: ``graph_from_edges``' peak over the bytes of the arrays it keeps:
    #: 1.87 at 20 000 ASes.  One more int64 temporary of a slot each (as
    #: ``adj_node``) adds ≈ 0.56.
    PEAK_PER_KEPT_BYTE = 2.0

    def test_peak_of_building_a_graph_is_a_pinned_multiple_of_what_it_keeps(self):
        """tracemalloc's byte counts are the same on every run, so one
        run shows a build that allocates more."""
        graph = generate_topology(TopologyParams(n=20_000, seed=2013)).graph
        c2p, p2p = graph.edge_lists()
        tracemalloc.start()
        try:
            built = graph_from_edges(c2p, p2p)
            _retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(getattr(built, name).nbytes for name in _ARRAYS)
        assert peak <= self.PEAK_PER_KEPT_BYTE * kept, peak / kept


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
        with pytest.raises(TopologyError):
            g.relationship(2, 2)

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
        assert [g.index(a) for a in (2, 5, 9, 1, 7, 10)] == [0, 1, 2, -1, -1, -1]
        assert g.indices([9, 1, 2, 10, 5]).tolist() == [2, -1, 0, -1, 1]

    def test_edges_iteration(self):
        g = graph_from_edges(
            customer_provider=[(1, 2)], peerings=[(2, 3)]
        )
        edges = list(g.edges())
        assert (1, 2, Relationship.PROVIDER) in edges
        assert (2, 3, Relationship.PEER) in edges
        assert len(edges) == 2

    def test_has_edge(self):
        g = graph_from_edges(customer_provider=[(1, 2)], peerings=[(2, 3)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.has_edge(3, 2) and not g.has_edge(1, 3)
        assert not g.has_edge(1, 99) and not g.has_edge(99, 1)

    def test_repr(self):
        g = graph_from_edges(customer_provider=[(1, 2)])
        assert "|V|=2" in repr(g)

    def test_reads_match_a_set_model(self):
        """Every read of a generated graph agrees with neighbour sets
        built straight from its edge lists."""
        g = generate_topology(TopologyParams(n=300, seed=7)).graph
        model = {asn: {"providers": set(), "customers": set(), "peers": set()}
                 for asn in g}
        c2p, p2p = g.edge_lists()
        for c, p in c2p.tolist():
            model[c]["providers"].add(p)
            model[p]["customers"].add(c)
        for a, b in p2p.tolist():
            model[a]["peers"].add(b)
            model[b]["peers"].add(a)
        for asn, sets in model.items():
            for kind, want in sets.items():
                assert getattr(g, kind)(asn) == want, (asn, kind)
            assert g.customer_degree(asn) == len(sets["customers"])
            assert g.is_stub(asn) == (not sets["customers"])
            for nbr in g.neighbors(asn):
                kind = {
                    Relationship.PROVIDER: "providers",
                    Relationship.CUSTOMER: "customers",
                    Relationship.PEER: "peers",
                }[g.relationship(asn, nbr)]
                assert nbr in sets[kind]


class TestStructure:
    def test_connected_components(self):
        g = graph_from_edges(
            customer_provider=[(3, 4), (1, 2)], peerings=[(5, 6)]
        )
        components = g.connected_components()
        # equal sizes in order of their lowest ASN
        assert components == [{1, 2}, {3, 4}, {5, 6}]
        assert g.component_count() == 3

    @pytest.mark.parametrize(
        "edges", [[(1, 2), (3, 4)], [(3, 4), (1, 2)]], ids=["low-first", "high-first"]
    )
    def test_component_tie_goes_to_the_lowest_asn(self, edges):
        assert graph_from_edges(edges).connected_components() == [{1, 2}, {3, 4}]

    def test_largest_component_first(self):
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (4, 5)])
        components = g.connected_components()
        assert components[0] == {1, 2, 3}
        # a component reached through every relationship, several hops deep
        g = graph_from_edges(
            customer_provider=[(8, 9), (1, 2), (3, 2), (4, 3), (20, 21)],
            peerings=[(4, 5), (6, 1), (7, 6), (22, 23)],
            asns=[30],
        )
        assert g.connected_components() == [
            {1, 2, 3, 4, 5, 6, 7}, {8, 9}, {20, 21}, {22, 23}, {30}
        ]
        assert g.component_count() == 5  # the lone AS 30 is one

    def test_long_path_is_one_component(self):
        path = [(i, i + 1) for i in range(1, 200)]
        components = graph_from_edges(peerings=path[::-1]).connected_components()
        assert components == [set(range(1, 201))]

    def test_cycle_detection_none(self):
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (1, 3)])
        assert g.find_customer_provider_cycle() is None

    def test_cycle_detection_found(self):
        # 1 buys from 2, 2 from 3, 3 from 1: everyone their own provider.
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (3, 1)])
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
        g = graph_from_edges(customer_provider=[(1, 2), (2, 3), (3, 1)])
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

    def test_ixp_and_serial2_round_trip(self):
        from repro.topology.ixp import augment_with_ixp_peering
        from repro.topology.serial2 import dumps_serial2, parse_serial2

        topo = generate_topology(TopologyParams(n=300, seed=7))
        augmented = augment_with_ixp_peering(topo.graph, topo.ixp_members).graph
        augmented.validate()
        text = dumps_serial2(augmented)
        back = parse_serial2(text.splitlines())
        assert dumps_serial2(back) == text
        assert np.array_equal(back.adj_node, augmented.adj_node)
