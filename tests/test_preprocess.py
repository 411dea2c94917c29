"""Tests for the Section 2.2 preprocessing pipeline."""

from repro.topology import (
    break_customer_provider_cycles,
    graph_from_edges,
    keep_largest_component,
    preprocess_graph,
    prune_providerless,
)
from repro.topology.graph import ASGraph


class TestPruneProviderless:
    def test_low_degree_providerless_removed(self):
        # 9 has no providers and degree 1: an inference artifact.
        graph = graph_from_edges(customer_provider=[(1, 9), (1, 2), (3, 2)])
        removed = prune_providerless(graph, degree_threshold=2)
        assert 9 in removed
        assert 2 not in removed  # degree 2 keeps it? no providers, degree=2
        assert 9 not in graph

    def test_recursive_removal(self):
        # removing 9 orphans 8 (8's only link is to 9).
        graph = ASGraph()
        graph.add_customer_provider(8, 9)  # 8 buys from 9
        graph.add_customer_provider(1, 8)
        graph.add_customer_provider(1, 2)
        for _ in range(3):  # give 2 enough degree to survive
            pass
        removed = prune_providerless(graph, degree_threshold=3)
        # 9 goes first (providerless, degree 1), then 8 becomes
        # providerless with degree 1, then 2, then 1 stands alone...
        assert 9 in removed and 8 in removed

    def test_keep_set_respected(self):
        graph = graph_from_edges(customer_provider=[(1, 9)])
        removed = prune_providerless(
            graph, keep=frozenset({9}), degree_threshold=5
        )
        assert 9 not in removed
        assert 9 in graph

    def test_high_degree_survives(self):
        c2p = [(i, 99) for i in range(1, 30)]
        graph = graph_from_edges(customer_provider=c2p)
        removed = prune_providerless(graph, degree_threshold=25)
        assert 99 not in removed


class TestLargestComponent:
    def test_smaller_components_dropped(self):
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (7, 8)]
        )
        removed = keep_largest_component(graph)
        assert set(removed) == {7, 8}
        assert set(graph.asns) == {1, 2, 3}
        # several fragments, joined to the core through peers: each
        # smaller one goes, its ASes in sorted order
        graph = graph_from_edges(
            customer_provider=[(1, 2), (3, 2), (9, 8), (20, 21)],
            peerings=[(3, 4), (4, 5), (7, 8), (22, 21)],
        )
        assert keep_largest_component(graph) == [7, 8, 9, 20, 21, 22]
        assert set(graph.asns) == {1, 2, 3, 4, 5}

    def test_single_component_untouched(self):
        graph = graph_from_edges(customer_provider=[(1, 2)])
        assert keep_largest_component(graph) == []


class TestCycleBreaking:
    def test_cycle_removed(self):
        graph = ASGraph()
        graph.add_customer_provider(1, 2)
        graph.add_customer_provider(2, 3)
        graph.add_customer_provider(3, 1)
        removed = break_customer_provider_cycles(graph)
        assert removed == [(1, 2)]
        assert graph.find_customer_provider_cycle() is None
        # two cycles sharing AS 2, each broken at its weakest provider
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2),
                               (6, 3), (7, 3)],
        )
        assert break_customer_provider_cycles(graph) == [(3, 1), (2, 4)]
        graph.validate()

    def test_acyclic_untouched(self):
        graph = graph_from_edges(customer_provider=[(1, 2), (2, 3), (1, 3)])
        assert break_customer_provider_cycles(graph) == []

    def test_weakest_provider_edge_dropped(self):
        graph = ASGraph()
        # cycle 1->2->3->1; AS 3 also has real customers (strong provider),
        # so the edge into the weakest provider should be cut instead.
        graph.add_customer_provider(1, 2)
        graph.add_customer_provider(2, 3)
        graph.add_customer_provider(3, 1)
        for extra in (10, 11, 12):
            graph.add_customer_provider(extra, 3)
        removed = break_customer_provider_cycles(graph)
        assert all(provider != 3 for _, provider in removed)


class TestFullPipeline:
    def test_report_fields(self):
        graph = ASGraph()
        graph.add_customer_provider(1, 2)
        graph.add_customer_provider(2, 3)
        graph.add_customer_provider(3, 1)  # cycle
        graph.add_customer_provider(50, 51)  # small disconnected island
        report = preprocess_graph(graph, degree_threshold=2)
        assert graph.find_customer_provider_cycle() is None
        assert len(graph.connected_components()) <= 1
        assert report.total_removed == len(report.removed_providerless) + len(
            report.removed_disconnected
        )

    def test_synthetic_graph_needs_no_cleanup(self, small_topo):
        graph = small_topo.graph.copy()
        tier1 = frozenset(
            a for a, layer in small_topo.layer_of.items() if layer == "t1"
        )
        report = preprocess_graph(graph, keep=tier1)
        assert report.broken_cycle_edges == []
        assert report.removed_disconnected == []
