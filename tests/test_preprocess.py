"""Tests for the Section 2.2 preprocessing pipeline."""

import pytest

from repro.topology import (
    break_customer_provider_cycles,
    graph_from_edges,
    keep_largest_component,
    preprocess_graph,
    prune_providerless,
)


class TestPruneProviderless:
    def test_low_degree_providerless_removed(self):
        # 9 has no providers and degree 1: an inference artifact.
        graph = graph_from_edges(customer_provider=[(1, 9), (1, 2), (3, 2)])
        pruned, removed = prune_providerless(graph, degree_threshold=2)
        assert 9 in removed
        assert 2 not in removed  # no providers, but degree 2 keeps it
        assert 9 not in pruned
        assert 9 in graph  # the input graph is left as it was

    def test_recursive_removal(self):
        # removing 9 orphans 8 (8's only link is to 9).
        graph = graph_from_edges(customer_provider=[(8, 9), (1, 8), (1, 2)])
        pruned, removed = prune_providerless(graph, degree_threshold=3)
        # 9 and 2 go first (providerless, degree 1), then 8 becomes
        # providerless with degree 1, then 1 stands alone...
        assert removed == [2, 9, 8, 1]
        assert len(pruned) == 0

    def test_keep_set_respected(self):
        graph = graph_from_edges(customer_provider=[(1, 9)])
        pruned, removed = prune_providerless(
            graph, keep=frozenset({9}), degree_threshold=5
        )
        assert 9 not in removed
        assert 9 in pruned

    def test_high_degree_survives(self):
        c2p = [(i, 99) for i in range(1, 30)]
        graph = graph_from_edges(customer_provider=c2p)
        _, removed = prune_providerless(graph, degree_threshold=25)
        assert 99 not in removed


class TestLargestComponent:
    def test_smaller_components_dropped(self):
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (7, 8)]
        )
        kept, removed = keep_largest_component(graph)
        assert set(removed) == {7, 8}
        assert set(kept.asns) == {1, 2, 3}
        # several fragments, joined to the core through peers: each
        # smaller one goes, its ASes in sorted order
        graph = graph_from_edges(
            customer_provider=[(1, 2), (3, 2), (9, 8), (20, 21)],
            peerings=[(3, 4), (4, 5), (7, 8), (22, 21)],
        )
        kept, removed = keep_largest_component(graph)
        assert removed == [7, 8, 9, 20, 21, 22]
        assert set(kept.asns) == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize(
        "edges", [[(1, 2), (3, 4)], [(3, 4), (1, 2)]], ids=["low-first", "high-first"]
    )
    def test_tie_keeps_the_lowest_asn(self, edges):
        """Two largest components tie: the one holding the lowest ASN
        stays, whichever edge came first."""
        kept, removed = keep_largest_component(graph_from_edges(edges))
        assert kept.asns == [1, 2] and removed == [3, 4]

    def test_single_component_untouched(self):
        graph = graph_from_edges(customer_provider=[(1, 2)])
        assert keep_largest_component(graph) == (graph, [])


class TestCycleBreaking:
    def test_cycle_removed(self):
        graph = graph_from_edges(customer_provider=[(1, 2), (2, 3), (3, 1)])
        acyclic, removed = break_customer_provider_cycles(graph)
        assert removed == [(1, 2)]
        assert acyclic.find_customer_provider_cycle() is None
        assert graph.find_customer_provider_cycle() == [1, 2, 3]
        # two cycles sharing AS 2, each broken at its weakest provider
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (3, 1), (2, 4), (4, 5), (5, 2),
                               (6, 3), (7, 3)],
        )
        acyclic, removed = break_customer_provider_cycles(graph)
        assert removed == [(3, 1), (2, 4)]
        acyclic.validate()

    def test_acyclic_untouched(self):
        graph = graph_from_edges(customer_provider=[(1, 2), (2, 3), (1, 3)])
        assert break_customer_provider_cycles(graph) == (graph, [])

    def test_weakest_provider_edge_dropped(self):
        # cycle 1->2->3->1; AS 3 also has real customers (strong provider),
        # so the edge into the weakest provider should be cut instead.
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (3, 1), (10, 3), (11, 3), (12, 3)]
        )
        _, removed = break_customer_provider_cycles(graph)
        assert all(provider != 3 for _, provider in removed)


class TestFullPipeline:
    def test_report_fields(self):
        graph = graph_from_edges(
            customer_provider=[(1, 2), (2, 3), (3, 1), (50, 51)]  # a cycle, an island
        )
        cleaned, report = preprocess_graph(graph, degree_threshold=2)
        assert cleaned.find_customer_provider_cycle() is None
        assert len(cleaned.connected_components()) <= 1
        assert report.total_removed == len(report.removed_providerless) + len(
            report.removed_disconnected
        )

    def test_synthetic_graph_needs_no_cleanup(self, small_topo):
        tier1 = frozenset(small_topo.layers["t1"].tolist())
        cleaned, report = preprocess_graph(small_topo.graph, keep=tier1)
        assert report.broken_cycle_edges == []
        assert report.removed_disconnected == []
        assert report.removed_providerless == []
        assert list(cleaned.edges()) == list(small_topo.graph.edges())
