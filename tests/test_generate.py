"""Tests for the synthetic topology generator."""

import hashlib

import pytest

from repro.topology import (
    PAPER_CONTENT_PROVIDERS,
    Tier,
    TopologyParams,
    classify_tiers,
    generate_topology,
)
from repro.topology.generate import FAST_ATTACHMENT_MIN_N
from repro.topology.serial2 import dumps_serial2


class TestStructuralInvariants:
    def test_validates_and_connected(self, small_topo):
        graph = small_topo.graph
        graph.validate()
        assert len(graph.connected_components()) == 1

    def test_requested_size(self, small_topo):
        assert len(small_topo.graph) == small_topo.params.n

    def test_tier1_clique_providerless(self, small_topo):
        graph = small_topo.graph
        tier1 = [a for a, layer in small_topo.layer_of.items() if layer == "t1"]
        assert len(tier1) == small_topo.params.tier1_count
        for a in tier1:
            assert not graph.providers(a)
            assert graph.customers(a), "every Tier 1 must have a customer"
            for b in tier1:
                if a < b:
                    assert b in graph.peers(a)

    def test_everyone_else_has_providers(self, small_topo):
        graph = small_topo.graph
        for asn, layer in small_topo.layer_of.items():
            if layer != "t1":
                assert graph.providers(asn), (asn, layer)

    def test_stub_fraction_large(self, small_topo):
        graph = small_topo.graph
        stubs = sum(1 for a in graph.asns if graph.is_stub(a))
        # the paper: ~85% of ASes are stubs; generator should be close.
        assert stubs / len(graph) > 0.70

    def test_edge_density_ratios(self):
        topo = generate_topology(TopologyParams(n=1200, seed=5))
        graph = topo.graph
        c2p_ratio = graph.num_customer_provider_links / len(graph)
        p2p_ratio = graph.num_peer_links / len(graph)
        # UCLA graph: 1.88 c2p and 1.59 p2p per AS.
        assert 1.2 < c2p_ratio < 2.8
        assert 0.7 < p2p_ratio < 2.5

    def test_content_providers_embedded(self, small_topo):
        assert set(small_topo.content_providers) == set(PAPER_CONTENT_PROVIDERS)
        for cp in small_topo.content_providers:
            assert cp in small_topo.graph
            assert small_topo.graph.peer_degree(cp) >= 2

    def test_content_providers_optional(self):
        topo = generate_topology(
            TopologyParams(n=200, seed=3, include_content_providers=False)
        )
        assert not topo.content_providers
        assert not set(PAPER_CONTENT_PROVIDERS) & set(topo.graph.asns)

    def test_ixp_memberships_reference_real_ases(self, small_topo):
        assert small_topo.ixp_members, "generator should emit IXP lists"
        for members in small_topo.ixp_members.values():
            assert len(members) >= 2
            for asn in members:
                assert asn in small_topo.graph

    def test_no_ixps_when_disabled(self):
        topo = generate_topology(TopologyParams(n=200, seed=3, ixp_count=0))
        assert topo.ixp_members == {}


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = generate_topology(TopologyParams(n=250, seed=11))
        b = generate_topology(TopologyParams(n=250, seed=11))
        assert list(a.graph.edges()) == list(b.graph.edges())
        assert a.ixp_members == b.ixp_members

    @pytest.mark.parametrize(
        "n, seed, serial2_sha, ixp_sha",
        [
            (
                300,
                2013,
                "e2298b785c6d250d4f1387c918c44fab26c9f2e29c606faac5d469e9a7b91f5e",
                "71ef425d81d3f9933af477d99733e1e34a479134c208ba377d78977b3877024d",
            ),
            (
                900,
                2013,
                "632a8988e6ad4f5b6d74900b148f39604ab4cb2943bad34862bc7cee8141e0e3",
                "78abba0e66d946825f5d9a3ed9fcb175be125141e7fc04624b45f78559171eff",
            ),
            (
                2_200,
                2013,
                "64db97cdb60fa9e4cf6408cb2f210ee8eb0ebf7798694ccaafbe4d75bcef656b",
                "b1eac21755d5ad41412a8dd8cc689fd1158bf53d72aef2890181c1d156abe31c",
            ),
            (
                2_200,
                7,
                "2a3f40bddd1523e0b8152c96a30eba909323d2db22a6b86b253ac99ae4c725d0",
                "7b50d0745675e7c4c99cbffdf40eb135b8b61a338d9c0c47c7287a712a5bf840",
            ),
            (
                4_000,
                2013,
                "ddc7de0f2dc3e52ba988557e78d222521ed83ac9cc017c6738504c3d9a157a30",
                "50a728dc1a6757d5ffcb2c7ed261cfdcdb8bb6bff9bc9d5cf1d4c88354217409",
            ),
            (
                FAST_ATTACHMENT_MIN_N,
                2013,
                "48476964e9cc40d190edb79d0c0bd4436cab226d664fc42969dcb741835b954e",
                "26850527d55febe20199ca272c428bb04fffb4cf67280a13e5fb799818c0db8a",
            ),
        ],
        ids=[
            "weighted-300",
            "weighted-900",
            "weighted-attachment",
            "weighted-2200-seed7",
            "weighted-4000",
            "pa-tables",
        ],
    )
    def test_topology_is_pinned(self, n, seed, serial2_sha, ixp_sha):
        """Every seeded scale reproduces its graph byte for byte: a change
        to the order of the generator's RNG calls fails here.  Below
        ``FAST_ATTACHMENT_MIN_N`` the weighted-draw stream is pinned on
        several sizes and two seeds, above it the PA-table stream."""
        topo = generate_topology(TopologyParams(n=n, seed=seed))
        serial2 = dumps_serial2(topo.graph).encode()
        ixps = repr(sorted(topo.ixp_members.items())).encode()
        assert hashlib.sha256(serial2).hexdigest() == serial2_sha
        assert hashlib.sha256(ixps).hexdigest() == ixp_sha

    def test_different_seed_different_graph(self):
        a = generate_topology(TopologyParams(n=250, seed=11))
        b = generate_topology(TopologyParams(n=250, seed=12))
        assert list(a.graph.edges()) != list(b.graph.edges())


class TestParams:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            TopologyParams(n=10)

    def test_rejects_single_tier1(self):
        with pytest.raises(ValueError):
            TopologyParams(n=100, tier1_count=1)

    def test_classifier_compatible(self, small_graph):
        tiers = classify_tiers(small_graph)
        assert len(tiers.members(Tier.TIER1)) == 13
        # the generator's "large" layer should dominate the Tier 2 bucket
        assert len(tiers.members(Tier.TIER2)) >= 10
