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
        "n, serial2_sha, ixp_sha",
        [
            (
                2_200,
                "64db97cdb60fa9e4cf6408cb2f210ee8eb0ebf7798694ccaafbe4d75bcef656b",
                "b1eac21755d5ad41412a8dd8cc689fd1158bf53d72aef2890181c1d156abe31c",
            ),
            (
                FAST_ATTACHMENT_MIN_N,
                "48476964e9cc40d190edb79d0c0bd4436cab226d664fc42969dcb741835b954e",
                "26850527d55febe20199ca272c428bb04fffb4cf67280a13e5fb799818c0db8a",
            ),
        ],
        ids=["weighted-attachment", "pa-tables"],
    )
    def test_topology_is_pinned(self, n, serial2_sha, ixp_sha):
        """Every seeded scale reproduces its graph byte for byte: a change
        to the order of the generator's RNG calls fails here."""
        topo = generate_topology(TopologyParams(n=n, seed=2013))
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
