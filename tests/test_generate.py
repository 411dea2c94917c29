"""Tests for the synthetic topology generator."""

import hashlib
import random

import pytest

from repro.topology import (
    PAPER_CONTENT_PROVIDERS,
    ASGraph,
    Tier,
    TopologyParams,
    classify_tiers,
    generate_topology,
    graph_from_edges,
)
from repro.topology.generate import FAST_ATTACHMENT_MIN_N, _Builder
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
        tier1 = small_topo.layers["t1"].tolist()
        assert len(tier1) == small_topo.params.tier1_count
        for a in tier1:
            assert not graph.providers(a)
            assert graph.customers(a), "every Tier 1 must have a customer"
            for b in tier1:
                if a < b:
                    assert b in graph.peers(a)

    def test_everyone_else_has_providers(self, small_topo):
        graph = small_topo.graph
        for layer, members in small_topo.layers.items():
            if layer != "t1":
                for asn in members.tolist():
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
                FAST_ATTACHMENT_MIN_N - 1,
                2013,
                "a015958388c5ebeb851331bf160c9bc5aeaa88d9146f15a9e602453927c13082",
                "781e9284ea3b7af6c3d7b11b06d65df1813c850cd128277b41b271dea0a18739",
            ),
            (
                FAST_ATTACHMENT_MIN_N,
                2013,
                "48476964e9cc40d190edb79d0c0bd4436cab226d664fc42969dcb741835b954e",
                "26850527d55febe20199ca272c428bb04fffb4cf67280a13e5fb799818c0db8a",
            ),
            (
                FAST_ATTACHMENT_MIN_N,
                7,
                "ddc2402906973bcaa20c35012121c74e1318c22e3027e2a4b1b56b48f998bc00",
                "d7bd5d319fba7fa2d9984553dea1f8ac6a627bb592e4013e381b2e2961711072",
            ),
            (
                80_000,
                2013,
                "ca163c3a028e1c4a93b21863af497d52275565460397bc6b194fa84116b8b934",
                "0387438ff425165e6d80afc7a8e0cf5ca8955e3cf4f7c40dba554299509573fc",
            ),
        ],
        ids=[
            "weighted-300",
            "weighted-900",
            "weighted-attachment",
            "weighted-2200-seed7",
            "weighted-4000",
            "weighted-19999",
            "pa-tables",
            "pa-tables-20k-seed7",
            "pa-tables-80k",
        ],
    )
    def test_topology_is_pinned(self, n, seed, serial2_sha, ixp_sha):
        """Every seeded scale reproduces its graph byte for byte: a change
        to the order of the generator's RNG calls fails here.  Below
        ``FAST_ATTACHMENT_MIN_N`` the weighted-draw stream is pinned on
        several sizes up to its largest, one below it, and two seeds;
        from it the PA-table stream (on two seeds, and at 80 000: the
        ``large`` scale's graph)."""
        topo = generate_topology(TopologyParams(n=n, seed=seed))
        serial2 = dumps_serial2(topo.graph).encode()
        ixps = repr(sorted(topo.ixp_members.items())).encode()
        assert hashlib.sha256(serial2).hexdigest() == serial2_sha
        assert hashlib.sha256(ixps).hexdigest() == ixp_sha

    def test_different_seed_different_graph(self):
        a = generate_topology(TopologyParams(n=250, seed=11))
        b = generate_topology(TopologyParams(n=250, seed=12))
        assert list(a.graph.edges()) != list(b.graph.edges())


#: Range sizes for the inline-draw checks: both sides of powers of two
#: (where ``getrandbits``' rejection rate jumps), 1, and the 80k scale.
DRAW_SIZES = [1, 2, 3, 6, 7, 8, 9, 2**16, 2**16 + 1, 80_013]


class TestInlineDraws:
    """The generator draws uniform indices with ``getrandbits`` rejection
    loops of its own instead of ``randrange`` / ``choice``, and weighted
    ones by descending weight trees instead of ``random.choices``.  They
    must be those calls' exact values and leave the stream where they
    would, or every pinned topology moves; a CPython change to
    ``_randbelow`` or ``choices`` fails here by name."""

    DRAWS = 25

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_pa_draw_is_randrange(self, n):
        b = _Builder(TopologyParams(n=FAST_ATTACHMENT_MIN_N, seed=n))
        reference = random.Random(n)
        # Two tables, so the draw also walks from one into the next.
        tables = [list(range(n // 2)), list(range(n // 2, n))]
        for _ in range(self.DRAWS):
            assert b._pick_pa(tables, n, 1) == [reference.randrange(n)]
        assert b.rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("n", DRAW_SIZES)
    def test_peering_draws_are_choice(self, n):
        b = _Builder(TopologyParams(n=FAST_ATTACHMENT_MIN_N, seed=n))
        reference = random.Random(n)
        pool_a = list(range(n))
        pool_b = list(range(n, 2 * n))  # disjoint: every pair is one attempt
        b.add_layer(pool_a + pool_b, "pools")
        for _ in range(self.DRAWS):
            assert b.add_random_peerings(pool_a, pool_b, 1) == 1
            a, c = reference.choice(pool_a), reference.choice(pool_b)
            pair = a << 32 | c  # a < c: pool_b lies above pool_a
            assert list(b.p2p[-2:]) == [a, c] and b.edges == {pair}
            # forget the one edge added, so the next is the only one too
            del b.p2p[-2:]
            b.edges.remove(pair)
        assert b.rng.getstate() == reference.getstate()

    def test_weighted_draws_are_choices(self):
        """A weighted draw over the trees of several layers, in either
        order, with +1s landing between draws, is ``random.choices``
        over those layers' weights; and where ``random() * total`` lands
        exactly on a cumulative weight (inside a layer or at a layer's
        end) it takes the next member, as ``bisect_right`` does."""
        b = _Builder(TopologyParams(n=FAST_ATTACHMENT_MIN_N - 1, seed=5))
        reference, bumps = random.Random(5), random.Random("bumps")
        layers = [list(range(1, 6)), list(range(6, 30)), list(range(30, 43))]
        for layer in layers:
            b.track(layer)
        weight = dict.fromkeys(range(1, 43), 1)
        for order in (layers, layers[::-1], [layers[1], layers[0]]):
            population = [asn for layer in order for asn in layer]
            for customer in range(1000, 1000 + self.DRAWS * 4):
                (want,) = reference.choices(population, [weight[a] for a in population])
                assert b.pick_weighted(order, 1) == [want]
                for provider in (want, bumps.choice(population)):
                    b.add_c2p(customer, [provider])
                    weight[provider] += 1
        assert b.rng.getstate() == reference.getstate()

        class Exact:
            """An RNG whose ``random()`` runs through ``values``."""

            def __init__(self, values):
                self.random = iter(values).__next__

        # weights 1, 2 | 3, 1, 1 (total 8): every x in 0..7 is exact, and
        # each order's cumulative weights below 8 are among them (1, 3, 6,
        # 7 and 3, 4, 5, 6), a layer's end (3 and 5) included.
        b = _Builder(TopologyParams(n=FAST_ATTACHMENT_MIN_N - 1, seed=5))
        a_layer, b_layer = [1, 2], [3, 4, 5]
        for layer in (a_layer, b_layer):
            b.track(layer)
        b.add_c2p(9, [2, 3])
        b.add_c2p(10, [3])
        weight = {1: 1, 2: 2, 3: 3, 4: 1, 5: 1}
        fractions = [x / 8 for x in range(8)]
        for order in ([a_layer, b_layer], [b_layer, a_layer]):
            population = [asn for layer in order for asn in layer]
            b.rng = Exact(fractions)
            got = [b.pick_weighted(order, 1) for _ in fractions]
            ties = Exact(fractions)
            assert got == [
                random.Random.choices(ties, population, [weight[a] for a in population])
                for _ in fractions
            ]


class TestConnectivityCheck:
    def test_builds_no_components(self, monkeypatch):
        """The check counts component labels; it builds no set of ASNs."""

        def fail(self):
            raise AssertionError("generate_topology built the components")

        monkeypatch.setattr(ASGraph, "connected_components", fail)
        generate_topology(TopologyParams(n=600, seed=3))

    def test_a_disconnected_graph_is_rejected(self, monkeypatch):
        finish = _Builder.finish

        def with_a_lone_as(self):
            c2p, p2p = finish(self).edge_lists()
            return graph_from_edges(c2p, p2p, asns=[10**6])

        monkeypatch.setattr(_Builder, "finish", with_a_lone_as)
        with pytest.raises(AssertionError, match="disconnected"):
            generate_topology(TopologyParams(n=600, seed=3))


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
