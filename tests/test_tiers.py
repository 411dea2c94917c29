"""Tests for the Table 1 tier classifier."""

import numpy as np
import pytest

from repro.topology import (
    PAPER_CONTENT_PROVIDERS,
    Tier,
    TierParams,
    classify_tiers,
    graph_from_edges,
)
from repro.topology.tiers import FIGURE_TIER_ORDER


def build_reference_graph():
    """A hand-built graph exercising every tier bucket.

    * 1, 2: provider-free with customers -> Tier 1
    * 3, 4: big customer degree with providers -> Tier 2 (params: top 1 -> 3)
    * 15169: explicit CP (Google's ASN)
    * 60: stub with a peer -> Stub-x
    * 61, 62: plain stubs
    * 50: transit AS -> SMDG / Tier 3 depending on params
    """
    c2p = [
        # Tier 1 candidates: 1 and 2 have no providers.
        (3, 1), (4, 1), (5, 1), (3, 2), (4, 2),
        # 3 is the biggest customer-degree AS with providers.
        (50, 3), (51, 3), (52, 3), (61, 3),
        (50, 4), (62, 4),
        (15169, 5),
        (60, 50), (53, 50),
    ]
    peers = [(60, 51), (15169, 52), (15169, 51)]
    return graph_from_edges(customer_provider=c2p, peerings=peers)


class TestClassification:
    @pytest.fixture()
    def tiers(self):
        graph = build_reference_graph()
        params = TierParams(
            tier1_count=2, tier2_count=1, tier3_count=1, small_cp_count=1
        )
        return classify_tiers(graph, params=params)

    def test_tier1_providerless_high_degree(self, tiers):
        assert tiers[1] is Tier.TIER1
        assert tiers[2] is Tier.TIER1

    def test_tier2_top_customer_degree_with_providers(self, tiers):
        assert tiers[3] is Tier.TIER2

    def test_tier3_next(self, tiers):
        assert tiers[4] is Tier.TIER3

    def test_cp_from_paper_list(self, tiers):
        assert tiers[15169] is Tier.CP

    def test_small_cp_by_peering_degree(self, tiers):
        # after T1/T2/T3/CP are taken, 51 has the highest peer degree.
        assert tiers[51] is Tier.SMALL_CP

    def test_stub_x_has_peers_no_customers(self, tiers):
        assert tiers[60] is Tier.STUB_X

    def test_plain_stubs(self, tiers):
        assert tiers[61] is Tier.STUB
        assert tiers[62] is Tier.STUB

    def test_smdg_remaining_transit(self, tiers):
        assert tiers[50] is Tier.SMDG

    def test_every_as_classified(self, tiers):
        graph = build_reference_graph()
        assert len(tiers.code) == len(graph) and (tiers.code >= 0).all()
        assert sum(tiers.counts().values()) == len(graph)

    def test_members_sorted_and_consistent(self, tiers):
        for tier in Tier:
            members = tiers.members(tier)
            assert list(members) == sorted(members)
            for asn in members:
                assert tiers[asn] is tier

    def test_stubs_helper(self, tiers):
        # every AS without customers that did not land in a higher
        # bucket: 52/60 have peers (stub-x), 53/61/62 are plain stubs.
        assert set(tiers.stubs()) == {52, 53, 60, 61, 62}

    def test_non_stubs_helper(self, tiers):
        assert 3 in tiers.non_stubs()
        assert 61 not in tiers.non_stubs()

    def test_counts_sum(self, tiers):
        graph = build_reference_graph()
        assert sum(tiers.counts().values()) == len(graph)

    def test_tally_counts_each_value_per_tier(self, tiers):
        graph = tiers.graph
        asns = [61, 62, 60, 50, 61]
        rows = graph.indices(asns)
        by_tier = tiers.tally(rows, np.array([0, 2, 1, 1, 2]), 3)
        expected = {}
        for asn, value in zip(asns, [0, 2, 1, 1, 2]):
            expected.setdefault(tiers[asn], [0, 0, 0])[value] += 1
        assert by_tier == expected
        # Tiers none of the rows is in are left out; the rest in Tier order.
        assert list(by_tier) == [t for t in Tier if t in expected]


class TestExplicitCpList:
    def test_explicit_cp_overrides_default(self):
        graph = build_reference_graph()
        tiers = classify_tiers(
            graph,
            content_providers=(53,),
            params=TierParams(2, 1, 1, 1),
        )
        assert tiers[53] is Tier.CP
        # 15169 no longer a CP; it has peers but no customers -> small
        # CP or stub-x depending on peer ranking.
        assert tiers[15169] in (Tier.SMALL_CP, Tier.STUB_X)

    def test_precedence_tier_beats_cp(self):
        # An AS qualifying as Tier 2 stays Tier 2 even when listed a CP.
        graph = build_reference_graph()
        tiers = classify_tiers(
            graph,
            content_providers=(3,),
            params=TierParams(2, 1, 1, 1),
        )
        assert tiers[3] is Tier.TIER2


class TestScaling:
    def test_scaled_params_shrink(self):
        params = TierParams().scaled(4000)
        assert params.tier1_count == 13
        assert params.tier2_count < 100
        assert params.small_cp_count < 300

    def test_scaled_params_identity_at_paper_size(self):
        assert TierParams().scaled(39056) == TierParams()

    def test_synthetic_graph_has_all_buckets(self, small_graph, small_tiers):
        counts = small_tiers.counts()
        for tier in (Tier.TIER1, Tier.TIER2, Tier.CP, Tier.STUB, Tier.STUB_X):
            assert counts[tier] > 0, tier

    def test_synthetic_tier1_count(self, small_graph, small_tiers):
        assert len(small_tiers.members(Tier.TIER1)) == 13

    def test_figure_order_covers_all_tiers(self):
        assert set(FIGURE_TIER_ORDER) == set(Tier)

    def test_paper_cp_list_has_17_entries(self):
        assert len(PAPER_CONTENT_PROVIDERS) == 17
