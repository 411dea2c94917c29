"""Tests for deployment scenarios and rollout builders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Deployment,
    ScenarioCatalog,
    nonstub_deployment,
    stubs_of,
    tier12_rollout,
    tier1_and_stubs,
    tier2_rollout,
    top_tier2_and_stubs,
)
from repro.topology import Tier, graph_from_edges


@st.composite
def _deployments(draw):
    members = draw(st.lists(st.integers(1, 12), unique=True, max_size=10))
    cut = draw(st.integers(0, len(members)))
    return Deployment(full=frozenset(members[:cut]), simplex=frozenset(members[cut:]))


class TestDeployment:
    def test_empty(self):
        d = Deployment.empty()
        assert d.size == 0
        assert 1 not in d

    def test_of(self):
        d = Deployment.of([1, 2, 3])
        assert d.size == 3
        assert 2 in d
        assert d.ranking_members == {1, 2, 3}
        assert d.signing_members == {1, 2, 3}

    def test_simplex_members_sign_but_do_not_rank(self):
        d = Deployment(full=frozenset({1}), simplex=frozenset({2}))
        assert d.ranking_members == {1}
        assert d.signing_members == {1, 2}
        assert d.is_secure_destination(2)
        assert 2 in d

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Deployment(full=frozenset({1}), simplex=frozenset({1}))

    def test_with_simplex_stubs(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 1)])
        d = Deployment.of([1, 2, 3]).with_simplex_stubs(graph)
        assert d.full == {1}
        assert d.simplex == {2, 3}

    def test_union(self):
        a = Deployment(full=frozenset({1}), simplex=frozenset({2}))
        b = Deployment(full=frozenset({2, 3}))
        u = a.union(b)
        assert u.full == {1, 2, 3}
        assert u.simplex == frozenset()

    def test_everywhere(self, small_graph):
        d = Deployment.everywhere(small_graph)
        assert d.size == len(small_graph)

    @given(_deployments(), _deployments())
    def test_is_nested_in_is_the_two_mode_order(self, a, b):
        """Ranking set and signing set both grow (a simplex→full
        promotion is allowed), without building the unions."""
        assert a.is_nested_in(b) == (
            a.ranking_members <= b.ranking_members
            and a.signing_members <= b.signing_members
        )
        assert a.is_nested_in(a)


class TestStubsOf:
    def test_only_customer_stubs(self):
        graph = graph_from_edges(
            customer_provider=[(2, 1), (3, 1), (4, 3)]
        )
        # 2 is a stub customer of 1; 3 has its own customer so not a stub.
        assert stubs_of(graph, [1]) == {2}

    def test_multiple_isps_union(self):
        graph = graph_from_edges(
            customer_provider=[(2, 1), (4, 3)]
        )
        assert stubs_of(graph, [1, 3]) == {2, 4}


class TestRollouts:
    def test_tier12_rollout_steps_grow(self, small_graph, small_tiers):
        steps = tier12_rollout(small_graph, small_tiers)
        assert len(steps) >= 2
        sizes = [step.deployment.size for step in steps]
        assert sizes == sorted(sizes)
        # each step includes all Tier 1s
        t1 = set(small_tiers.members(Tier.TIER1))
        for step in steps:
            assert t1 <= step.deployment.full

    def test_rollout_steps_nested(self, small_graph, small_tiers):
        steps = tier12_rollout(small_graph, small_tiers)
        for earlier, later in zip(steps, steps[1:]):
            assert earlier.deployment.full <= later.deployment.full

    def test_rollout_includes_stubs_of_secured_isps(self, small_graph, small_tiers):
        step = tier12_rollout(small_graph, small_tiers)[0]
        t1 = small_tiers.members(Tier.TIER1)
        for stub in stubs_of(small_graph, t1):
            assert stub in step.deployment

    def test_simplex_variant_same_membership(self, small_graph, small_tiers):
        plain = tier12_rollout(small_graph, small_tiers)
        simplex = tier12_rollout(small_graph, small_tiers, simplex_stubs=True)
        for p, s in zip(plain, simplex):
            assert p.deployment.full | p.deployment.simplex == (
                s.deployment.full | s.deployment.simplex
            )
            assert s.deployment.simplex  # some stubs were demoted
            assert all(small_graph.is_stub(a) for a in s.deployment.simplex)

    def test_cp_variant_includes_cps(self, small_graph, small_tiers):
        steps = tier12_rollout(small_graph, small_tiers, include_cps=True)
        cps = set(small_tiers.members(Tier.CP))
        assert cps <= steps[0].deployment.full

    def test_tier2_rollout_excludes_tier1(self, small_graph, small_tiers):
        steps = tier2_rollout(small_graph, small_tiers)
        t1 = set(small_tiers.members(Tier.TIER1))
        for step in steps:
            assert not (t1 & step.deployment.full)

    def test_non_stub_counts_on_x_axis(self, small_graph, small_tiers):
        for step in tier12_rollout(small_graph, small_tiers):
            expected = sum(
                1 for a in step.deployment.full if not small_graph.is_stub(a)
            )
            assert step.non_stub_count == expected

    def test_nonstub_deployment(self, small_graph, small_tiers):
        d = nonstub_deployment(small_graph, small_tiers)
        assert d.full == set(small_tiers.non_stubs())

    def test_tier1_and_stubs(self, small_graph, small_tiers):
        step = tier1_and_stubs(small_graph, small_tiers)
        t1 = set(small_tiers.members(Tier.TIER1))
        assert t1 <= step.deployment.full
        assert step.label == "T1+stubs"

    def test_top_tier2_and_stubs_count(self, small_graph, small_tiers):
        step = top_tier2_and_stubs(small_graph, small_tiers, count=3)
        t2_members = [
            a for a in step.deployment.full if small_tiers[a] is Tier.TIER2
        ]
        assert len(t2_members) == 3


class TestScenarioCatalog:
    def test_all_named_scenarios(self, small_graph, small_tiers):
        catalog = ScenarioCatalog(small_graph, small_tiers)
        names = [
            "empty",
            "t1_stubs",
            "t1_stubs_cp",
            "t2_top13_stubs",
            "nonstubs",
            "t12_full",
            "t2_full",
            "everywhere",
        ]
        for name in names:
            deployment = catalog.get(name)
            assert isinstance(deployment, Deployment)
        assert catalog.get("empty").size == 0
        assert catalog.get("everywhere").size == len(small_graph)

    def test_caching(self, small_graph, small_tiers):
        catalog = ScenarioCatalog(small_graph, small_tiers)
        assert catalog.get("t12_full") is catalog.get("t12_full")

    def test_unknown_name(self, small_graph, small_tiers):
        catalog = ScenarioCatalog(small_graph, small_tiers)
        with pytest.raises(KeyError):
            catalog.get("nope")
