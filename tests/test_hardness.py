"""Tests for the Max-k-Security hardness machinery (Theorem 5.1)."""

import pytest

from repro.core import (
    Deployment,
    SECURITY_MODELS,
    SECURITY_THIRD,
    build_set_cover_reduction,
    count_happy_lower,
    greedy_max_k_security,
    max_k_security_bruteforce,
)


UNIVERSE = ("a", "b", "c", "d")
FAMILY = {"s1": ("a", "b"), "s2": ("c", "d"), "s3": ("b", "c")}


class TestReductionConstruction:
    @pytest.fixture(scope="class")
    def instance(self):
        return build_set_cover_reduction(UNIVERSE, FAMILY)

    def test_gadget_shape(self, instance):
        graph = instance.graph
        # element ASes are providers of the attacker.
        for element_as in instance.element_as.values():
            assert element_as in graph.providers(instance.attacker)
        # set ASes are providers of the destination.
        for set_as in instance.set_as.values():
            assert set_as in graph.providers(instance.destination)
        # membership edges mirror the family.
        for name, members in instance.family.items():
            set_asn = instance.set_as[name]
            for element in members:
                assert instance.element_as[element] in graph.providers(set_asn)

    def test_attacker_wins_tiebreaks(self, instance):
        assert instance.attacker < min(
            min(instance.set_as.values()), min(instance.element_as.values())
        )

    def test_num_sources(self, instance):
        assert instance.num_sources == len(UNIVERSE) + len(FAMILY)

    def test_k_for_gamma(self, instance):
        assert instance.k_for_gamma(2) == len(UNIVERSE) + 2 + 1

    def test_deployment_for_cover(self, instance):
        deployment = instance.deployment_for_cover(["s1", "s2"])
        assert instance.destination in deployment
        assert instance.set_as["s1"] in deployment
        assert instance.set_as["s3"] not in deployment

    def test_rejects_unknown_elements(self):
        with pytest.raises(ValueError):
            build_set_cover_reduction(("a",), {"s": ("a", "zz")})

    def test_rejects_bad_asns(self):
        with pytest.raises(ValueError):
            build_set_cover_reduction(("a",), {"s": ("a",)}, attacker_asn=9, destination_asn=2)


class TestCoverEquivalence:
    """Securing a γ-cover's deployment makes all sources happy — and
    nothing smaller does (Theorem I.1), in every model."""

    @pytest.fixture(scope="class")
    def instance(self):
        return build_set_cover_reduction(UNIVERSE, FAMILY)

    @pytest.mark.parametrize("model", SECURITY_MODELS, ids=lambda m: m.label)
    def test_cover_makes_everyone_happy(self, instance, model):
        deployment = instance.deployment_for_cover(["s1", "s2"])  # a 2-cover
        happy = count_happy_lower(
            instance.graph, instance.attacker, instance.destination,
            deployment, model,
        )
        assert happy == instance.num_sources

    @pytest.mark.parametrize("model", SECURITY_MODELS, ids=lambda m: m.label)
    def test_non_cover_leaves_elements_unhappy(self, instance, model):
        deployment = instance.deployment_for_cover(["s1", "s3"])  # misses d
        happy = count_happy_lower(
            instance.graph, instance.attacker, instance.destination,
            deployment, model,
        )
        assert happy == instance.num_sources - 1

    @pytest.mark.parametrize("model", SECURITY_MODELS, ids=lambda m: m.label)
    def test_bruteforce_equals_cover_existence(self, instance, model):
        k = instance.k_for_gamma(2)
        best, best_set = max_k_security_bruteforce(
            instance.graph, instance.attacker, instance.destination, k, model
        )
        assert best == instance.num_sources  # a 2-cover exists (s1+s2)
        assert instance.destination in best_set

    @pytest.mark.parametrize("model", SECURITY_MODELS, ids=lambda m: m.label)
    def test_gamma_one_is_infeasible(self, instance, model):
        best, _ = max_k_security_bruteforce(
            instance.graph, instance.attacker, instance.destination,
            instance.k_for_gamma(1), model,
        )
        assert best < instance.num_sources  # no single set covers a..d

    def test_unsecured_elements_fall_to_attacker(self, instance):
        happy = count_happy_lower(
            instance.graph, instance.attacker, instance.destination,
            Deployment.empty(), SECURITY_THIRD,
        )
        # only the set ASes (direct providers of d) stay happy.
        assert happy == len(FAMILY)


class TestSolvers:
    def test_bruteforce_candidate_limit(self, small_ctx):
        with pytest.raises(ValueError):
            max_k_security_bruteforce(
                small_ctx, small_ctx.graph.asns[-1], small_ctx.graph.asns[0], 3,
                SECURITY_THIRD,
            )

    def test_greedy_never_beats_bruteforce(self):
        instance = build_set_cover_reduction(("a", "b"), {"s1": ("a",), "s2": ("b",), "s3": ("a", "b")})
        candidates = sorted(instance.set_as.values()) + [instance.destination]
        k = 2
        best, _ = max_k_security_bruteforce(
            instance.graph, instance.attacker, instance.destination, k,
            SECURITY_THIRD, candidates=candidates,
        )
        greedy, _ = greedy_max_k_security(
            instance.graph, instance.attacker, instance.destination, k,
            SECURITY_THIRD, candidates=candidates,
        )
        assert greedy <= best

    def test_greedy_returns_k_members(self, small_ctx):
        asns = small_ctx.graph.asns
        happy, chosen = greedy_max_k_security(
            small_ctx, asns[-1], asns[0], 2, SECURITY_THIRD,
            candidates=asns[:6],
        )
        assert len(chosen) == 2
        assert happy >= 0
