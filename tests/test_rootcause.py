"""Tests for the Section 6 root-cause machinery."""

import pytest

from repro.core import (
    Deployment,
    PHENOMENA_POSSIBLE,
    SECURITY_FIRST,
    SECURITY_MODELS,
    SECURITY_SECOND,
    SECURITY_THIRD,
    SecurityModel,
    pair_root_cause,
    root_cause_breakdown,
)
from repro.topology import gadgets


class TestPhenomenaTable:
    def test_matches_paper_table3(self):
        assert PHENOMENA_POSSIBLE[SecurityModel.FIRST]["protocol_downgrade"] is False
        assert PHENOMENA_POSSIBLE[SecurityModel.SECOND]["protocol_downgrade"] is True
        assert PHENOMENA_POSSIBLE[SecurityModel.THIRD]["protocol_downgrade"] is True
        for model in PHENOMENA_POSSIBLE.values():
            assert model["collateral_benefit"] is True
        assert PHENOMENA_POSSIBLE[SecurityModel.FIRST]["collateral_damage"] is True
        assert PHENOMENA_POSSIBLE[SecurityModel.SECOND]["collateral_damage"] is True
        assert PHENOMENA_POSSIBLE[SecurityModel.THIRD]["collateral_damage"] is False


class TestPairRootCause:
    @pytest.fixture(scope="class")
    def fig14(self):
        gadget = gadgets.figure14_collateral()
        return gadget, Deployment.of(gadget.secure)

    def test_identity_on_gadgets(self, fig14):
        gadget, deployment = fig14
        for model in SECURITY_MODELS:
            pr = pair_root_cause(
                gadget.graph, gadget.attacker, gadget.destination, deployment, model
            )
            assert pr.metric_change == pr.gains - pr.losses

    def test_set_disjointness(self, fig14):
        gadget, deployment = fig14
        pr = pair_root_cause(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_SECOND,
        )
        assert not (pr.collateral_benefit & pr.collateral_damage)
        assert not (pr.downgraded & pr.protected_secure)
        assert pr.wasted_secure | pr.protected_secure <= (
            pr.secure_normal | pr.protected_secure
        )

    def test_collaterals_are_outside_s(self, fig14):
        gadget, deployment = fig14
        pr = pair_root_cause(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_SECOND,
        )
        for asn in pr.collateral_benefit | pr.collateral_damage:
            assert asn not in deployment.ranking_members

    def test_no_collateral_damage_sec3_on_gadget(self, fig14):
        # Theorem 6.1: monotonicity forbids damage when security is 3rd,
        # even on the gadget engineered to produce it at 2nd.
        gadget, deployment = fig14
        pr = pair_root_cause(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_THIRD,
        )
        assert pr.collateral_damage == frozenset()

    def test_no_downgrades_sec1_on_gadget(self):
        gadget = gadgets.figure2_protocol_downgrade()
        pr = pair_root_cause(
            gadget.graph, gadget.attacker, gadget.destination,
            Deployment.of(gadget.secure), SECURITY_FIRST,
        )
        assert pr.downgraded == frozenset()


class TestBreakdown:
    def test_aggregation_over_pairs(self, small_ctx, small_tiers):
        from repro.core import tier12_rollout

        deployment = tier12_rollout(small_ctx.graph, small_tiers)[-1].deployment
        asns = small_ctx.graph.asns
        pairs = [(asns[-3], asns[2]), (asns[-9], asns[11]), (asns[50], asns[200])]
        for model in SECURITY_MODELS:
            breakdown = root_cause_breakdown(small_ctx, pairs, deployment, model)
            assert breakdown.num_pairs == 3
            assert abs(breakdown.identity_residual()) < 1e-9
            assert 0.0 <= breakdown.secure_routes_normal <= 1.0
            assert breakdown.downgrades <= breakdown.secure_routes_normal + 1e-9

    def test_sec3_breakdown_has_no_damage(self, small_ctx, small_tiers):
        from repro.core import tier12_rollout

        deployment = tier12_rollout(small_ctx.graph, small_tiers)[-1].deployment
        asns = small_ctx.graph.asns
        pairs = [(asns[-3], asns[2]), (asns[-9], asns[11])]
        breakdown = root_cause_breakdown(
            small_ctx, pairs, deployment, SECURITY_THIRD
        )
        assert breakdown.collateral_damages == 0.0

    def test_sec1_breakdown_has_no_downgrades(self, small_ctx, small_tiers):
        from repro.core import tier12_rollout

        deployment = tier12_rollout(small_ctx.graph, small_tiers)[-1].deployment
        asns = small_ctx.graph.asns
        pairs = [(asns[-3], asns[2]), (asns[-9], asns[11])]
        breakdown = root_cause_breakdown(
            small_ctx, pairs, deployment, SECURITY_FIRST
        )
        # Theorem 3.1 allows downgrades only when the attacker sat on
        # the normal-conditions route; essentially zero in practice.
        assert breakdown.downgrades == pytest.approx(0.0, abs=1e-3)

    def test_self_pairs_skipped(self, small_ctx):
        asns = small_ctx.graph.asns
        breakdown = root_cause_breakdown(
            small_ctx, [(asns[0], asns[0])], Deployment.empty(), SECURITY_THIRD
        )
        assert breakdown.num_pairs == 0
        assert breakdown.metric_change == 0.0
