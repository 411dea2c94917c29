"""Tests for protocol-downgrade detection and the Figure 13 analysis."""

import pytest

from repro.core import (
    Deployment,
    SECURITY_FIRST,
    SECURITY_SECOND,
    SECURITY_THIRD,
    downgrade_analysis,
    normal_conditions,
    secure_route_fate,
)
from repro.topology import gadgets, graph_from_edges


@pytest.fixture(scope="module")
def fig2():
    gadget = gadgets.figure2_protocol_downgrade()
    return gadget, Deployment.of(gadget.secure)


class TestDowngradeAnalysis:
    def test_sets_disjoint_and_consistent(self, fig2):
        gadget, deployment = fig2
        analysis = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_SECOND,
        )
        assert analysis.downgraded | analysis.retained == analysis.secure_normal
        assert not (analysis.downgraded & analysis.retained)

    def test_retained_subset_of_attack_secure(self, fig2):
        gadget, deployment = fig2
        analysis = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_THIRD,
        )
        assert analysis.retained <= analysis.secure_attack

    def test_normal_outcome_reused(self, fig2):
        gadget, deployment = fig2
        normal = normal_conditions(
            gadget.graph, gadget.destination, deployment, SECURITY_SECOND
        )
        a = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_SECOND, normal_outcome=normal,
        )
        b = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_SECOND,
        )
        assert a == b

    def test_no_secure_routes_without_secure_destination(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (666, 2), (3, 2)])
        deployment = Deployment.of([2, 3])  # destination 1 not secured
        analysis = downgrade_analysis(
            graph, 666, 1, deployment, SECURITY_FIRST
        )
        assert analysis.secure_normal == frozenset()

    def test_theorem_31_no_downgrades_security_first(self, small_ctx):
        """Theorem 3.1 on sampled pairs of the shared small graph."""
        asns = small_ctx.graph.asns
        deployment = Deployment.of(asns[: len(asns) // 2])
        for attacker, destination in [
            (asns[-1], asns[0]),
            (asns[-7], asns[5]),
            (asns[100], asns[20]),
        ]:
            analysis = downgrade_analysis(
                small_ctx, attacker, destination, deployment, SECURITY_FIRST
            )
            # an AS whose normal secure route passes through m may lose
            # it legitimately; Theorem 3.1 exempts exactly those.
            for asn in analysis.downgraded:
                normal = normal_conditions(
                    small_ctx, destination, deployment, SECURITY_FIRST
                )
                assert attacker in normal.concrete_path(asn)


class TestSecureRouteFate:
    def test_fractions_consistent(self, fig2):
        gadget, deployment = fig2
        fate = secure_route_fate(
            gadget.graph,
            gadget.destination,
            [gadget.attacker],
            deployment,
            SECURITY_THIRD,
        )
        total = (
            fate.downgraded_fraction
            + fate.retained_immune_fraction
            + fate.retained_other_fraction
        )
        assert total == pytest.approx(fate.secure_normal_fraction)

    def test_figure2_single_attacker_values(self, fig2):
        gadget, deployment = fig2
        fate = secure_route_fate(
            gadget.graph,
            gadget.destination,
            [gadget.attacker],
            deployment,
            SECURITY_THIRD,
        )
        # fractions are over the |V|-1 = 5 non-destination ASes (normal
        # conditions know no attacker): 21740 and 3536 have secure
        # routes (2/5); 21740 downgrades, 3536 is immune and keeps its.
        assert fate.secure_normal_fraction == pytest.approx(0.4)
        assert fate.downgraded_fraction == pytest.approx(0.2)
        assert fate.retained_immune_fraction == pytest.approx(0.2)
        assert fate.retained_other_fraction == pytest.approx(0.0)

    def test_skips_destination_as_attacker(self, fig2):
        gadget, deployment = fig2
        fate = secure_route_fate(
            gadget.graph,
            gadget.destination,
            [gadget.destination, gadget.attacker],
            deployment,
            SECURITY_THIRD,
        )
        assert fate.downgraded_fraction > 0
