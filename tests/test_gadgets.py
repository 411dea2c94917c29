"""The paper's worked examples, verified end to end.

Each gadget in :mod:`repro.topology.gadgets` must reproduce the exact
narrative of its figure; these tests are the ground truth anchoring the
routing engine to the paper.
"""

import pytest

from repro import core
from repro.bgpsim import BGPSimulator, PolicyAssignment
from repro.core import (
    Category,
    Deployment,
    Reach,
    SECURITY_FIRST,
    SECURITY_SECOND,
    SECURITY_THIRD,
    compute_partitions,
    compute_routing_outcome,
    downgrade_analysis,
    pair_root_cause,
)
from repro.topology import gadgets


class TestFigure2ProtocolDowngrade:
    @pytest.fixture(scope="class")
    def gadget(self):
        return gadgets.figure2_protocol_downgrade()

    @pytest.fixture(scope="class")
    def deployment(self, gadget):
        return Deployment.of(gadget.secure)

    @pytest.mark.parametrize("model", [SECURITY_SECOND, SECURITY_THIRD])
    def test_21740_downgraded(self, gadget, deployment, model):
        analysis = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment, model
        )
        assert 21740 in analysis.downgraded

    def test_no_downgrade_when_security_first(self, gadget, deployment):
        analysis = downgrade_analysis(
            gadget.graph, gadget.attacker, gadget.destination, deployment,
            SECURITY_FIRST,
        )
        assert analysis.downgraded == frozenset()

    def test_3536_immune_all_models(self, gadget):
        for model in (SECURITY_FIRST, SECURITY_SECOND, SECURITY_THIRD):
            parts = compute_partitions(
                gadget.graph, gadget.attacker, gadget.destination, model
            )
            assert parts.category(3536) is Category.IMMUNE

    def test_174_doomed_when_security_2nd_or_3rd(self, gadget):
        for model in (SECURITY_SECOND, SECURITY_THIRD):
            parts = compute_partitions(
                gadget.graph, gadget.attacker, gadget.destination, model
            )
            assert parts.category(174) is Category.DOOMED

    def test_174_protectable_when_security_1st(self, gadget):
        parts = compute_partitions(
            gadget.graph, gadget.attacker, gadget.destination, SECURITY_FIRST
        )
        assert parts.category(174) is Category.PROTECTABLE

    def test_bogus_route_shape(self, gadget, deployment):
        # 21740 sees a 4-hop insecure peer route via Cogent.
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker, deployment,
            SECURITY_SECOND,
        )
        assert out.concrete_path(21740) == (21740, 174, 3491, gadget.attacker)


class TestFigure14Collateral:
    @pytest.fixture(scope="class")
    def gadget(self):
        return gadgets.figure14_collateral()

    @pytest.fixture(scope="class")
    def rootcause(self, gadget):
        return pair_root_cause(
            gadget.graph,
            gadget.attacker,
            gadget.destination,
            Deployment.of(gadget.secure),
            SECURITY_SECOND,
        )

    def test_52142_collateral_damage(self, rootcause):
        assert 52142 in rootcause.collateral_damage

    def test_5166_collateral_benefit(self, rootcause):
        assert 5166 in rootcause.collateral_benefit

    def test_5617_switches_to_long_secure_route(self, gadget):
        deployment = Deployment.of(gadget.secure)
        normal = core.normal_conditions(
            gadget.graph, gadget.destination, deployment, SECURITY_SECOND
        )
        assert normal.uses_secure_route(5617)
        assert normal.routes[5617].length == 5
        # without S*BGP it used the short route via Level 3.
        baseline = core.normal_conditions(gadget.graph, gadget.destination)
        assert baseline.routes[5617].length == 2

    def test_10310_immune(self, gadget):
        for model in (SECURITY_SECOND, SECURITY_THIRD):
            parts = compute_partitions(
                gadget.graph, gadget.attacker, gadget.destination, model
            )
            assert parts.category(10310) is Category.IMMUNE

    def test_accounting_identity(self, rootcause):
        assert rootcause.metric_change == rootcause.gains - rootcause.losses


class TestFigure15CollateralBenefit:
    @pytest.fixture(scope="class")
    def gadget(self):
        return gadgets.figure15_collateral_benefit()

    def test_benefits_in_security_3rd(self, gadget):
        rootcause = pair_root_cause(
            gadget.graph,
            gadget.attacker,
            gadget.destination,
            Deployment.of(gadget.secure),
            SECURITY_THIRD,
        )
        assert {34223, 12389} <= rootcause.collateral_benefit
        assert rootcause.collateral_damage == frozenset()

    def test_3267_tiebreaks_toward_attacker_without_sbgp(self, gadget):
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker
        )
        assert out.routes[3267].reaches == Reach.BOTH
        assert out.concrete_endpoint(3267) == Reach.ATTACKER

    def test_3267_prefers_secure_route_before_tiebreak(self, gadget):
        out = compute_routing_outcome(
            gadget.graph,
            gadget.destination,
            gadget.attacker,
            Deployment.of(gadget.secure),
            SECURITY_THIRD,
        )
        assert out.uses_secure_route(3267)
        assert out.routes[3267].reaches == Reach.DEST


class TestFigure17CollateralDamageSecurityFirst:
    @pytest.fixture(scope="class")
    def gadget(self):
        return gadgets.figure17_collateral_damage_sec1st()

    def test_4805_damaged_in_security_first(self, gadget):
        rootcause = pair_root_cause(
            gadget.graph,
            gadget.attacker,
            gadget.destination,
            Deployment.of(gadget.secure),
            SECURITY_FIRST,
        )
        assert 4805 in rootcause.collateral_damage

    def test_mechanism_is_export_rule(self, gadget):
        # Optus switches to a secure provider route, which Ex forbids
        # exporting to its peer 4805.
        deployment = Deployment.of(gadget.secure)
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker, deployment,
            SECURITY_FIRST,
        )
        assert out.uses_secure_route(7474)
        assert out.routes[7474].route_class.name == "PROVIDER"
        assert out.routes[4805].reaches == Reach.ATTACKER

    def test_happy_without_deployment(self, gadget):
        out = compute_routing_outcome(
            gadget.graph, gadget.destination, gadget.attacker
        )
        assert out.routes[4805].reaches == Reach.DEST


class TestFigure1Wedgie:
    @pytest.fixture(scope="class")
    def gadget(self):
        return gadgets.figure1_wedgie()

    def _simulator(self, gadget, policies):
        return BGPSimulator(
            gadget.graph,
            gadget.destination,
            deployment=Deployment.of(gadget.secure),
            policies=policies,
        )

    def test_wedgie_with_inconsistent_policies(self, gadget):
        policies = PolicyAssignment(
            default=SECURITY_THIRD, overrides={31283: SECURITY_FIRST}
        )
        sim = self._simulator(gadget, policies)
        sim.run()
        intended = sim.stable_state()
        # intended: the Norwegian ISP uses the secure provider route.
        assert intended[31283] == (29518, 31027, 3)
        sim.fail_link(31027, 3)
        sim.run()
        sim.restore_link(31027, 3)
        sim.run()
        stuck = sim.stable_state()
        assert stuck != intended
        assert stuck[31283] == (34226, 8928, 3)  # insecure route, wedged
        assert stuck[29518] == (31283, 34226, 8928, 3)

    def test_consistent_policies_revert(self, gadget):
        for model in (SECURITY_FIRST, SECURITY_THIRD):
            sim = self._simulator(gadget, PolicyAssignment.uniform(model))
            sim.run()
            intended = sim.stable_state()
            sim.fail_link(31027, 3)
            sim.run()
            sim.restore_link(31027, 3)
            sim.run()
            assert sim.stable_state() == intended, model.label

    def test_two_stable_states_exist(self, gadget):
        # both the intended and the wedged configurations are stable
        # under the inconsistent assignment: re-running from each yields
        # no further changes (the run() above already asserts quiescence;
        # here we check the wedged state is genuinely stable by
        # activating every AS once more).
        policies = PolicyAssignment(
            default=SECURITY_THIRD, overrides={31283: SECURITY_FIRST}
        )
        sim = self._simulator(gadget, policies)
        sim.run()
        sim.fail_link(31027, 3)
        sim.run()
        sim.restore_link(31027, 3)
        sim.run()
        wedged = sim.stable_state()
        for asn in gadget.graph.asns:
            sim._enqueue(asn)
        sim.run()
        assert sim.stable_state() == wedged


class TestGadgetCatalog:
    def test_all_gadgets_valid_topologies(self):
        for name, build in gadgets.ALL_GADGETS.items():
            gadget = build()
            gadget.graph.validate()
            assert gadget.name == name
            assert gadget.destination in gadget.graph
            if gadget.attacker is not None:
                assert gadget.attacker in gadget.graph
            assert gadget.secure <= set(gadget.graph.asns)

    def test_roles_reference_real_ases(self):
        for build in gadgets.ALL_GADGETS.values():
            gadget = build()
            for asn in gadget.roles:
                assert asn in gadget.graph

    def test_custom_attacker_asn(self):
        gadget = gadgets.figure14_collateral(attacker=99999)
        assert gadget.attacker == 99999
        assert 99999 in gadget.graph
