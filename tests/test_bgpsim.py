"""Tests for the message-passing BGP/S*BGP simulator."""

import pytest

from repro.bgpsim import Announcement, BGPSimulator, ConvergenceError, PolicyAssignment
from repro.core import (
    BASELINE,
    Deployment,
    SECURITY_FIRST,
    SECURITY_SECOND,
    SECURITY_THIRD,
)
from repro.core.refimpl import ref_compute_routing_outcome
from repro.topology import gadgets, graph_from_edges


class LifoSimulator(BGPSimulator):
    """Activates the most recently scheduled AS first (the stock
    simulator is FIFO): a second activation order, so two runs that
    disagree prove two stable states."""

    def _enqueue(self, asn: int) -> None:
        if asn not in self._queued and asn not in self._roots():
            self._queued.add(asn)
            self._queue.appendleft(asn)


class TestAnnouncement:
    def test_length_and_head(self):
        ann = Announcement(path=(3, 2, 1), signed=True)
        assert ann.length == 3
        assert ann.head == 3

    def test_extension_signing(self):
        ann = Announcement(path=(1,), signed=True)
        assert ann.extended_by(2, signs=True).signed
        assert not ann.extended_by(2, signs=False).signed
        assert ann.extended_by(2, signs=True).path == (2, 1)

    def test_broken_chain_stays_broken(self):
        ann = Announcement(path=(1,), signed=False)
        assert not ann.extended_by(2, signs=True).signed

    def test_loop_detection(self):
        ann = Announcement(path=(3, 2, 1), signed=False)
        assert ann.contains(2)
        assert not ann.contains(9)


class TestPolicyAssignment:
    def test_default_and_overrides(self):
        policies = PolicyAssignment(
            default=SECURITY_THIRD, overrides={5: SECURITY_FIRST}
        )
        assert policies.model_for(5) is SECURITY_FIRST
        assert policies.model_for(6) is SECURITY_THIRD
        assert not policies.is_uniform

    def test_uniform(self):
        policies = PolicyAssignment.uniform(SECURITY_FIRST)
        assert policies.is_uniform


class TestPropagation:
    def test_line_convergence(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 2), (4, 3)])
        sim = BGPSimulator(graph, destination=1)
        report = sim.run()
        assert report.converged
        state = sim.stable_state()
        assert state[4] == (3, 2, 1)
        assert sim.physical_path(4) == (4, 3, 2, 1)

    def test_export_rule_blocks_peer_to_peer(self):
        graph = graph_from_edges(peerings=[(174, 3356), (174, 21740)])
        sim = BGPSimulator(graph, destination=3356)
        sim.run()
        assert sim.best[174] is not None
        assert sim.best[21740] is None

    def test_attacker_announcement(self):
        graph = graph_from_edges(
            customer_provider=[(2, 1), (3, 1), (666, 3)]
        )
        sim = BGPSimulator(graph, destination=1, attacker=666)
        sim.run()
        assert sim.routes_to_attacker(3)
        assert not sim.routes_to_attacker(2)
        assert sim.physical_path(3) == (3, 666)

    def test_loop_rejection(self):
        # without loop rejection 2 would accept its own route back.
        graph = graph_from_edges(customer_provider=[(1, 2), (2, 3)])
        sim = BGPSimulator(graph, destination=1)
        sim.run()
        assert sim.best[3][1].path == (2, 1)
        rib_in_3 = sim.rib_in[3]
        assert set(rib_in_3) == {2}

    def test_idempotent_run(self):
        graph = graph_from_edges(customer_provider=[(2, 1)])
        sim = BGPSimulator(graph, destination=1)
        sim.run()
        state = sim.stable_state()
        report = sim.run()
        assert report.activations == 0
        assert sim.stable_state() == state

    def test_validation_errors(self):
        graph = graph_from_edges(customer_provider=[(2, 1)])
        with pytest.raises(ValueError):
            BGPSimulator(graph, destination=99)
        with pytest.raises(ValueError):
            BGPSimulator(graph, destination=1, attacker=1)
        with pytest.raises(ValueError):
            BGPSimulator(graph, destination=1, attacker=42)

    def test_convergence_budget(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 2), (4, 3)])
        sim = BGPSimulator(graph, destination=1)
        with pytest.raises(ConvergenceError):
            sim.run(max_activations=0)


class TestSecurity:
    def test_signed_chain(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 2)])
        deployment = Deployment.of([1, 2, 3])
        sim = BGPSimulator(
            graph, 1, deployment, PolicyAssignment.uniform(SECURITY_FIRST)
        )
        sim.run()
        assert sim.uses_secure_route(2)
        assert sim.uses_secure_route(3)

    def test_legacy_hop_breaks_signature(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 2)])
        deployment = Deployment.of([1, 3])
        sim = BGPSimulator(
            graph, 1, deployment, PolicyAssignment.uniform(SECURITY_FIRST)
        )
        sim.run()
        assert not sim.uses_secure_route(2)
        assert not sim.uses_secure_route(3)

    def test_baseline_policy_never_secure(self):
        graph = graph_from_edges(customer_provider=[(2, 1)])
        sim = BGPSimulator(
            graph, 1, Deployment.of([1, 2]), PolicyAssignment.uniform(BASELINE)
        )
        sim.run()
        assert not sim.uses_secure_route(2)


class TestLinkEvents:
    @pytest.fixture()
    def sim(self):
        #   1(d) <- 2 <- 3, plus a backup: 3 -> 4 -> 1
        graph = graph_from_edges(
            customer_provider=[(2, 1), (3, 2), (3, 4), (4, 1)]
        )
        sim = BGPSimulator(graph, destination=1)
        sim.run()
        return sim

    def test_failure_reroutes(self, sim):
        assert sim.stable_state()[3] == (2, 1)
        sim.fail_link(3, 2)
        sim.run()
        assert sim.stable_state()[3] == (4, 1)

    def test_withdrawal_cascades(self):
        graph = graph_from_edges(customer_provider=[(2, 1), (3, 2), (4, 3)])
        sim = BGPSimulator(graph, destination=1)
        sim.run()
        sim.fail_link(2, 1)
        sim.run()
        assert sim.best[2] is None
        assert sim.best[3] is None
        assert sim.best[4] is None

    def test_restore_recovers(self, sim):
        sim.fail_link(3, 2)
        sim.run()
        sim.restore_link(3, 2)
        sim.run()
        assert sim.stable_state()[3] == (2, 1)

    def test_fail_unknown_link(self, sim):
        with pytest.raises(ValueError):
            sim.fail_link(1, 99)

    def test_restore_unfailed_link(self, sim):
        with pytest.raises(ValueError):
            sim.restore_link(3, 2)

    def test_fail_twice_is_noop(self, sim):
        sim.fail_link(3, 2)
        sim.fail_link(3, 2)
        sim.run()
        assert not sim.link_up(3, 2)


class TestTransitSimplexWitness:
    """The gadget behind rejecting transit simplex: a simplex AS with
    customers leaves two stable states under security 1st."""

    @staticmethod
    def _converge(simulator, model):
        g = gadgets.transit_simplex_two_states()
        sim = simulator(
            g.graph, g.destination,
            deployment=Deployment(full=g.secure, simplex=g.simplex),
            policies=PolicyAssignment.uniform(model),
            attacker=g.attacker,
        )
        assert sim.run().converged
        return sim

    def test_two_stable_states_under_security_first(self):
        fifo = self._converge(BGPSimulator, SECURITY_FIRST)
        lifo = self._converge(LifoSimulator, SECURITY_FIRST)
        assert fifo.stable_state() != lifo.stable_state()
        sources = (2, 3, 5)
        assert [a for a in sources if fifo.routes_to_attacker(a)] == []
        assert [a for a in sources if lifo.routes_to_attacker(a)] == [2, 3]

    def test_the_seed_engine_answers_the_lifo_state(self):
        g = gadgets.transit_simplex_two_states()
        ref = ref_compute_routing_outcome(
            g.graph, g.destination, attacker=g.attacker,
            deployment=Deployment(full=g.secure, simplex=g.simplex),
            model=SECURITY_FIRST,
        )
        assert ref.count_happy() == (1, 1)
        lifo = self._converge(LifoSimulator, SECURITY_FIRST)
        for asn in (2, 3, 5):
            assert ref.concrete_path(asn) == lifo.physical_path(asn), asn

    @pytest.mark.parametrize(
        "model", [SECURITY_SECOND, SECURITY_THIRD], ids=lambda m: m.label
    )
    def test_one_stable_state_when_security_is_not_first(self, model):
        fifo = self._converge(BGPSimulator, model)
        lifo = self._converge(LifoSimulator, model)
        assert fifo.stable_state() == lifo.stable_state()
