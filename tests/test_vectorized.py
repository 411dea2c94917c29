"""Differential tests for the numpy routing kernel and its plumbing.

The bucket kernel (:func:`repro.core.fixing._run_np`)
is a performance rewrite of the seed engine's fixing pass: Theorem
2.1's unique stable state means every entry point must agree with the
seed reference engine (:mod:`repro.core.refimpl`) **bit for bit** on
every observable (counts, routes, rank keys, next-hop sets), for every
rank model, attacker strategy and graph variant.  The grid here runs
the full cross product at reduced scale; the reference engine is the
oracle (:class:`RefOracle`).

The fork-teardown regression rides along: a SIGTERM'd run must not
leave pool workers behind.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import BASELINE, Deployment, SECURITY_MODELS, lp2_variant
from repro.core.attacks import (
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    SILENT,
    AttackStrategy,
    PathLengthHijack,
    ResolvedAttack,
)
from repro.core.rank import RankModel, SecurityModel, pack_key
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.core import context, fixing, outcome
from repro.core.context import RoutingContext
from repro.core.fixing import _NP_INF
from repro.core.jobs import (
    DestinationSweep,
    batch_happiness_counts,
    jobs_happiness_counts,
    rollout_happiness_counts,
)
from repro.core.outcome import (
    batch_outcomes,
    compute_routing_outcome,
    normal_conditions,
)
from repro.topology import TopologyParams, gadgets, generate_topology
from repro.topology.graph import ASGraph, graph_from_edges
from repro.topology.ixp import augment_with_ixp_peering

from test_attacks import CustomerScopeHijack
from test_destination_sweep import per_pair_counts, ref_pair_counts

CLASSIC_MODELS = (BASELINE,) + SECURITY_MODELS
ALL_MODELS = CLASSIC_MODELS + tuple(lp2_variant(m) for m in CLASSIC_MODELS)
# The attacker root is the one source whose export scope a strategy
# sets: everyone (the shipped strategies), nobody (``honest`` without a
# route: inactive) or, with the test-only strategy, its customers.
STRATEGIES = (
    ONE_HOP_HIJACK, HONEST, FORGED_ORIGIN, PathLengthHijack(2),
    CustomerScopeHijack(),
)


@pytest.fixture(scope="module", params=[False, True], ids=["base", "ixp"])
def graph(request):
    topo = generate_topology(TopologyParams(n=300, seed=2013))
    if request.param:
        return augment_with_ixp_peering(topo.graph, topo.ixp_members).graph
    return topo.graph


class RefOracle:
    """The seed engine behind every answer the kernel is held to: one
    reference pass a pair and step, in the shapes the engine's entry
    points return."""

    def __init__(self, graph):
        self.ctx = RefRoutingContext(graph)
        self.asns = sorted(graph.asns)
        self.index_of = {asn: i for i, asn in enumerate(self.asns)}

    def outcome(self, d, m, deployment, model, attack=ONE_HOP_HIJACK):
        return ref_compute_routing_outcome(
            self.ctx, d, m, deployment, model, attack=attack
        )

    def counts(self, pairs, deployment, model, attack=ONE_HOP_HIJACK):
        """``batch_happiness_counts``' answer."""
        return ref_pair_counts(self.ctx, pairs, deployment, model, attack)

    def chain(self, pairs, deployments, model, attack=ONE_HOP_HIJACK):
        """``rollout_happiness_counts``' answer."""
        return [self.counts(pairs, dep, model, attack) for dep in deployments]

    def jobs(self, jobs):
        """``jobs_happiness_counts``' answer."""
        return [self.chain(*job) for job in jobs]

    @staticmethod
    def pass_counts(ref):
        """A pass's six counts (:attr:`repro.core.fixing.StatePass.counts`)."""
        return (
            *ref.count_happy(), *ref.count_attacked(),
            ref.count_secure_sources(), sum(1 for _ in ref.sources()),
        )

    def keys(self, ref):
        """Per dense index the packed rank key, ``_NP_INF`` where none
        (a root, or an AS no route reaches)."""
        return [
            _NP_INF if info is None or info.key is None else pack_key(info.key)
            for info in map(ref.routes.get, self.asns)
        ]

    def state(self, ref):
        """Per dense index what a state call leaves in its arrays (``cls``
        is left out: a root's is not a route's)."""
        unreached = (False, 0, 0, False, False, None, 0)
        rows = [
            unreached if info is None else (
                True, info.length, int(info.reaches), info.wire_secure,
                info.secure, info.choice, int(info.endpoint),
            )
            for info in map(ref.routes.get, self.asns)
        ]
        fixed, length, reach, wire, sec, choice, endp = zip(*rows)
        return {
            "fixed": list(fixed), "len": list(length), "reach": list(reach),
            "wire": [int(w) for w in wire], "sec": [int(x) for x in sec],
            "choice": [-1 if c is None else self.index_of[c] for c in choice],
            "endp": list(endp), "key": self.keys(ref),
        }


@pytest.fixture(scope="module")
def oracle(graph):
    return RefOracle(graph)


@pytest.fixture(scope="module")
def vec_ctx(graph):
    return RoutingContext(graph)


def _instances(graph, salt, k=3):
    """k seeded (attacker, destination, deployment) triples."""
    rnd = random.Random(f"vec/{salt}")
    asns = graph.asns
    out = []
    for _ in range(k):
        d = rnd.choice(asns)
        m = rnd.choice([a for a in asns if a != d])
        members = rnd.sample(asns, rnd.randint(0, len(asns) // 2))
        dep = Deployment.of(members)
        if rnd.random() < 0.5:
            dep = dep.with_simplex_stubs(graph)
        out.append((m, d, dep))
    return out


@pytest.fixture()
def count_rows(monkeypatch):
    """The ``(kernel model, rows)`` of every count call of ``_run_np``
    until the test ends (state calls are not listed)."""
    calls = []
    run_np = fixing._run_np

    def spying(ctx, rows, model, **kwargs):
        if not kwargs.get("state"):
            calls.append((model, len(rows)))
        return run_np(ctx, rows, model, **kwargs)

    monkeypatch.setattr(fixing, "_run_np", spying)
    return calls


@dataclass(frozen=True)
class SignedClaimHijack(AttackStrategy):
    """Test-only strategy: the one-hop lie with valid-looking signatures
    whatever the destination does.  No shipped strategy signs a claim
    about an unsigned destination, so only this one reaches the blind
    rule's attacker clause."""

    token = "test_signed_claim"

    def resolve(self, dest_signed, baseline=None):
        return ResolvedAttack(length=1, wire=True, export_all=True)


def _is_blind(model, row) -> bool:
    """Whether a kernel row ``(dest_i, att_i, signing, ranking,
    resolved)`` ranks as the baseline placement does: no signed
    announcement (the destination does not sign; the attacker is
    absent, silent or unsigned), or the baseline placement itself."""
    dest_i, att_i, signing, _ranking, resolved = row
    signed = signing[dest_i] or (att_i >= 0 and resolved.active and resolved.wire)
    return not (model.uses_security and signed)


def _blind_model(model):
    return RankModel(SecurityModel.BASELINE, model.local_preference)


def _kernel_pass(ctx, model, deployment, m, d, attack):
    """The ``_run_np`` pass ``jobs_happiness_counts`` runs for pair
    ``(m, d)`` under ``deployment``: a blind row (:func:`_is_blind`) is
    the baseline placement's pass of its local preference, whatever
    deploys."""
    dest_i, att_i = ctx._check_pair(d, m)
    deployment = deployment or Deployment.empty()
    masks = ctx.deployment_masks(deployment)
    resolved = fixing._resolve_attack(ctx, dest_i, att_i, *masks, model, attack)
    if _is_blind(model, (dest_i, att_i, *masks, resolved)):
        return _blind_model(model), dest_i, att_i, resolved
    return model, deployment, dest_i, att_i, resolved


class TestDifferentialGrid:
    """The kernel vs the reference engine, full observable state."""

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_outcomes_bit_identical(self, graph, oracle, vec_ctx, model, attack):
        for m, d, dep in _instances(graph, f"{model.label}/{attack.token}"):
            ref = oracle.outcome(d, m, dep, model, attack)
            vec = compute_routing_outcome(
                vec_ctx, d, attacker=m, deployment=dep, model=model,
                attack=attack,
            )
            assert vec_ctx._np_scratch["key"].tolist() == oracle.keys(ref)
            assert dict(vec.routes) == ref.routes
            assert vec._counts == oracle.pass_counts(ref)
            assert vec.count_happy() == ref.count_happy()
            assert vec.count_attacked() == ref.count_attacked()
            assert vec.count_secure_sources() == ref.count_secure_sources()

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize("model", CLASSIC_MODELS, ids=lambda m: m.label)
    def test_vectorized_matches_reference_engine(self, graph, vec_ctx, model, attack):
        ref_ctx = RefRoutingContext(graph)
        for m, d, dep in _instances(graph, f"ref/{model.label}/{attack.token}", k=2):
            vec = compute_routing_outcome(
                vec_ctx, d, attacker=m, deployment=dep, model=model,
                attack=attack,
            )
            ref = ref_compute_routing_outcome(
                ref_ctx, d, attacker=m, deployment=dep, model=model,
                attack=attack,
            )
            assert dict(vec.routes) == ref.routes
            assert vec.count_happy() == ref.count_happy()
            assert vec.count_attacked() == ref.count_attacked()
            assert vec.count_secure_sources() == ref.count_secure_sources()

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    def test_counts_both_scheduling_modes(self, graph, oracle, vec_ctx, attack):
        insts = _instances(graph, f"counts/{attack.token}", k=4)
        pairs = [(m, d) for m, d, _ in insts] + [(None, insts[0][1])]
        dep = insts[0][2]
        for model in ALL_MODELS:
            expected = oracle.counts(pairs, dep, model, attack)
            for counts in (batch_happiness_counts, per_pair_counts):
                got = counts(vec_ctx, pairs, dep, model, attack=attack)
                assert got == expected, (model.label, counts.__name__)

    def test_rollout_chain_matches_reference(self, graph, oracle, vec_ctx):
        rnd = random.Random("vec/rollout")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [Deployment.of(members[:k]) for k in (0, 15, 30, 60)]
        pairs = [
            (m, d)
            for m, d, _ in _instances(graph, "rollout-pairs", k=5)
        ]
        for model in ALL_MODELS:
            expected = oracle.chain(pairs, chain, model)
            got = rollout_happiness_counts(vec_ctx, pairs, chain, model)
            assert got == expected, model.label


class TestDeltaKernels:
    """A sweep's attacker pass must be the reference engine's bit for
    bit, for every model and attacker strategy, whatever state calls
    run on its context in between."""

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize(
        "model", ALL_MODELS[1::2], ids=lambda m: m.label
    )
    def test_kernels_bit_identical(
        self, graph, oracle, vec_ctx, model, attack
    ):
        for m, d, dep in _instances(
            graph, f"delta/{model.label}/{attack.token}", k=2
        ):
            (counts,) = oracle.counts([(m, d)], dep, model, attack)
            sv = DestinationSweep(vec_ctx, d, dep, model, attack=attack)
            assert sv.happiness_counts(m) == counts
            assert sv.last_delta_path == "dense"
            assert dict(compute_routing_outcome(
                vec_ctx, d, m, dep, model, attack
            ).routes) == oracle.outcome(d, m, dep, model, attack).routes
            assert dict(normal_conditions(
                vec_ctx, d, dep, model
            ).routes) == oracle.outcome(d, None, dep, model).routes
            # Leak-freedom: neither state call leaves a trace in the
            # sweep's baseline.
            assert sv.happiness_counts(m) == counts

    def test_numpy_snapshot_baseline(self, graph, oracle, vec_ctx):
        """A sweep's baseline is numpy copies of the three arrays
        ``honest`` reads, no view of the context's scratch; the counts
        match."""
        m, d, dep = _instances(graph, "npsnap", k=1)[0]
        sn = DestinationSweep(vec_ctx, d, dep, SECURITY_MODELS[0], HONEST)
        scratch = vec_ctx._np_scratch.values()
        base = sn._base.values()
        assert [a.dtype for a in base] == [np.bool_, np.int64, np.int64]
        assert not any(np.shares_memory(a, b) for a in base for b in scratch)
        counts = sn.happiness_counts(m)
        assert [counts] == oracle.counts([(m, d)], dep, SECURITY_MODELS[0], HONEST)


class TestFreshContext:
    """A fresh context answers every entry point that accepts its input
    — stub simplex, counts and full state — as the reference engine
    does."""

    @pytest.mark.parametrize(
        "attack", [ONE_HOP_HIJACK, HONEST, FORGED_ORIGIN],
        ids=lambda a: a.token,
    )
    def test_every_entry_point_matches_the_reference(self, graph, oracle, attack):
        bare = RoutingContext(graph)
        rnd = random.Random(f"vec/bare/{attack.token}")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [
            Deployment.of(members[:k]).with_simplex_stubs(graph)
            for k in (0, 20, 40, 60)
        ]
        assert chain[-1].simplex
        few_d, many_d = rnd.sample(asns, 2)
        others = [a for a in asns if a not in (few_d, many_d)]
        pairs = (
            [(m, few_d) for m in rnd.sample(others, 2)]
            + [(None, few_d)]
            + [(m, many_d) for m in rnd.sample(others, 5)]
        )
        model = SECURITY_MODELS[1]
        assert rollout_happiness_counts(
            bare, pairs, chain, model, attack=attack
        ) == oracle.chain(pairs, chain, model, attack)
        assert batch_happiness_counts(
            bare, pairs, chain[2], model, attack=attack
        ) == oracle.counts(pairs, chain[2], model, attack)
        m = pairs[-1][0]
        for step in chain[1:]:
            assert (
                dict(normal_conditions(bare, many_d, step, model).routes),
                dict(compute_routing_outcome(
                    bare, many_d, m, step, model, attack
                ).routes),
                DestinationSweep(
                    bare, many_d, step, model, attack
                ).happiness_counts(m),
            ) == (
                oracle.outcome(many_d, None, step, model).routes,
                oracle.outcome(many_d, m, step, model, attack).routes,
                oracle.counts([(m, many_d)], step, model, attack)[0],
            )
        want = [oracle.outcome(d, m, chain[-1], model, attack) for m, d in pairs]
        for (m, d), ref in zip(pairs, want):
            got = compute_routing_outcome(
                bare, d, attacker=m, deployment=chain[-1], model=model,
                attack=attack,
            )
            assert dict(got.routes) == ref.routes
            assert got.count_happy() == ref.count_happy()
            assert got.count_secure_sources() == ref.count_secure_sources()
        for got, want in (
            (
                [normal_conditions(bare, many_d, chain[-1], model)],
                [oracle.outcome(many_d, None, chain[-1], model)],
            ),
            (batch_outcomes(bare, pairs, chain[-1], model, attack), want),
        ):
            assert [dict(o.routes) for o in got] == [o.routes for o in want]


class TestLazyNextHopPairs:
    """Next-hop pairs are built by their one reader, a full outcome,
    once; the count path, whose groups are rows, and a sweep never
    build them."""

    MODEL = SECURITY_MODELS[0]

    def test_pairs_are_built_by_their_first_reader_only(
        self, graph, oracle, vec_ctx, count_calls
    ):
        rnd = random.Random("vec/lazy")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [
            Deployment.of(members[:k]).with_simplex_stubs(graph)
            for k in (0, 20, 40, 60)
        ]
        few_d, many_d = rnd.sample([a for a in asns if a not in members], 2)
        others = [a for a in asns if a not in (few_d, many_d)]
        pairs = (
            [(m, few_d) for m in rnd.sample(others, 2)]
            + [(None, few_d)]
            + [(m, many_d) for m in rnd.sample(others, 5)]
        )
        expected = oracle.chain(pairs, chain, self.MODEL)
        pair_sets = count_calls(outcome, "_np_nhop_pairs")
        got = rollout_happiness_counts(vec_ctx, pairs, chain, self.MODEL)
        assert got == expected
        assert pair_sets == [0]
        m = pairs[-1][0]
        for step in chain:
            DestinationSweep(vec_ctx, many_d, step, self.MODEL).happiness_counts(m)
        assert pair_sets == [0]

        out = compute_routing_outcome(vec_ctx, many_d, m, chain[-1], self.MODEL)
        routes = dict(out.routes)
        assert pair_sets == [1]
        assert routes == oracle.outcome(many_d, m, chain[-1], self.MODEL).routes
        # ...and an outcome that has its pairs never computes them again.
        assert dict(out.routes) == routes
        assert pair_sets == [1]


class TestRowsKernel:
    """``_run_np`` takes K fixing passes as the rows of one bucket loop
    and ``jobs_happiness_counts`` feeds it every pair-step of every job
    that shares a model: a row must be the pass it would be alone — and
    the reference engine's — whatever shares its batch."""

    CASES = [(n, seed) for seed in (1, 2, 3, 4) for n in (60, 150, 300)][:8]

    @staticmethod
    def _setup(case):
        n, seed = TestRowsKernel.CASES[case]
        topo = generate_topology(TopologyParams(n=n, seed=seed))
        graph = topo.graph
        if case % 4 == 3:
            graph = augment_with_ixp_peering(graph, topo.ixp_members).graph
        rnd = random.Random(f"rows/{case}")
        asns = graph.asns
        members = rnd.sample(asns, len(asns) // 3)
        cuts = [0, len(members) // 4, len(members) // 2, len(members)]
        chain = [
            Deployment.of(members[:cut]).with_simplex_stubs(graph) for cut in cuts
        ]
        assert chain[-1].simplex
        # a destination that starts signing mid-chain
        late = members[cuts[2] - 1]
        assert late not in chain[1] and late in chain[2]
        return graph, rnd, chain, late, RoutingContext(graph), RefOracle(graph)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_batch_equals_rows_alone_equals_reference(self, case):
        graph, rnd, chain, late, vec, oracle = self._setup(case)
        asns = graph.asns
        for model in CLASSIC_MODELS + (lp2_variant(SECURITY_MODELS[1]),):
            rows, refs = [], []
            for attack in STRATEGIES:
                for deployment in chain:
                    d = rnd.choice([late, rnd.choice(asns)])
                    m = rnd.choice([a for a in asns if a != d])
                    if rnd.random() < 0.25:
                        m = None
                    dest_i, att_i = vec._check_pair(d, m)
                    masks = vec.deployment_masks(deployment)
                    resolved = fixing._resolve_attack(
                        vec, dest_i, att_i, *masks, model, attack
                    )
                    rows.append((dest_i, att_i, *masks, resolved))
                    refs.append(oracle.outcome(d, m, deployment, model, attack))
            assert 1 < len(rows) <= vec.batch_rows
            assert any(row[1] < 0 for row in rows)
            assert {row[4].export_all for row in rows} == {True, False}
            batch = fixing._run_np(vec, rows, model)
            for row, ref, counts in zip(rows, refs, batch):
                assert counts == oracle.pass_counts(ref)
                assert fixing._run_np(vec, [row], model) == [counts]
                state = fixing._run(vec, *row[:4], model, row[4])
                assert state.counts == counts
                # the state call returns the reference's state in its
                # arrays (a reached AS's class is its route's)
                st, want = state.arrays, oracle.state(ref)
                for name, values in want.items():
                    assert st[name].tolist() == values, name
                roots = {row[0], row[1]}
                for v, asn in enumerate(oracle.asns):
                    info = ref.routes.get(asn)
                    if info is not None and v not in roots:
                        assert st["cls"][v] == info.route_class, v

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_jobs_equal_one_job_calls_equal_reference(self, case, count_rows):
        graph, rnd, chain, late, vec, oracle = self._setup(case)
        asns = graph.asns

        def pairs_at(d, attackers, normal=False):
            others = [a for a in asns if a != d]
            return [(m, d) for m in rnd.sample(others, attackers)] + (
                [(None, d)] if normal else []
            )

        few, many, other = rnd.sample([a for a in asns if a != late], 3)
        first, second = SECURITY_MODELS[0], lp2_variant(SECURITY_MODELS[2])
        jobs = [
            (  # a few-attacker and a many-attacker group, the late signer
                pairs_at(few, 2, normal=True) + pairs_at(many, 5)
                + pairs_at(late, 1, normal=True),
                chain, first, ONE_HOP_HIJACK,
            ),
            (pairs_at(other, 3) + pairs_at(late, 2), chain[1:3], first, FORGED_ORIGIN),
            (pairs_at(few, 2) + pairs_at(other, 1), [chain[2]], first, HONEST),
            (pairs_at(many, 1) + pairs_at(few, 3), chain, second, CustomerScopeHijack()),
            (pairs_at(other, 1, normal=True), [None], second, PathLengthHijack(2)),
        ]
        together = jobs_happiness_counts(vec, jobs)
        batches = list(count_rows)
        # each distinct pass is one row, whichever rows ask for it
        passes = {
            _kernel_pass(vec, model, deployment, m, d, attack)
            for pairs, deployments, model, attack in jobs
            for deployment in deployments
            for m, d in pairs
        }
        assert sum(rows for _, rows in batches) == len(passes)
        # jobs 0 to 2 share a model, so all their non-blind rows share
        # a batch (job 2's honest rows resolve from attacker-free passes)
        first_passes = [p for p in passes if p[0] == first]
        assert len(first_passes) <= vec.batch_rows
        assert [rows for model, rows in batches if model == first] == [
            len(first_passes)
        ]
        alone = [
            rollout_happiness_counts(vec, pairs, deployments, model, attack=attack)
            for pairs, deployments, model, attack in jobs
        ]
        assert together == alone
        assert together == oracle.jobs(jobs)
        per_pair = [
            [
                per_pair_counts(vec, pairs, deployment, model, attack=attack)
                for deployment in deployments
            ]
            for pairs, deployments, model, attack in jobs
        ]
        assert together == per_pair

    @staticmethod
    def _rows(ctx, rnd, deployment, model, count):
        asns = ctx.asns
        masks = ctx.deployment_masks(deployment)
        rows = []
        for _ in range(count):
            d, m = rnd.sample(asns, 2)
            dest_i, att_i = ctx._check_pair(d, m)
            rows.append((dest_i, att_i, *masks, fixing._resolve_attack(
                ctx, dest_i, att_i, *masks, model, ONE_HOP_HIJACK
            )))
        return rows

    def test_more_rows_than_batch_rows(self, graph, vec_ctx):
        """A count call's scratch fits the call, whatever an earlier,
        smaller call allocated."""
        rnd = random.Random("rows/oversize")
        model = SECURITY_MODELS[1]
        deployment = Deployment.of(rnd.sample(graph.asns, 100))
        fixing._run_np(vec_ctx, self._rows(vec_ctx, rnd, deployment, model, 2), model)
        rows = self._rows(vec_ctx, rnd, deployment, model, 112)
        assert len(rows) > vec_ctx.batch_rows
        alone = [c for row in rows for c in fixing._run_np(vec_ctx, [row], model)]
        assert fixing._run_np(vec_ctx, rows, model) == alone

    @pytest.mark.parametrize("k", [1, 5])
    def test_count_call_leaves_the_state_call_alone(self, graph, vec_ctx, k):
        """A count call, one row or many, leaves the arrays the last
        state call returned as they were."""
        rnd = random.Random(f"rows/alone/{k}")
        model = SECURITY_MODELS[0]
        deployment = Deployment.of(rnd.sample(graph.asns, 100))
        (row,) = self._rows(vec_ctx, rnd, deployment, model, 1)
        state = fixing._run(vec_ctx, *row[:4], model, row[4])
        arrays = {name: a.copy() for name, a in state.arrays.items()}
        fixing._run_np(vec_ctx, self._rows(vec_ctx, rnd, deployment, model, k), model)
        assert state.arrays is vec_ctx._np_scratch
        for name, a in state.arrays.items():
            assert np.array_equal(a, arrays[name]), name

    def test_roots_of_every_scope_length_and_wire_share_a_batch(self):
        """Attackers whose roots differ in export scope, claimed length
        and wire relax from one batch, under LP2, on a graph with ASes
        no route reaches: every row equals the reference engine's pass."""
        graph = generate_topology(TopologyParams(n=150, seed=5)).graph
        asns = list(graph.asns)
        graph.add_customer_provider(max(asns) + 1, max(asns) + 2)  # an island
        vec = RoutingContext(graph)
        oracle = RefOracle(graph)
        model = lp2_variant(SECURITY_MODELS[1])
        rnd = random.Random("rows/roots")
        deployment = Deployment.of(rnd.sample(asns, 60)).with_simplex_stubs(graph)
        masks = vec.deployment_masks(deployment)
        signed = sorted(deployment.full | deployment.simplex)
        rows, refs = [], []
        for attack in (
            ONE_HOP_HIJACK, PathLengthHijack(2), CustomerScopeHijack(),
            FORGED_ORIGIN,
        ):
            for _ in range(3):
                d = rnd.choice(signed)
                m = rnd.choice([a for a in asns if a != d])
                dest_i, att_i = vec._check_pair(d, m)
                resolved = attack.resolve(dest_signed=True)
                rows.append((dest_i, att_i, *masks, resolved))
                refs.append(oracle.outcome(d, m, deployment, model, attack))
        roots = {(r[4].export_all, r[4].length, r[4].wire) for r in rows}
        assert len(roots) == 4
        batch = fixing._run_np(vec, rows, model)
        for ref, counts in zip(refs, batch):
            assert counts == oracle.pass_counts(ref)
            assert counts[5] <= vec.n - 4  # the island is never fixed

    def test_rows_reject_an_unnested_chain_before_any_pass(
        self, graph, vec_ctx, count_calls
    ):
        """A chain's groups are rows, equal to one pass a pair;
        a chain that does not nest is rejected before any pass."""
        passes = count_calls(fixing, "_run_np")
        rnd = random.Random("rows/steps")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [Deployment.of(members[:k]) for k in (0, 20, 40, 60)]
        pairs = [(m, d) for m, d, _ in _instances(graph, "rows/steps", k=3)]
        got = rollout_happiness_counts(vec_ctx, pairs, chain, BASELINE)
        assert passes[0] > 0
        assert got == [
            per_pair_counts(vec_ctx, pairs, deployment, BASELINE)
            for deployment in chain
        ]
        passes[0] = 0
        with pytest.raises(ValueError, match="nested"):
            rollout_happiness_counts(vec_ctx, pairs, chain[::-1], BASELINE)
        assert passes == [0]


class TestBlindRows:
    """A blind row (:func:`_is_blind`) is, count for count, the baseline
    placement's row of its local preference under no deployment: with
    ``sec = 0`` every placement orders routes by ``(LP bucket, length)``
    with the same ties, and without a secure route neither the masks
    nor the placement is read.  ``jobs_happiness_counts`` therefore
    runs each such pass once, whatever deploys and ranks around it."""

    @staticmethod
    def _rows(ctx, graph, salt, model):
        """Rows of every strategy, a silent attacker and no attacker,
        on unsigned and signed destinations under one deployment."""
        rnd = random.Random(f"vec/blind/{salt}")
        asns = graph.asns
        deployment = Deployment.of(
            rnd.sample(asns, len(asns) // 3)
        ).with_simplex_stubs(graph)
        masks = ctx.deployment_masks(deployment)
        signed = sorted(deployment.signing_members)
        unsigned = [a for a in asns if a not in deployment.signing_members]
        rows = []
        for attack in STRATEGIES + (SILENT, None):
            for dests in (unsigned, unsigned, signed):
                d = rnd.choice(dests)
                m = None if attack is None else rnd.choice([a for a in asns if a != d])
                dest_i, att_i = ctx._check_pair(d, m)
                if attack is SILENT:
                    resolved = SILENT
                else:
                    resolved = fixing._resolve_attack(
                        ctx, dest_i, att_i, *masks, model, attack or ONE_HOP_HIJACK
                    )
                rows.append((dest_i, att_i, *masks, resolved))
        return rows

    @staticmethod
    def _baseline_rows(ctx, rows):
        """The same ``(dest_i, att_i, resolved)`` rows under no deployment."""
        blank = ctx.deployment_masks(Deployment.empty())
        return [(row[0], row[1], *blank, row[4]) for row in rows]

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_blind_row_is_the_baseline_placements_row(self, graph, vec_ctx, model):
        rows = self._rows(vec_ctx, graph, model.label, model)
        blind = [row for row in rows if _is_blind(model, row)]
        assert len(blind) >= 14 and any(not row[4].active for row in blind)
        assert {row[4].wire for row in blind} == (
            {False} if model.uses_security else {False, True}
        )
        base = _blind_model(model)
        want = fixing._run_np(vec_ctx, self._baseline_rows(vec_ctx, blind), base)
        assert want == [
            c for row in self._baseline_rows(vec_ctx, blind)
            for c in fixing._run_np(vec_ctx, [row], base)
        ]
        together = fixing._run_np(vec_ctx, rows, model)  # K > 1, mixed with the rest
        assert [c for row, c in zip(rows, together) if _is_blind(model, row)] == want
        assert [fixing._run_np(vec_ctx, [row], model)[0] for row in blind] == want

    def test_a_signed_destination_is_not_blind(self, graph, vec_ctx):
        """The counter-case: under a security placement a signed
        destination's row is a pass of its own, which differs from the
        baseline placement's row somewhere — the rule is not vacuous."""
        differ = 0
        for model in ALL_MODELS:
            if not model.uses_security:
                continue
            rows = [
                row for row in self._rows(vec_ctx, graph, model.label, model)
                if not _is_blind(model, row)
            ]
            assert rows
            got = fixing._run_np(vec_ctx, rows, model)
            want = fixing._run_np(
                vec_ctx, self._baseline_rows(vec_ctx, rows), _blind_model(model)
            )
            differ += sum(g[:2] != w[:2] for g, w in zip(got, want))
        assert differ

    def test_a_signed_claim_on_an_unsigned_destination_is_not_blind(
        self, graph, oracle, vec_ctx
    ):
        """The rule's other clause: a claim with valid-looking signatures
        makes a row sighted even where the destination does not sign, so
        its counts are the reference engine's under the placement, which
        differ from the baseline placement's somewhere."""
        rnd = random.Random("vec/blind/signed-claim")
        asns = graph.asns
        deployment = Deployment.of(rnd.sample(asns, len(asns) // 3))
        unsigned = [a for a in asns if a not in deployment.signing_members]
        pairs = [
            (m, d)
            for d in rnd.sample(unsigned, 3)
            for m in rnd.sample([a for a in asns if a != d], 2)
        ]
        attack = SignedClaimHijack()
        differ = 0
        for model in SECURITY_MODELS:
            got = batch_happiness_counts(
                vec_ctx, pairs, deployment, model, attack=attack
            )
            assert got == oracle.counts(pairs, deployment, model, attack)
            blind = oracle.counts(pairs, deployment, _blind_model(model), attack)
            differ += sum(g != b for g, b in zip(got, blind))
        assert differ

    def test_a_chain_runs_each_distinct_pass_once(
        self, graph, oracle, vec_ctx, count_rows, count_calls
    ):
        """A destination that signs only at the last of four steps: its
        first three steps are one blind pass a pair, shared by the three
        placements, and its last step one pass a pair and placement —
        all count rows, no state call."""
        rnd = random.Random("vec/blind/chain")
        asns = graph.asns
        d = rnd.choice(asns)
        others = [a for a in asns if a != d]
        members = rnd.sample(others, 60)
        chain = [
            Deployment.of(members[:k] + ([d] if k == 60 else []))
            .with_simplex_stubs(graph)
            for k in (0, 20, 40, 60)
        ]
        pairs = [(m, d) for m in rnd.sample(others, 4)] + [(None, d)]
        jobs = [(pairs, chain, model, ONE_HOP_HIJACK) for model in SECURITY_MODELS]

        def distinct(jobs):
            return {
                _kernel_pass(vec_ctx, model, deployment, m, d, attack)
                for pairs, deployments, model, attack in jobs
                for deployment in deployments
                for m, d in pairs
            }

        passes = count_calls(fixing, "_run")
        for job in jobs:
            count_rows.clear()
            got = rollout_happiness_counts(vec_ctx, *job[:3], attack=job[3])
            assert got == oracle.chain(*job)
            assert len(distinct([job])) == 2 * len(pairs)
            assert sum(rows for _, rows in count_rows) == 2 * len(pairs)
        count_rows.clear()
        got = jobs_happiness_counts(vec_ctx, jobs)
        assert got == oracle.jobs(jobs)
        assert len(distinct(jobs)) == 4 * len(pairs)
        assert sum(rows for _, rows in count_rows) == 4 * len(pairs)
        assert passes == [0]


class TestEveryGroupIsRows:
    """Every destination group is count rows, however many attackers it
    has and whatever its strategy: no sweep is built,
    and a ``needs_baseline`` strategy (``honest``) resolves each
    attacker from one attacker-free pass per ``(d, S_t)``."""

    MANY = 5

    @staticmethod
    def _chain_and_pairs(graph, salt, attackers):
        """A 4-step chain with simplex stubs in which the first of two
        destinations starts signing at step 2, and ``attackers`` pairs
        per destination plus an attacker-free one."""
        rnd = random.Random(f"vec/groups/{salt}")
        asns = graph.asns
        d1, d2 = rnd.sample(asns, 2)
        members = rnd.sample([a for a in asns if a not in (d1, d2)], 60)
        cuts = (0, 20, 40, 60)
        chain = [
            Deployment.of(members[:k] + ([d1] if k >= 40 else []))
            .with_simplex_stubs(graph)
            for k in cuts
        ]
        pairs = []
        for d in (d1, d2):
            others = [a for a in asns if a not in (d1, d2)]
            pairs += [(m, d) for m in rnd.sample(others, attackers)]
        return chain, pairs + [(None, d1)]

    @pytest.mark.parametrize(
        "attackers, attack",
        [
            (4, ONE_HOP_HIJACK),
            (2, HONEST),
            (4, FORGED_ORIGIN),
        ],
        ids=["many-attackers", "honest", "many-forged-origin"],
    )
    def test_no_group_builds_a_sweep(
        self, graph, oracle, vec_ctx, count_calls, attackers, attack
    ):
        chain, pairs = self._chain_and_pairs(graph, attack.token, attackers)
        model = SECURITY_MODELS[1]
        for deployments in (chain, chain[:1]):
            want = oracle.chain(pairs, deployments, model, attack)
            sweeps = count_calls(DestinationSweep, "__init__")
            got = rollout_happiness_counts(
                vec_ctx, pairs, deployments, model, attack=attack
            )
            assert sweeps == [0]
            assert got == want

    def test_rows_equal_per_pair_and_reference(self, graph, oracle, vec_ctx):
        """``honest`` and many-attacker rows under every model, on 1-
        and 4-step chains, in one call: equal to the reference engine,
        one pass a pair-step, and to one full state pass a pair-step
        (``batch_outcomes``)."""
        chain, pairs = self._chain_and_pairs(graph, "oracles", self.MANY)
        jobs = [
            (pairs, deployments, model, attack)
            for model in ALL_MODELS
            for attack in (HONEST, ONE_HOP_HIJACK)
            for deployments in (chain, chain[2:3])
        ]
        got = jobs_happiness_counts(vec_ctx, jobs)
        assert got == oracle.jobs(jobs)
        for (pairs, deployments, model, attack), job in zip(jobs, got):
            for deployment, step in zip(deployments, job):
                assert step == per_pair_counts(
                    vec_ctx, pairs, deployment, model, attack=attack
                ), (model.label, attack.token)

    def test_honest_runs_one_attacker_free_pass_per_destination_step(
        self, graph, oracle, vec_ctx, count_calls, monkeypatch
    ):
        """One ``_run`` per ``(d, S_t)``, however many attackers share it
        and however the batches split its rows — for one destination
        group, whose steps follow each other, and for two."""
        chain, pairs = self._chain_and_pairs(graph, "passes", self.MANY)
        model = SECURITY_MODELS[0]
        passes = count_calls(fixing, "_run")
        for group in (pairs[: self.MANY], pairs):
            want = oracle.chain(group, chain, model, HONEST)
            destinations = len({d for _, d in group})
            for rows_a_call in (vec_ctx.batch_rows, 3):
                monkeypatch.setattr(
                    context, "NP_ROWS_BUDGET", rows_a_call * vec_ctx.n
                )
                passes[0] = 0
                got = rollout_happiness_counts(
                    vec_ctx, group, chain, model, attack=HONEST
                )
                assert got == want
                assert passes == [destinations * len(chain)], rows_a_call


class TestOneEngine:
    """Every context runs the numpy kernel, however small: at ``tiny``
    and on each hand-built gadget, the full-state and the count entry
    points call ``_run_np`` only (``_run`` is its one-row state call),
    and they answer what the reference engine does, route for route,
    under every classic model."""

    @staticmethod
    def _check(ctx, pairs, deployment, model, attack, count_calls):
        runs = count_calls(fixing, "_run")
        kernel = count_calls(fixing, "_run_np")
        oracle = RefOracle(ctx.graph)
        # A ``needs_baseline`` strategy (``honest``) reads the attacker's
        # record from one attacker-free state call per destination first.
        for m, d in pairs:
            runs[0] = kernel[0] = 0
            got = compute_routing_outcome(ctx, d, m, deployment, model, attack)
            calls = 2 if attack.needs_baseline and m is not None else 1
            assert runs == kernel == [calls], (m, d)
            want = oracle.outcome(d, m, deployment, model, attack)
            assert dict(got.routes) == want.routes, (m, d)
        runs[0] = kernel[0] = 0
        got = jobs_happiness_counts(ctx, [(pairs, [deployment], model, attack)])
        attacked = {d for m, d in pairs if m is not None}
        assert runs == [len(attacked) if attack.needs_baseline else 0]
        assert kernel[0] > runs[0]
        assert got == [[oracle.counts(pairs, deployment, model, attack)]]

    @pytest.fixture(scope="class")
    def tiny(self):
        from repro.experiments.runner import make_context

        with make_context("tiny") as ectx:
            graph = ectx.graph
            rnd = random.Random("one-engine/tiny")
            asns = graph.asns
            pairs = [tuple(rnd.sample(asns, 2)) for _ in range(4)]
            deployment = Deployment.of(
                rnd.sample(asns, len(asns) // 3)
            ).with_simplex_stubs(graph)
            yield ectx.graph_ctx, pairs + [(None, pairs[0][1])], deployment

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize("model", CLASSIC_MODELS, ids=lambda m: m.label)
    def test_tiny_runs_the_numpy_kernel(self, tiny, model, attack, count_calls):
        ctx, pairs, deployment = tiny
        self._check(ctx, pairs, deployment, model, attack, count_calls)

    @pytest.mark.parametrize("model", CLASSIC_MODELS, ids=lambda m: m.label)
    @pytest.mark.parametrize(
        "build",
        [
            gadgets.figure2_protocol_downgrade,
            gadgets.figure1_wedgie,
            gadgets.figure14_collateral,
            gadgets.figure15_collateral_benefit,
            gadgets.figure17_collateral_damage_sec1st,
        ],
        ids=lambda build: build.__name__,
    )
    def test_a_gadget_runs_the_numpy_kernel(self, build, model, count_calls):
        gadget = build()
        m, d = gadget.attacker, gadget.destination
        others = sorted(a for a in gadget.graph.asns if a not in (m, d))
        pairs = [(m, d), (None, d)] + [(m, a) for a in others[:3]]
        deployment = Deployment(full=gadget.secure, simplex=gadget.simplex)
        self._check(
            RoutingContext(gadget.graph), pairs, deployment, model,
            ONE_HOP_HIJACK, count_calls,
        )


class TestRowLayout:
    """``_run_np`` expands, for a source that exports to customers
    only, the tail of its CSR row: rows must list customers last."""

    @staticmethod
    def _check(ctx):
        start = ctx.adj_start
        *_, cust_start = ctx._np_adjacency()
        for u in range(ctx.n):
            row = bytes(ctx.adj_custflag[start[u]:start[u + 1]])
            ncust = len(ctx.customers_idx[u])
            assert row == bytes(len(row) - ncust) + b"\x01" * ncust, u
            assert cust_start[u] == start[u + 1] - ncust, u

    def test_customer_edges_are_the_tail_of_every_row(self, vec_ctx):
        self._check(vec_ctx)

    @pytest.mark.parametrize(
        "build",
        [
            gadgets.figure2_protocol_downgrade,
            gadgets.figure1_wedgie,
            gadgets.figure14_collateral,
            gadgets.figure15_collateral_benefit,
            gadgets.figure17_collateral_damage_sec1st,
        ],
        ids=lambda build: build.__name__,
    )
    def test_gadget_rows_too(self, build):
        self._check(RoutingContext(build().graph))


def _ixp_graph():
    topo = generate_topology(TopologyParams(n=300, seed=2013))
    return augment_with_ixp_peering(topo.graph, topo.ixp_members).graph


class TestCsrBuild:
    """A context builds its CSR from arrays, and derives the
    per-relationship index tuples only when a reader asks: both equal
    the reference engine's per-AS adjacency, row for row (providers,
    peers, customers, each sorted)."""

    @pytest.mark.parametrize(
        "build",
        [
            *(
                lambda seed=seed: generate_topology(
                    TopologyParams(n=52, seed=seed)
                ).graph
                for seed in (0, 7, 23)
            ),
            lambda: gadgets.figure2_protocol_downgrade().graph,
            lambda: gadgets.figure17_collateral_damage_sec1st().graph,
            _ixp_graph,
            lambda: generate_topology(TopologyParams(n=2200, seed=2013)).graph,
            ASGraph,
            lambda: graph_from_edges(customer_provider=[(5, 9)]),
            # ASNs 1..n: the lookup table (the CPs' ASNs make the others
            # too sparse for it below ~5 000 ASes)
            lambda: generate_topology(
                TopologyParams(n=400, seed=3, include_content_providers=False)
            ).graph,
            # too sparse an ASN space for a lookup table: binary search
            lambda: graph_from_edges(
                customer_provider=[(4_200_000_000, 7), (7, 13), (64_512, 13)],
                peerings=[(13, 4_200_000_000), (7, 64_512)],
            ),
        ],
        ids=[
            "diff0", "diff7", "diff23", "figure2", "figure17", "ixp",
            "medium", "empty", "one-edge", "compact-asns", "32-bit-asns",
        ],
    )
    def test_numpy_csr_equals_reference(self, build):
        graph = build()
        ctx = RoutingContext(graph)
        ref = RefRoutingContext(graph)
        asns = ctx.asns
        assert asns == sorted(ref.asns)
        start = ctx.adj_start.tolist()
        assert start[0] == 0 and len(start) == len(asns) + 1
        edges = list(zip(
            [asns[v] for v in ctx.adj_node.tolist()],
            ctx.adj_class.tolist(), ctx.adj_custflag.astype(bool).tolist(),
        ))
        for u, asn in enumerate(asns):
            assert tuple(edges[start[u] : start[u + 1]]) == ref.out_edges[asn], asn
        assert ctx._has_customers == bytes(bool(ref.customers_of[a]) for a in asns)
        assert ctx._rel_idx is None
        for name in ("providers", "customers", "peers"):
            want = [
                tuple(ctx.index_of[v] for v in getattr(ref, f"{name}_of")[a])
                for a in asns
            ]
            assert getattr(ctx, f"{name}_idx") == want, name

    def test_one_as_graph_builds(self):
        graph = ASGraph()
        graph.add_as(7)
        ctx = RoutingContext(graph)
        assert list(ctx.adj_start) == [0, 0] and ctx.providers_idx == [()]

    def test_counts_leave_the_index_tuples_unbuilt(self, graph):
        """The count path reads the CSR only: the O(V + E) python tuples
        must not come back on a context that runs nothing else."""
        ctx = RoutingContext(graph)
        (m, d, dep), *_ = _instances(graph, "csr/lazy")
        chain = [Deployment.empty(), dep.with_simplex_stubs(graph)]
        pairs = [(m, d), (None, d)]
        jobs_happiness_counts(ctx, [
            (pairs, chain, BASELINE, ONE_HOP_HIJACK),  # rows
            (pairs, chain, SECURITY_MODELS[0], HONEST),  # attacker-free passes
        ])
        assert ctx._rel_idx is None


class TestAdvance:
    """A chain step leaves the counts of a fresh sweep of that
    deployment — the reference engine's — a step that gains nothing and
    one that gains the destination included."""

    def test_advance_equals_a_fresh_sweep(self, graph, oracle, vec_ctx):
        rnd = random.Random("vec/step")
        asns = graph.asns
        d, m = rnd.sample(asns, 2)
        members = rnd.sample([a for a in asns if a not in (d, m)], 40)
        grow = [
            Deployment.of(members[:k]).with_simplex_stubs(graph)
            for k in (0, 15, 30)
        ]
        chain = grow + [
            grow[-1],  # a step that gains nothing
            Deployment.of(members + [d]).with_simplex_stubs(graph),  # gains d
        ]
        model = SECURITY_MODELS[1]
        pairs = [(m, d), (None, d)]
        ctx = vec_ctx
        walked = rollout_happiness_counts(ctx, pairs, chain, model)
        assert walked == oracle.chain(pairs, chain, model)
        for t, step in enumerate(chain):
            fresh = DestinationSweep(ctx, d, step, model)
            free = normal_conditions(ctx, d, step, model)
            assert fresh.happiness_counts(m) == walked[t][0], t
            assert free.count_happy() + (ctx.n - 1,) == walked[t][1], t
            assert dict(free.routes) == oracle.outcome(d, None, step, model).routes, t


class TestContextWiring:
    """make_context's pool / stratified plumbing."""

    def test_pooled_stores_the_serial_records(self, tmp_path):
        """Two pooled workers store what one process stores, byte for
        byte."""
        from dataclasses import replace

        from repro.experiments import ResultStore
        from repro.experiments.config import get_scale
        from repro.experiments.runner import make_context, run_experiments

        scale = replace(get_scale("tiny"), n=600)

        def records(root, **context_kwargs):
            store = ResultStore(root)
            with make_context(scale, **context_kwargs) as ectx:
                run_experiments(ectx, ["baseline", "fig7a", "fig11"], store=store)
                assert len(ectx.failure_log) == 0
            store.close()
            return sorted(store.path.read_text(encoding="utf-8").splitlines())

        pooled = records(tmp_path / "pooled", processes=2)
        assert pooled
        assert pooled == records(tmp_path / "serial", processes=1)

    def test_pool_forks_after_the_numpy_csr_exists(self, monkeypatch):
        """Workers and respawns inherit the int64 CSR views copy-on-write:
        the parent builds them, once, before the pool forks."""
        from repro.experiments.runner import (
            SupervisedPool,
            make_context,
            run_experiments,
        )

        builds = []  # the parent's: a worker appends to its own copy
        real_adjacency = RoutingContext._np_adjacency

        def counted(ctx):
            if ctx._np_adj is None:
                builds.append(ctx)
            return real_adjacency(ctx)

        built_at_fork = []
        real_init = SupervisedPool.__init__

        def observed(pool, ectx, *args, **kwargs):
            built_at_fork.append(ectx.graph_ctx._np_adj is not None)
            real_init(pool, ectx, *args, **kwargs)

        monkeypatch.setattr(RoutingContext, "_np_adjacency", counted)
        monkeypatch.setattr(SupervisedPool, "__init__", observed)
        with make_context("tiny", processes=2) as ectx:
            assert ectx.graph_ctx._np_adj is None  # not in set-up
            run_experiments(ectx, ["baseline"])
            assert built_at_fork == [True]
            assert ectx.graph_ctx._np_adj is not None
        assert len(builds) == 1

    def test_stratified_scale_changes_baseline_pairs(self):
        from dataclasses import replace

        from repro.experiments import exp_baseline
        from repro.experiments.config import get_scale
        from repro.experiments.runner import make_context

        with make_context("tiny") as uniform:
            plain = exp_baseline._plan(uniform)["all"].pairs
        strat_scale = replace(get_scale("tiny"), stratified_pairs=True)
        with make_context(strat_scale) as stratified:
            assert stratified.scale.stratified_pairs
            strat = exp_baseline._plan(stratified)["all"].pairs
        assert len(strat) == len(plain)
        assert strat != plain  # the draw goes through the stratifier


_TEARDOWN_CHILD = r"""
import sys
sys.path.insert(0, {src!r})
from repro.experiments.cli import _install_sigterm_handler
from repro.experiments.runner import make_context, run_experiments

_install_sigterm_handler()
ectx = make_context("tiny", processes=2)
print("WORKERS", *ectx._ensure_pool().worker_pids, flush=True)
while True:  # evaluate until killed
    ectx.cache.clear()
    run_experiments(ectx, ["baseline"], store=None)
"""


def test_sigterm_mid_run_leaks_nothing(pid_alive):
    """Kill a multi-process run mid-evaluation: the SIGTERM handler +
    atexit teardown must take the pool workers down with the parent."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _TEARDOWN_CHILD.format(src=os.path.abspath(src))],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline().split()
        assert line[0] == "WORKERS" and len(line) == 3, line
        worker_pids = [int(pid) for pid in line[1:]]
        assert all(pid_alive(pid) for pid in worker_pids)
        time.sleep(1.0)  # let an evaluation start
        proc.send_signal(signal.SIGTERM)
        signalled = time.monotonic()
        returncode = proc.wait(timeout=60)
        exit_s = time.monotonic() - signalled
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert returncode == 128 + signal.SIGTERM
    # Busy workers die on the pool's SIGTERM; none sits out the 10 s
    # kill fallback of SupervisedPool.join.
    assert exit_s < 5.0
    assert not any(pid_alive(pid) for pid in worker_pids)
