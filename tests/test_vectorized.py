"""Differential tests for the vectorized routing tier and its plumbing.

The numpy bucket kernel (:meth:`repro.core.routing.RoutingContext._run_np`)
is a pure performance rewrite of the heap fixing pass: Theorem 2.1's
unique stable state means a vectorized context must agree with a pure
one — and with the seed reference engine — **bit for bit** on every
observable (counts, routes, rank keys, next-hop sets), for every rank
model, attacker strategy and graph variant.  The grid here runs the
full cross product at reduced scale; the pure path stays the oracle.

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
from array import array

import pytest

np = pytest.importorskip("numpy")

from repro.core import BASELINE, Deployment, SECURITY_MODELS, lp2_variant
from repro.core.attacks import (
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    SILENT,
    PathLengthHijack,
)
from repro.core.rank import RankModel, SecurityModel
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.core.routing import (
    _INF,
    _NP_INF,
    DestinationSweep,
    RolloutSweep,
    RoutingContext,
    batch_happiness_counts,
    compute_routing_outcome,
    jobs_happiness_counts,
    rollout_happiness_counts,
)
from repro.topology import TopologyParams, gadgets, generate_topology
from repro.topology.graph import ASGraph, graph_from_edges
from repro.topology.ixp import augment_with_ixp_peering

from test_attacks import CustomerScopeHijack
from test_destination_sweep import per_pair_counts

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


@pytest.fixture(scope="module")
def pure_ctx(graph):
    ctx = RoutingContext(graph, vectorized=False)
    assert not ctx.vectorized
    return ctx


@pytest.fixture(scope="module")
def vec_ctx(graph):
    ctx = RoutingContext(graph, vectorized=True)
    assert ctx.vectorized
    return ctx


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


def _last_keys(ctx):
    """Packed rank keys of the last pass, read from wherever its kernel
    left them (a numpy pass never writes ``ctx._key``)."""
    if ctx._np_post is None:
        return list(ctx._key)
    keys = ctx._np_scratch["key"].tolist()
    return [_INF if k == _NP_INF else k for k in keys]


@pytest.fixture()
def count_rows(monkeypatch):
    """The ``(kernel model, rows)`` of every count call of ``_run_np``
    until the test ends (state calls are not listed)."""
    calls = []
    run_np = RoutingContext._run_np

    def spying(self, rows, model, **kwargs):
        if not kwargs.get("state"):
            calls.append((model, len(rows)))
        return run_np(self, rows, model, **kwargs)

    monkeypatch.setattr(RoutingContext, "_run_np", spying)
    return calls


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
    resolved = ctx._resolve_attack(dest_i, att_i, *masks, model, attack)
    if _is_blind(model, (dest_i, att_i, *masks, resolved)):
        return _blind_model(model), dest_i, att_i, resolved
    return model, deployment, dest_i, att_i, resolved


class TestDifferentialGrid:
    """Vectorized vs pure vs reference engine, full observable state."""

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.label)
    def test_outcomes_bit_identical(self, graph, pure_ctx, vec_ctx, model, attack):
        for m, d, dep in _instances(graph, f"{model.label}/{attack.token}"):
            pure = compute_routing_outcome(
                pure_ctx, d, attacker=m, deployment=dep, model=model,
                attack=attack,
            )
            pure_key = _last_keys(pure_ctx)
            pure_routes = dict(pure.routes)
            vec = compute_routing_outcome(
                vec_ctx, d, attacker=m, deployment=dep, model=model,
                attack=attack,
            )
            assert _last_keys(vec_ctx) == pure_key
            assert dict(vec.routes) == pure_routes
            assert vec.count_happy() == pure.count_happy()
            assert vec.count_attacked() == pure.count_attacked()
            assert vec.count_secure_sources() == pure.count_secure_sources()

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
    def test_counts_both_scheduling_modes(self, graph, pure_ctx, vec_ctx, attack):
        insts = _instances(graph, f"counts/{attack.token}", k=4)
        pairs = [(m, d) for m, d, _ in insts] + [(None, insts[0][1])]
        dep = insts[0][2]
        for model in ALL_MODELS:
            for counts in (batch_happiness_counts, per_pair_counts):
                expected = counts(pure_ctx, pairs, dep, model, attack=attack)
                got = counts(vec_ctx, pairs, dep, model, attack=attack)
                assert got == expected, (model.label, counts.__name__)

    def test_rollout_chain_matches_pure(self, graph, pure_ctx, vec_ctx):
        rnd = random.Random("vec/rollout")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [Deployment.of(members[:k]) for k in (0, 15, 30, 60)]
        pairs = [
            (m, d)
            for m, d, _ in _instances(graph, "rollout-pairs", k=5)
        ]
        for model in ALL_MODELS:
            expected = rollout_happiness_counts(pure_ctx, pairs, chain, model)
            got = rollout_happiness_counts(vec_ctx, pairs, chain, model)
            assert got == expected, model.label


class TestDeltaKernels:
    """A sweep's two kernels — a scalar context's heap loop and a numpy
    context's dense pass — must agree bit for bit on counts, full
    outcomes and the baseline, for every model and attacker
    strategy."""

    @pytest.mark.parametrize("attack", STRATEGIES, ids=lambda a: a.token)
    @pytest.mark.parametrize(
        "model", ALL_MODELS[1::2], ids=lambda m: m.label
    )
    def test_kernels_bit_identical(
        self, graph, pure_ctx, vec_ctx, model, attack
    ):
        for m, d, dep in _instances(
            graph, f"delta/{model.label}/{attack.token}", k=2
        ):
            sp = DestinationSweep(pure_ctx, d, dep, model, attack=attack)
            counts = sp.happiness_counts(m)
            assert sp.last_delta_path == "pure"
            pure_routes = dict(sp.outcome(m).routes)
            pure_base = dict(sp.baseline_outcome().routes)
            sv = DestinationSweep(vec_ctx, d, dep, model, attack=attack)
            assert sv.happiness_counts(m) == counts
            assert sv.last_delta_path == "dense"
            assert dict(sv.outcome(m).routes) == pure_routes
            # Leak-freedom: neither the full-state answer nor a second
            # attacker's pass leaves a trace in the baseline.
            assert sv.happiness_counts(m) == counts
            assert dict(sv.baseline_outcome().routes) == pure_base

    def test_numpy_snapshot_baseline(self, graph, pure_ctx, vec_ctx):
        """A sweep holds one snapshot form, chosen by the context: numpy
        arrays on a vectorized one (no python-list decode, no next-hop
        lists), a ``RoutingOutcome`` on a scalar one; the counts match."""
        m, d, dep = _instances(graph, "npsnap", k=1)[0]
        sn = DestinationSweep(vec_ctx, d, dep, SECURITY_MODELS[0])
        counts = sn.happiness_counts(m)
        assert sn._base is None and sn._np_base is not None
        sp = DestinationSweep(pure_ctx, d, dep, SECURITY_MODELS[0])
        assert sp._base is not None and sp._np_base is None
        assert sp.happiness_counts(m) == counts


class TestArraysAreTheState:
    """On a numpy context the arrays are the state: no numpy kernel
    reads or writes the python scratch (the heap loop's working set),
    and python records exist only inside a ``RoutingOutcome``.  A numpy
    context, which allocates that scratch only for a heap pass, must
    therefore answer every stub-simplex request, counts and full state,
    like a scalar one, and still hold none of it afterwards."""

    PY_SCRATCH = (
        "_fixed", "_key", "_cls", "_len", "_reach",
        "_wire", "_sec", "_choice", "_endpoint", "_nhops",
    )

    @pytest.mark.parametrize(
        "attack", [ONE_HOP_HIJACK, HONEST, FORGED_ORIGIN],
        ids=lambda a: a.token,
    )
    def test_no_python_scratch_needed(self, graph, pure_ctx, attack):
        bare = RoutingContext(graph, vectorized=True)
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
        for ctx_counts in (
            lambda ctx: rollout_happiness_counts(
                ctx, pairs, chain, model, attack=attack
            ),
            lambda ctx: batch_happiness_counts(
                ctx, pairs, chain[2], model, attack=attack
            ),
        ):
            assert ctx_counts(bare) == ctx_counts(pure_ctx)
        m = pairs[-1][0]
        walkers = [
            RolloutSweep(ctx, many_d, chain[0], model, attack=attack)
            for ctx in (bare, pure_ctx)
        ]
        for step in chain[1:]:
            states = []
            for w in walkers:
                w.advance(step)
                states.append((
                    dict(w.baseline_outcome().routes),
                    dict(w.outcome(m).routes),
                    w.happiness_counts(m),
                ))
            assert states[0] == states[1]
        assert walkers[0].last_delta_path == "dense"
        for m, d in pairs:
            kwargs = dict(
                attacker=m, deployment=chain[-1], model=model, attack=attack
            )
            got = compute_routing_outcome(bare, d, **kwargs)
            want = compute_routing_outcome(pure_ctx, d, **kwargs)
            assert dict(got.routes) == dict(want.routes)
            assert got.count_happy() == want.count_happy()
            assert got.count_secure_sources() == want.count_secure_sources()
        assert all(getattr(bare, name, None) is None for name in self.PY_SCRATCH)


class TestLazyNextHopPairs:
    """A numpy sweep's next-hop pairs are built by their one reader,
    ``baseline_outcome()``, from the sweep's own snapshot, once; the
    count path, whose groups are rows, never builds them."""

    MODEL = SECURITY_MODELS[0]

    def test_pairs_are_built_by_their_first_reader_only(
        self, graph, pure_ctx, vec_ctx, count_calls
    ):
        rnd = random.Random("vec/lazy")
        asns = graph.asns
        members = rnd.sample(asns, 60)
        chain = [
            Deployment.of(members[:k]).with_simplex_stubs(graph)
            for k in (0, 20, 40, 60)
        ]
        # destinations outside the chain: no step rebuilds a sweep
        few_d, many_d = rnd.sample([a for a in asns if a not in members], 2)
        others = [a for a in asns if a not in (few_d, many_d)]
        pairs = (
            [(m, few_d) for m in rnd.sample(others, 2)]
            + [(None, few_d)]
            + [(m, many_d) for m in rnd.sample(others, 5)]
        )
        expected = rollout_happiness_counts(pure_ctx, pairs, chain, self.MODEL)
        pair_sets = count_calls(RoutingContext, "_np_nhop_pairs")
        got = rollout_happiness_counts(vec_ctx, pairs, chain, self.MODEL)
        assert got == expected
        assert pair_sets == [0]

        # The first reader builds them, from the snapshot: by then the
        # context's scratch holds some other sweep's pass.
        sweep = RolloutSweep(vec_ctx, many_d, chain[0], self.MODEL)
        for step in chain[1:]:
            sweep.advance(step)
            assert sweep.last_delta_path == "dense"
        DestinationSweep(vec_ctx, few_d, chain[1], self.MODEL)
        assert pair_sets == [0]
        routes = dict(sweep.baseline_outcome().routes)
        assert pair_sets == [1]
        want = DestinationSweep(pure_ctx, many_d, chain[-1], self.MODEL)
        assert routes == dict(want.baseline_outcome().routes)
        # ...and a snapshot that has pairs never computes them again.
        assert dict(sweep.baseline_outcome().routes) == routes
        assert pair_sets == [1]


class TestRowsKernel:
    """``_run_np`` takes K fixing passes as the rows of one bucket loop
    and ``jobs_happiness_counts`` feeds it every pair-step of every job
    that shares a model: a row must be the pass it would be alone — and
    the scalar heap loop's — whatever shares its batch."""

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
        return (
            graph, rnd, chain, late,
            RoutingContext(graph, vectorized=True),
            RoutingContext(graph, vectorized=False),
        )

    @staticmethod
    def _scalar_state(ctx):
        return {
            "fixed": list(ctx._fixed), "key": list(ctx._key),
            "cls": list(ctx._cls), "len": list(ctx._len),
            "reach": list(ctx._reach), "wire": list(ctx._wire),
            "sec": list(ctx._sec), "choice": list(ctx._choice),
            "endp": list(ctx._endpoint),
        }

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_batch_equals_rows_alone_equals_scalar(self, case):
        graph, rnd, chain, late, vec, pure = self._setup(case)
        asns = graph.asns
        for model in CLASSIC_MODELS + (lp2_variant(SECURITY_MODELS[1]),):
            rows = []
            for attack in STRATEGIES:
                for deployment in chain:
                    d = rnd.choice([late, rnd.choice(asns)])
                    m = rnd.choice([a for a in asns if a != d])
                    if rnd.random() < 0.25:
                        m = None
                    dest_i, att_i = vec._check_pair(d, m)
                    masks = vec.deployment_masks(deployment)
                    resolved = pure._resolve_attack(
                        dest_i, att_i, *masks, model, attack
                    )
                    rows.append((dest_i, att_i, *masks, resolved))
            assert 1 < len(rows) <= vec.batch_rows
            assert any(row[1] < 0 for row in rows)
            assert {row[4].export_all for row in rows} == {True, False}
            batch = vec._run_np(rows, model)
            for row, counts in zip(rows, batch):
                dest_i, att_i, signing, ranking, resolved = row
                pure._run(dest_i, att_i, signing, ranking, model, resolved)
                assert counts == pure._last_counts
                assert vec._run_np([row], model) == [counts]
                assert vec._run_np([row], model, state=True) == [counts]
                assert vec._last_counts == counts
                # the state call leaves the nine arrays where the
                # scalar loop leaves its scratch
                st, want = vec._np_scratch, self._scalar_state(pure)
                fixed = want["fixed"]
                roots = {dest_i, att_i}
                for name in ("fixed", "reach", "wire", "sec", "choice", "endp"):
                    assert st[name].tolist() == want[name], name
                assert _last_keys(vec) == want["key"]
                for v in range(vec.n):
                    if fixed[v]:
                        assert st["len"][v] == want["len"][v], v
                        if v not in roots:
                            assert st["cls"][v] == want["cls"][v], v

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_jobs_equal_one_job_calls_equal_scalar(self, case, count_rows):
        graph, rnd, chain, late, vec, pure = self._setup(case)
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
            _kernel_pass(pure, model, deployment, m, d, attack)
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
        assert together == jobs_happiness_counts(pure, jobs)
        reference = [
            [
                per_pair_counts(pure, pairs, deployment, model, attack=attack)
                for deployment in deployments
            ]
            for pairs, deployments, model, attack in jobs
        ]
        assert together == reference

    @staticmethod
    def _rows(ctx, rnd, deployment, model, count):
        asns = ctx.asns
        masks = ctx.deployment_masks(deployment)
        rows = []
        for _ in range(count):
            d, m = rnd.sample(asns, 2)
            dest_i, att_i = ctx._check_pair(d, m)
            rows.append((dest_i, att_i, *masks, ctx._resolve_attack(
                dest_i, att_i, *masks, model, ONE_HOP_HIJACK
            )))
        return rows

    def test_more_rows_than_batch_rows(self, graph, vec_ctx):
        """A count call's scratch fits the call, whatever an earlier,
        smaller call allocated."""
        rnd = random.Random("rows/oversize")
        model = SECURITY_MODELS[1]
        deployment = Deployment.of(rnd.sample(graph.asns, 100))
        vec_ctx._run_np(self._rows(vec_ctx, rnd, deployment, model, 2), model)
        rows = self._rows(vec_ctx, rnd, deployment, model, 112)
        assert len(rows) > vec_ctx.batch_rows
        alone = [c for row in rows for c in vec_ctx._run_np([row], model)]
        assert vec_ctx._run_np(rows, model) == alone

    @pytest.mark.parametrize("k", [1, 5])
    def test_count_call_leaves_the_state_call_alone(self, graph, vec_ctx, k):
        """A count call, one row or many, touches none of what the last
        state call left: its arrays, its ``post`` or its counts."""
        rnd = random.Random(f"rows/alone/{k}")
        model = SECURITY_MODELS[0]
        deployment = Deployment.of(rnd.sample(graph.asns, 100))
        (row,) = self._rows(vec_ctx, rnd, deployment, model, 1)
        vec_ctx._run_np([row], model, state=True)
        arrays = {name: a.copy() for name, a in vec_ctx._np_scratch.items()}
        post, counts = vec_ctx._np_post, vec_ctx._last_counts
        vec_ctx._run_np(self._rows(vec_ctx, rnd, deployment, model, k), model)
        assert vec_ctx._np_post is post
        assert vec_ctx._last_counts == counts
        for name, a in vec_ctx._np_scratch.items():
            assert np.array_equal(a, arrays[name]), name

    def test_roots_of_every_scope_length_and_wire_share_a_batch(self):
        """Attackers whose roots differ in export scope, claimed length
        and wire relax from one batch, under LP2, on a graph with ASes
        no route reaches: every row equals the scalar kernel's pass."""
        graph = generate_topology(TopologyParams(n=150, seed=5)).graph
        asns = list(graph.asns)
        graph.add_customer_provider(max(asns) + 1, max(asns) + 2)  # an island
        vec = RoutingContext(graph, vectorized=True)
        pure = RoutingContext(graph, vectorized=False)
        model = lp2_variant(SECURITY_MODELS[1])
        rnd = random.Random("rows/roots")
        deployment = Deployment.of(rnd.sample(asns, 60)).with_simplex_stubs(graph)
        masks = vec.deployment_masks(deployment)
        signed = sorted(deployment.full | deployment.simplex)
        rows = []
        for attack in (
            ONE_HOP_HIJACK, PathLengthHijack(2), CustomerScopeHijack(),
            FORGED_ORIGIN,
        ):
            for _ in range(3):
                d = rnd.choice(signed)
                dest_i, att_i = vec._check_pair(
                    d, rnd.choice([a for a in asns if a != d])
                )
                resolved = attack.resolve(dest_signed=True)
                rows.append((dest_i, att_i, *masks, resolved))
        roots = {(r[4].export_all, r[4].length, r[4].wire) for r in rows}
        assert len(roots) == 4
        batch = vec._run_np(rows, model)
        for row, counts in zip(rows, batch):
            pure._run(*row[:4], model, row[4])
            assert counts == pure._last_counts
            assert counts[5] <= vec.n - 4  # the island is never fixed

    def test_rows_reject_an_unnested_chain_before_any_pass(
        self, graph, vec_ctx, count_calls
    ):
        """A numpy context's groups are rows, equal to one pass a pair;
        a chain that does not nest is rejected before any pass."""
        passes = count_calls(RoutingContext, "_run_np")
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
                    resolved = ctx._resolve_attack(
                        dest_i, att_i, *masks, model, attack or ONE_HOP_HIJACK
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
        want = vec_ctx._run_np(self._baseline_rows(vec_ctx, blind), base)
        assert want == [
            c for row in self._baseline_rows(vec_ctx, blind)
            for c in vec_ctx._run_np([row], base)
        ]
        together = vec_ctx._run_np(rows, model)  # K > 1, mixed with the rest
        assert [c for row, c in zip(rows, together) if _is_blind(model, row)] == want
        assert [vec_ctx._run_np([row], model)[0] for row in blind] == want

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
            got = vec_ctx._run_np(rows, model)
            want = vec_ctx._run_np(
                self._baseline_rows(vec_ctx, rows), _blind_model(model)
            )
            differ += sum(g[:2] != w[:2] for g, w in zip(got, want))
        assert differ

    def test_a_chain_runs_each_distinct_pass_once(
        self, graph, pure_ctx, vec_ctx, count_rows, count_calls
    ):
        """A destination that signs only at the last of four steps: its
        first three steps are one blind pass a pair, shared by the three
        placements, and its last step one pass a pair and placement —
        as count rows on a numpy context, as heap passes on a scalar
        one."""
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
                _kernel_pass(pure_ctx, model, deployment, m, d, attack)
                for pairs, deployments, model, attack in jobs
                for deployment in deployments
                for m, d in pairs
            }

        for job in jobs:
            count_rows.clear()
            got = rollout_happiness_counts(vec_ctx, *job[:3], attack=job[3])
            assert got == rollout_happiness_counts(pure_ctx, *job[:3], attack=job[3])
            assert len(distinct([job])) == 2 * len(pairs)
            assert sum(rows for _, rows in count_rows) == 2 * len(pairs)
        count_rows.clear()
        got = jobs_happiness_counts(vec_ctx, jobs)
        assert got == jobs_happiness_counts(pure_ctx, jobs)
        assert len(distinct(jobs)) == 4 * len(pairs)
        assert sum(rows for _, rows in count_rows) == 4 * len(pairs)

        passes = count_calls(RoutingContext, "_run")
        for job in jobs:
            passes[0] = 0
            rollout_happiness_counts(pure_ctx, *job[:3], attack=job[3])
            assert passes == [2 * len(pairs)]
        passes[0] = 0
        assert jobs_happiness_counts(pure_ctx, jobs) == got
        assert passes == [4 * len(pairs)]


class TestEveryGroupIsRows:
    """On a numpy context every destination group is count rows, however
    many attackers it has and whatever its strategy: no sweep is built,
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
        self, graph, pure_ctx, vec_ctx, count_calls, attackers, attack
    ):
        chain, pairs = self._chain_and_pairs(graph, attack.token, attackers)
        model = SECURITY_MODELS[1]
        for deployments in (chain, chain[:1]):
            want = rollout_happiness_counts(
                pure_ctx, pairs, deployments, model, attack=attack
            )
            snapshots = count_calls(DestinationSweep, "_take_baseline")
            got = rollout_happiness_counts(
                vec_ctx, pairs, deployments, model, attack=attack
            )
            assert snapshots == [0]
            assert got == want

    def test_rows_equal_scalar_per_pair_and_reference(self, graph, pure_ctx, vec_ctx):
        """``honest`` and many-attacker rows under every model, on 1-
        and 4-step chains, in one call: equal to the scalar context's
        walks, one full pass a pair-step (``batch_outcomes``) and, on a
        sample, the reference engine."""
        chain, pairs = self._chain_and_pairs(graph, "oracles", self.MANY)
        jobs = [
            (pairs, deployments, model, attack)
            for model in ALL_MODELS
            for attack in (HONEST, ONE_HOP_HIJACK)
            for deployments in (chain, chain[2:3])
        ]
        got = jobs_happiness_counts(vec_ctx, jobs)
        assert got == jobs_happiness_counts(pure_ctx, jobs)
        ref_ctx = RefRoutingContext(graph)
        rnd = random.Random("vec/groups/ref")
        for (pairs, deployments, model, attack), job in zip(jobs, got):
            for deployment, step in zip(deployments, job):
                assert step == per_pair_counts(
                    pure_ctx, pairs, deployment, model, attack=attack
                ), (model.label, attack.token)
            t = rnd.randrange(len(deployments))
            i = rnd.randrange(len(pairs) - 1)
            m, d = pairs[i]
            ref = ref_compute_routing_outcome(
                ref_ctx, d, m, deployments[t], model, attack=attack
            )
            assert job[t][i] == (*ref.count_happy(), ref.num_sources)

    def test_honest_runs_one_attacker_free_pass_per_destination_step(
        self, graph, pure_ctx, vec_ctx, count_calls, monkeypatch
    ):
        """One ``_run`` per ``(d, S_t)``, however many attackers share it
        and however the batches split its rows — for one destination
        group, whose steps follow each other, and for two.  A scalar
        context runs the same attacker-free passes, then one ``_run``
        per distinct pass."""
        from repro.core import routing

        chain, pairs = self._chain_and_pairs(graph, "passes", self.MANY)
        model = SECURITY_MODELS[0]
        passes = count_calls(RoutingContext, "_run")
        for group in (pairs[: self.MANY], pairs):
            want = rollout_happiness_counts(
                pure_ctx, group, chain, model, attack=HONEST
            )
            destinations = len({d for _, d in group})
            distinct = {
                _kernel_pass(pure_ctx, model, deployment, m, d, HONEST)
                for deployment in chain
                for m, d in group
            }
            for rows_a_call in (vec_ctx.batch_rows, 3):
                monkeypatch.setattr(
                    routing, "NP_ROWS_BUDGET", rows_a_call * vec_ctx.n
                )
                passes[0] = 0
                got = rollout_happiness_counts(
                    vec_ctx, group, chain, model, attack=HONEST
                )
                assert got == want
                assert passes == [destinations * len(chain)], rows_a_call
            passes[0] = 0
            got = rollout_happiness_counts(
                pure_ctx, group, chain, model, attack=HONEST
            )
            assert got == want
            assert passes == [destinations * len(chain) + len(distinct)]


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
        self._check(RoutingContext(build().graph, vectorized=True))


def _ixp_graph():
    topo = generate_topology(TopologyParams(n=300, seed=2013))
    return augment_with_ixp_peering(topo.graph, topo.ixp_members).graph


class TestCsrBuild:
    """A numpy context builds its CSR from arrays, and derives the
    per-relationship index tuples only when a scalar reader asks: both
    equal what the scalar context's per-AS loop builds."""

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
    def test_numpy_csr_equals_scalar(self, build):
        graph = build()
        vec = RoutingContext(graph, vectorized=True)
        pure = RoutingContext(graph, vectorized=False)
        for name in ("adj_start", "adj_node", "adj_class", "adj_custflag"):
            assert list(getattr(vec, name)) == list(getattr(pure, name)), name
        assert vec._has_customers == pure._has_customers
        assert vec._rel_idx is None
        assert vec.providers_idx == pure.providers_idx
        assert vec.customers_idx == pure.customers_idx
        assert vec.peers_idx == pure.peers_idx

    def test_one_as_graph_builds(self):
        graph = ASGraph()
        graph.add_as(7)
        ctx = RoutingContext(graph, vectorized=True)
        assert list(ctx.adj_start) == [0, 0] and ctx.providers_idx == [()]

    def test_counts_leave_the_index_tuples_unbuilt(self, graph):
        """The count path reads the CSR only: the O(V + E) python tuples
        must not come back on a numpy context that runs nothing else."""
        ctx = RoutingContext(graph, vectorized=True)
        (m, d, dep), *_ = _instances(graph, "csr/lazy")
        chain = [Deployment.empty(), dep.with_simplex_stubs(graph)]
        pairs = [(m, d), (None, d)]
        jobs_happiness_counts(ctx, [
            (pairs, chain, BASELINE, ONE_HOP_HIJACK),  # rows
            (pairs, chain, SECURITY_MODELS[0], HONEST),  # attacker-free passes
        ])
        assert ctx._rel_idx is None


class TestAdvance:
    """``RolloutSweep.advance(deployment)`` leaves the state a fresh
    sweep of that deployment holds, on both contexts, after every step
    — a step that gains nothing and one that gains the destination
    included."""

    def test_advance_equals_a_fresh_sweep(self, graph, pure_ctx, vec_ctx):
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
        states = {}
        for ctx in (pure_ctx, vec_ctx):
            walked = rollout_happiness_counts(ctx, pairs, chain, model)
            sweep = RolloutSweep(ctx, d, chain[0], model)
            for t in range(1, len(chain)):
                sweep.advance(chain[t])
                assert sweep.deployment is chain[t]
                fresh = DestinationSweep(ctx, d, chain[t], model)
                state = (
                    dict(sweep.baseline_outcome().routes),
                    sweep.baseline_counts(),
                    sweep.happiness_counts(m),
                )
                assert state == (
                    dict(fresh.baseline_outcome().routes),
                    fresh.baseline_counts(),
                    fresh.happiness_counts(m),
                ), t
                assert state[2] == walked[t][0], t
                assert state[1] + (ctx.n - 1,) == walked[t][1], t
                states.setdefault(t, state)
                assert state == states[t], t


class TestKernelSelection:
    """The context is the only selector of the delta path, recorded in
    :attr:`DestinationSweep.last_delta_path`: ``"pure"`` on every scalar
    context, ``"dense"`` on every numpy one."""

    def test_context_alone_selects_the_delta(self, graph, pure_ctx, vec_ctx):
        """Every delta of a sweep, whatever its size, takes its
        context's one path."""
        insts = _instances(graph, "forced", k=4)
        d, dep = insts[0][1], insts[0][2]
        attackers = [m for m, _, _ in insts if m != d]
        for ctx, want in ((pure_ctx, "pure"), (vec_ctx, "dense")):
            s = DestinationSweep(ctx, d, dep, SECURITY_MODELS[1])
            for m in attackers:
                s.happiness_counts(m)
                assert s.last_delta_path == want, m

    def test_transit_simplex_takes_the_heap_loop(
        self, graph, pure_ctx, monkeypatch
    ):
        """The full pass is selected from the masks: a numpy context
        enters ``_run_np`` unless some node signs, does not rank and
        has a customer — then the pass takes the heap loop, and only
        then does the context allocate the loop's scratch.  Either way
        the state equals the scalar context's."""
        vec_ctx = RoutingContext(graph, vectorized=True)
        assert all(
            getattr(vec_ctx, name, None) is None
            for name in TestArraysAreTheState.PY_SCRATCH
        )
        entries = []
        run_np = RoutingContext._run_np

        def counted(self, *args, **kwargs):
            entries.append(self)
            return run_np(self, *args, **kwargs)

        monkeypatch.setattr(RoutingContext, "_run_np", counted)
        asns = graph.asns
        d, m = asns[0], asns[-1]
        stub_simplex = Deployment.of(asns[::2]).with_simplex_stubs(graph)
        assert stub_simplex.simplex
        transit = [a for a in asns[1::2] if not graph.is_stub(a)][:5]
        assert transit
        transit_simplex = Deployment(
            full=stub_simplex.full, simplex=stub_simplex.simplex | set(transit)
        )
        for dep, enters in ((stub_simplex, True), (transit_simplex, False)):
            kwargs = dict(attacker=m, deployment=dep, model=SECURITY_MODELS[0])
            entries.clear()
            vec = compute_routing_outcome(vec_ctx, d, **kwargs)
            assert bool(entries) == enters
            assert (vec_ctx._fixed is None) == enters
            pure = compute_routing_outcome(pure_ctx, d, **kwargs)
            assert dict(vec.routes) == dict(pure.routes)
            assert vec.count_happy() == pure.count_happy()
            assert vec.count_secure_sources() == pure.count_secure_sources()


class TestContextWiring:
    """make_context's vectorized / stratified plumbing."""

    def test_defaults_stay_pure_at_small_scales(self):
        from repro.experiments.runner import make_context

        with make_context("tiny") as ectx:
            assert not ectx.graph_ctx.vectorized
            # Fork shares the frozen CSR for free only while its buffers
            # hold no per-element objects: a worker reading a list of
            # ints writes refcounts and so copies its pages; one
            # array / bytearray object per buffer has nothing to write.
            assert type(ectx.graph_ctx.adj_start) is array
            assert type(ectx.graph_ctx.adj_node) is array
            assert type(ectx.graph_ctx.adj_class) is bytearray
            assert type(ectx.graph_ctx.adj_custflag) is bytearray

    def test_explicit_overrides(self):
        from repro.experiments.runner import make_context

        with make_context("tiny", vectorized=True) as ectx:
            assert ectx.graph_ctx.vectorized
        with make_context("medium", vectorized=False) as ectx:
            assert not ectx.graph_ctx.vectorized

    def test_default_kernel_per_scale(self):
        """One size test, at the crossover ``tools/kernel_crossover.py``
        measures: ``tiny`` keeps the scalar kernels, every larger
        shipped scale defaults to the numpy ones."""
        from repro.core.routing import VECTORIZED_MIN_N
        from repro.experiments.config import SCALES
        from repro.experiments.runner import make_context

        assert SCALES["tiny"].n < VECTORIZED_MIN_N < SCALES["small"].n
        for scale, numpy_kernels in (
            ("tiny", False), ("small", True), ("medium", True),
        ):
            with make_context(scale) as ectx:
                assert ectx.graph_ctx.vectorized is numpy_kernels, scale

    def test_pooled_default_stores_the_scalar_kernels_records(self, tmp_path):
        """Two pooled workers on a default (numpy) context store what
        one process on the scalar kernels stores, byte for byte."""
        from dataclasses import replace

        from repro.experiments import ResultStore
        from repro.experiments.config import get_scale
        from repro.experiments.runner import make_context, run_experiments

        scale = replace(get_scale("tiny"), n=600)

        def records(root, **context_kwargs):
            store = ResultStore(root)
            with make_context(scale, **context_kwargs) as ectx:
                assert ectx.graph_ctx.vectorized is (
                    "vectorized" not in context_kwargs
                )
                run_experiments(ectx, ["baseline", "fig7a", "fig11"], store=store)
                assert len(ectx.failure_log) == 0
            store.close()
            return sorted(store.path.read_text(encoding="utf-8").splitlines())

        pooled = records(tmp_path / "pooled", processes=2)
        assert pooled
        assert pooled == records(tmp_path / "serial", processes=1, vectorized=False)

    @pytest.mark.parametrize("vectorized", [True, False], ids=["numpy", "scalar"])
    def test_pool_forks_after_the_numpy_csr_exists(self, vectorized, monkeypatch):
        """Workers and respawns inherit the int64 CSR views copy-on-write:
        the parent builds them, once, before the pool forks — and a
        scalar context never builds them."""
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
        with make_context("tiny", processes=2, vectorized=vectorized) as ectx:
            assert ectx.graph_ctx._np_adj is None  # not in set-up
            run_experiments(ectx, ["baseline"])
            assert built_at_fork == [vectorized]
            assert (ectx.graph_ctx._np_adj is not None) is vectorized
        assert len(builds) == int(vectorized)

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
