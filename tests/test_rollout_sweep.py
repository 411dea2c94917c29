"""Differential tests for the rollout-major chain engine.

:class:`repro.core.routing.RolloutSweep` advances its attacker-free
baseline across a nested-deployment chain, and
:func:`repro.core.routing.rollout_happiness_counts` evaluates whole
chains as their distinct fixing passes, each run once.  The tests here
hold every step of a chain *bit-identical* to three independent
oracles:

* the step-independent destination-major path
  (``batch_happiness_counts`` with default flags),
* the per-pair flat engine (``batch_outcomes``, one full fixing pass
  per pair), and
* the seed reference engine (:mod:`repro.core.refimpl`).

Grids: full tier12/tier2 rollout chains (coarse, dense and
simplex-stub variants, prefixed with S = ∅) x all rank models
(baseline + three placements + LP2 variants) x ±IXP x all four shipped
attacker strategies, with attacker sets that include destination
neighbors, many-attacker groups (one heap pass per distinct pass on a
scalar context, count rows on a numpy one), and a chain step that
secures an attacker itself.
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BASELINE,
    Deployment,
    DestinationSweep,
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    RolloutStep,
    RolloutSweep,
    SECURITY_MODELS,
    batch_happiness_counts,
    deployment as deployment_module,
    lp2_variant,
    rollout_happiness,
    rollout_happiness_counts,
    strategy_from_token,
    stubs_of,
    tier2_rollout,
    tier12_rollout,
    tier12_rollout_dense,
)
from repro.core.routing import RoutingContext
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, classify_tiers, generate_topology
from repro.topology.ixp import augment_with_ixp_peering

from test_destination_sweep import per_pair_counts

ALL_MODELS = (BASELINE,) + SECURITY_MODELS
LP2_MODELS = tuple(lp2_variant(m) for m in ALL_MODELS)
ALL_STRATEGIES = (ONE_HOP_HIJACK, HONEST, strategy_from_token("khop2"), FORGED_ORIGIN)


def make_topology(seed: int, ixp: bool = False, n: int = 80):
    topo = generate_topology(TopologyParams(n=n, seed=seed))
    graph = topo.graph
    if ixp:
        graph = augment_with_ixp_peering(graph, topo.ixp_members).graph
    return graph, classify_tiers(graph)


def make_chain(graph, tiers, kind: str) -> list[Deployment]:
    """A nested chain prefixed with S = ∅ (the hardest first advance)."""
    if kind == "tier12":
        steps = tier12_rollout(graph, tiers)
    elif kind == "tier12_simplex":
        steps = tier12_rollout(graph, tiers, simplex_stubs=True)
    elif kind == "tier12_dense":
        steps = tier12_rollout_dense(graph, tiers)
    elif kind == "tier2":
        steps = tier2_rollout(graph, tiers)
    else:  # pragma: no cover - test configuration error
        raise ValueError(kind)
    return [Deployment.empty()] + [step.deployment for step in steps]


def chain_pairs(graph, seed: int, destinations: int, attackers: int):
    """(m, d) pairs: per destination, its neighbors (the adjacent edge
    cases) padded with remote attackers up to ``attackers``."""
    rnd = random.Random(seed * 7919 + 5)
    asns = graph.asns
    pairs = []
    for d in rnd.sample(asns, destinations):
        adjacent = sorted(graph.neighbors(d))
        remote = [a for a in asns if a != d and a not in adjacent]
        ms = (adjacent + rnd.sample(remote, len(remote)))[:attackers]
        pairs.extend((m, d) for m in ms)
    return pairs


def assert_chain_matches_oracles(
    graph, pairs, chain, model, attack, refimpl_budget=0, vectorized=None
):
    ctx = RoutingContext(graph, vectorized=vectorized)
    rollout = rollout_happiness_counts(ctx, pairs, chain, model, attack=attack)
    for t, deployment in enumerate(chain):
        dest_major = batch_happiness_counts(
            ctx, pairs, deployment, model, attack=attack
        )
        assert rollout[t] == dest_major, (model.label, attack.token, t)
        per_pair = per_pair_counts(ctx, pairs, deployment, model, attack)
        assert rollout[t] == per_pair, (model.label, attack.token, t)
    if refimpl_budget:
        ref_ctx = RefRoutingContext(graph)
        rnd = random.Random(1234)
        combos = [(t, i) for t in range(len(chain)) for i in range(len(pairs))]
        for t, i in rnd.sample(combos, min(refimpl_budget, len(combos))):
            m, d = pairs[i]
            ref = ref_compute_routing_outcome(
                ref_ctx, d, m, chain[t], model, attack=attack
            )
            lo, up, src = rollout[t][i]
            assert ref.count_happy() == (lo, up), (model.label, t, m, d)
            assert ref.num_sources == src


# ----------------------------------------------------------------------
# The differential grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
@pytest.mark.parametrize("kind", ["tier12", "tier12_simplex", "tier2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chains_match_oracles_all_models(seed, kind, ixp):
    graph, tiers = make_topology(seed, ixp=ixp)
    chain = make_chain(graph, tiers, kind)
    pairs = chain_pairs(graph, seed, destinations=3, attackers=2)
    for model in ALL_MODELS:
        assert_chain_matches_oracles(
            graph, pairs, chain, model, ONE_HOP_HIJACK,
            refimpl_budget=4 if not ixp else 0,
        )


@pytest.mark.parametrize("seed", [3, 4])
def test_dense_chain_with_lp2_variants(seed):
    graph, tiers = make_topology(seed)
    chain = make_chain(graph, tiers, "tier12_dense")
    pairs = chain_pairs(graph, seed, destinations=2, attackers=2)
    for model in LP2_MODELS:
        assert_chain_matches_oracles(graph, pairs, chain, model, ONE_HOP_HIJACK)


@pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=lambda a: a.token)
def test_chains_match_oracles_all_strategies(attack):
    """All four shipped threat models, including ``honest`` (whose
    resolution re-reads the attacker-free baseline of every step) and
    ``forged_origin`` (whose resolution flips with the victim's signing
    bit mid-chain)."""
    graph, tiers = make_topology(5)
    chain = make_chain(graph, tiers, "tier12")
    pairs = chain_pairs(graph, 5, destinations=3, attackers=2)
    for model in (BASELINE, SECURITY_MODELS[0], SECURITY_MODELS[1]):
        assert_chain_matches_oracles(
            graph, pairs, chain, model, attack, refimpl_budget=3
        )


@pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=lambda a: a.token)
def test_numpy_rows_match_oracles_all_strategies(attack):
    """The same four threat models on a numpy context, where every
    destination group is count rows: groups of two attackers and of
    four (an ``honest`` group resolves all of its attackers from one
    attacker-free pass per step)."""
    pytest.importorskip("numpy")
    graph, tiers = make_topology(5)
    chain = make_chain(graph, tiers, "tier12")
    for attackers in (2, 4):
        pairs = chain_pairs(graph, 5, destinations=3, attackers=attackers)
        for model in (BASELINE, SECURITY_MODELS[0], SECURITY_MODELS[1]):
            assert_chain_matches_oracles(
                graph, pairs, chain, model, attack,
                refimpl_budget=3, vectorized=True,
            )


def test_chain_step_secures_an_attacker():
    """A step that secures an AS which is itself attacking: the secured
    attacker keeps announcing its resolved claim (the paper's attacker
    ignores protocol), and every oracle agrees."""
    graph, tiers = make_topology(6)
    chain = make_chain(graph, tiers, "tier12")
    final = chain[-1]
    rnd = random.Random(99)
    secured = sorted(final.full | final.simplex)
    # attackers drawn from ASes secured by later steps (absent from the
    # earlier ones), plus a destination secured mid-chain.
    late = [a for a in secured if a not in chain[1]] or secured
    attackers = rnd.sample(late, min(3, len(late)))
    destinations = rnd.sample(
        [a for a in secured if a not in attackers], 2
    )
    pairs = [(m, d) for d in destinations for m in attackers if m != d]
    for model in ALL_MODELS:
        assert_chain_matches_oracles(
            graph, pairs, chain, model, ONE_HOP_HIJACK, refimpl_budget=4
        )


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "numpy"])
def test_many_attacker_groups_match_oracles(vectorized):
    """Groups of seven attackers match the oracles on both contexts: a
    scalar one runs each distinct pass as one heap pass, a numpy one as
    count rows."""
    if vectorized:
        pytest.importorskip("numpy")
    graph, tiers = make_topology(7)
    chain = make_chain(graph, tiers, "tier12_dense")
    pairs = chain_pairs(
        graph, 7, destinations=2, attackers=7
    )
    for model in ALL_MODELS:
        assert_chain_matches_oracles(
            graph, pairs, chain, model, ONE_HOP_HIJACK, vectorized=vectorized
        )


def test_none_attacker_rows_walk_with_the_chain():
    graph, tiers = make_topology(8)
    chain = make_chain(graph, tiers, "tier2")
    rnd = random.Random(8)
    d1, d2 = rnd.sample(graph.asns, 2)
    m = next(a for a in graph.asns if a not in (d1, d2))
    pairs = [(None, d1), (m, d1), (None, d2)]
    ctx = RoutingContext(graph)
    for model in ALL_MODELS:
        rollout = rollout_happiness_counts(
            ctx, pairs, chain, model, attack=ONE_HOP_HIJACK
        )
        for t, deployment in enumerate(chain):
            assert rollout[t] == batch_happiness_counts(
                ctx, pairs, deployment, model
            ), (model.label, t)


@pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "numpy"])
def test_honest_chain_resolves_each_step_from_its_own_baseline(vectorized):
    """``honest`` re-reads the attacker's route at every chain step: for
    pairs whose attacker's route turns secure along the chain, the step
    counts are the new resolution's, not the first step's (which would
    count differently), on both contexts."""
    if vectorized:
        pytest.importorskip("numpy")
    graph, tiers = make_topology(6)
    chain = make_chain(graph, tiers, "tier12")
    pairs = chain_pairs(graph, 6, destinations=3, attackers=4)
    model = SECURITY_MODELS[0]
    ctx = RoutingContext(graph, vectorized=vectorized)
    last = ctx.deployment_masks(chain[-1])
    stale = {}
    for i, (m, d) in enumerate(pairs):
        dest_i, att_i = ctx._check_pair(d, m)
        first, final = (
            ctx._resolve_attack(
                dest_i, att_i, *ctx.deployment_masks(s), model, HONEST
            )
            for s in (chain[0], chain[-1])
        )
        if first != final:
            ctx._run(dest_i, att_i, *last, model, first)
            stale[i] = ctx._last_counts[:2]
    rollout = rollout_happiness_counts(ctx, pairs, chain, model, attack=HONEST)
    for t, deployment in enumerate(chain):
        assert rollout[t] == per_pair_counts(
            ctx, pairs, deployment, model, HONEST
        ), t
    changed = [i for i, counts in stale.items() if rollout[-1][i][:2] != counts]
    assert changed, "no pair whose stale resolution counts differently"


# ----------------------------------------------------------------------
# Chain shape: settled at entry, before any fixing pass
# ----------------------------------------------------------------------
class TestChainShape:
    def test_empty_chain_is_zero_steps(self):
        graph, _tiers = make_topology(16)
        pairs = chain_pairs(graph, 16, destinations=2, attackers=2)
        assert rollout_happiness_counts(graph, pairs, []) == []
        assert rollout_happiness(graph, pairs, [], BASELINE) == []

    @pytest.mark.parametrize("with_pairs", [True, False], ids=["pairs", "no-pairs"])
    def test_non_nested_chain_raises_before_any_pass(
        self, with_pairs, count_calls
    ):
        graph, _tiers = make_topology(17)
        pairs = chain_pairs(graph, 17, destinations=2, attackers=2)
        chain = [
            Deployment.empty(),
            Deployment.of(graph.asns[:50]),
            Deployment.of(graph.asns[10:60]),
        ]
        passes = count_calls(RoutingContext, "_run")
        ctx = RoutingContext(graph)
        with pytest.raises(ValueError, match="nested"):
            rollout_happiness_counts(ctx, pairs if with_pairs else [], chain)
        assert passes == [0]


@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
def test_rollout_steps_equal_the_membership_walk(ixp, monkeypatch):
    """``_isp_step`` asks ``is_stub`` of the ISPs and extras only, and
    a rollout's steps share its ISPs' stub customers; the steps equal
    what walking every member gave."""
    graph, tiers = make_topology(2013, ixp=ixp, n=300)
    isp_step = deployment_module._isp_step
    labels = []

    def checked(graph, label, isps, extra=(), simplex_stubs=False, **shared):
        step = isp_step(
            graph, label, isps, extra=extra, simplex_stubs=simplex_stubs,
            **shared,
        )
        isp_set = frozenset(isps) | frozenset(extra)
        members = isp_set | stubs_of(graph, isp_set)
        walked = Deployment.of(members)
        if simplex_stubs:
            walked = walked.with_simplex_stubs(graph)
        assert step == RolloutStep(
            label=label,
            deployment=walked,
            non_stub_count=sum(1 for a in members if not graph.is_stub(a)),
        )
        labels.append(label)
        return step

    monkeypatch.setattr(deployment_module, "_isp_step", checked)
    for simplex_stubs in (False, True):
        tier2_rollout(graph, tiers, simplex_stubs=simplex_stubs)
        for include_cps in (False, True):
            for rollout in (tier12_rollout, tier12_rollout_dense):
                rollout(
                    graph, tiers,
                    simplex_stubs=simplex_stubs, include_cps=include_cps,
                )
    assert len(labels) > 20


# ----------------------------------------------------------------------
# RolloutSweep unit behavior
# ----------------------------------------------------------------------
class TestRolloutSweep:
    def test_walk_matches_fresh_sweeps(self):
        graph, tiers = make_topology(9)
        chain = make_chain(graph, tiers, "tier12")
        rnd = random.Random(9)
        d = rnd.choice(graph.asns)
        attackers = rnd.sample([a for a in graph.asns if a != d], 6)
        model = SECURITY_MODELS[0]
        ctx = RoutingContext(graph)
        sweep = RolloutSweep(ctx, d, chain[0], model)
        for t, deployment in enumerate(chain):
            if t:
                sweep.advance(deployment)
            fresh = DestinationSweep(ctx, d, deployment, model)
            assert sweep.baseline_counts() == fresh.baseline_counts(), t
            assert [sweep.happiness_counts(m) for m in attackers] == [
                fresh.happiness_counts(m) for m in attackers
            ], t

    def test_advance_rejects_non_nested(self):
        graph, tiers = make_topology(10)
        sweep = RolloutSweep(graph, graph.asns[0], Deployment.of(graph.asns[:5]))
        with pytest.raises(ValueError, match="nested"):
            sweep.advance(Deployment.of(graph.asns[3:8]))

    def test_advance_allows_simplex_promotion(self):
        graph, _tiers = make_topology(11)
        stubs = [a for a in graph.asns[:-1] if graph.is_stub(a)][:3]
        members = graph.asns[:3] + stubs
        start = Deployment(full=frozenset(members[:3]), simplex=frozenset(stubs))
        promoted = Deployment.of(members)  # simplex members promoted to full
        d = graph.asns[-1]
        sweep = RolloutSweep(graph, d, start)
        sweep.advance(promoted)
        assert sweep.baseline_counts() == DestinationSweep(
            graph, d, promoted
        ).baseline_counts()

    def test_destination_signing_flip_rebuilds(self):
        """A chain step that secures the destination itself changes the
        root's announcement; the sweep rebuilds and still matches."""
        graph, _tiers = make_topology(12)
        rnd = random.Random(12)
        d = rnd.choice(graph.asns)
        m = next(a for a in graph.asns if a != d)
        model = SECURITY_MODELS[1]
        chain = [
            Deployment.empty(),
            Deployment.of([a for a in graph.asns[:8] if a != d and a != m]),
            Deployment.of([a for a in graph.asns[:12] if a != m] + [d]),
        ]
        ctx = RoutingContext(graph)
        sweep = RolloutSweep(ctx, d, chain[0], model)
        for t, deployment in enumerate(chain):
            if t:
                sweep.advance(deployment)
            fresh = DestinationSweep(ctx, d, deployment, model)
            assert sweep.happiness_counts(m) == fresh.happiness_counts(m), t

    @pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "numpy"])
    def test_long_chains_hold_one_step_of_state(self, vectorized):
        """A walk keeps the current step only, however long the chain:
        the context's mask cache stays at its cap of eight deployments,
        and the baseline after the last advance is a fresh sweep's."""
        if vectorized:
            pytest.importorskip("numpy")
        graph, tiers = make_topology(15)
        chain = make_chain(graph, tiers, "tier12_dense")
        assert len(chain) > 8
        rnd = random.Random(15)
        d = rnd.choice(graph.asns)
        m = next(a for a in graph.asns if a != d)
        ctx = RoutingContext(graph, vectorized=vectorized)
        sweep = RolloutSweep(ctx, d, chain[0], SECURITY_MODELS[0])
        for deployment in chain[1:]:
            sweep.advance(deployment)
            sweep.happiness_counts(m)
            assert len(ctx._mask_cache) <= 8
        fresh = DestinationSweep(ctx, d, chain[-1], SECURITY_MODELS[0])
        assert sweep.deployment is chain[-1]
        assert sweep.baseline_counts() == fresh.baseline_counts()
        assert dict(sweep.baseline_outcome().routes) == dict(
            fresh.baseline_outcome().routes
        )
        assert sweep.happiness_counts(m) == fresh.happiness_counts(m)

    def test_interleaved_attackers_leak_free_across_advances(self):
        graph, tiers = make_topology(13)
        chain = make_chain(graph, tiers, "tier12")
        rnd = random.Random(13)
        d = rnd.choice(graph.asns)
        a, b = rnd.sample([x for x in graph.asns if x != d], 2)
        model = SECURITY_MODELS[2]
        sweep = RolloutSweep(graph, d, chain[0], model)
        for t, deployment in enumerate(chain):
            if t:
                sweep.advance(deployment)
            first = sweep.happiness_counts(a)
            sweep.happiness_counts(b)
            assert sweep.happiness_counts(a) == first, t


class TestDeltaKernelsOnChains:
    """An advance runs its baseline pass on the same two kernels as an
    attacker's pass; a numpy context's dense pass must replay a scalar
    context's heap pass bit for bit at every step."""

    @staticmethod
    def _walkers(graph, make):
        """One walker per delta path, each on its own context."""
        return {
            "pure": make(RoutingContext(graph, vectorized=False)),
            "dense": make(RoutingContext(graph, vectorized=True)),
        }

    @pytest.mark.parametrize("kind", ["tier12", "tier12_simplex", "tier2"])
    @pytest.mark.parametrize("seed", [3, 9])
    def test_rollout_advances_bit_identical(self, seed, kind):
        pytest.importorskip("numpy")
        graph, tiers = make_topology(seed, ixp=seed % 2 == 1)
        chain = make_chain(graph, tiers, kind)
        pairs = chain_pairs(graph, seed, destinations=1, attackers=4)
        dest = pairs[0][1]
        atts = [m for m, _ in pairs]
        for model in (SECURITY_MODELS[0], lp2_variant(SECURITY_MODELS[1])):
            walkers = self._walkers(
                graph, lambda ctx: RolloutSweep(ctx, dest, chain[0], model)
            )
            for si, step in enumerate(chain):
                pure = None
                for path, w in walkers.items():
                    if si:
                        w.advance(step)
                        assert w.last_delta_path == path, (si, path)
                    # the advanced baseline in full, then the counts
                    got = [dict(w.baseline_outcome().routes)]
                    for m in atts:
                        got.append(w.happiness_counts(m))
                        assert w.last_delta_path == path, (si, path, m)
                    pure = pure or got
                    assert got == pure, (si, path)


    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=lambda a: a.token)
    def test_attacker_chain_bit_identical(self, attack):
        """One attacker along a chain — a one-pair job of the count plan
        and a walked sweep — counts the same at every step on both
        kernels, for every strategy (nothing bars a ``needs_baseline``
        one such as ``honest`` from a chain)."""
        pytest.importorskip("numpy")
        graph, tiers = make_topology(5)
        chain = make_chain(graph, tiers, "tier12")
        pairs = chain_pairs(graph, 5, destinations=2, attackers=2)
        for model in (BASELINE, SECURITY_MODELS[2]):
            for m, d in pairs[:4]:
                got = {}
                for path, ctx in self._walkers(graph, lambda ctx: ctx).items():
                    sweep = RolloutSweep(ctx, d, chain[0], model, attack)
                    walked = []
                    for si, step in enumerate(chain):
                        if si:
                            sweep.advance(step)
                        walked.append([sweep.happiness_counts(m)])
                        assert sweep.last_delta_path == path, (si, path)
                    planned = rollout_happiness_counts(
                        ctx, [(m, d)], chain, model, attack=attack
                    )
                    assert planned == walked, (path, m, d)
                    got[path] = planned
                assert got["dense"] == got["pure"], (m, d)
