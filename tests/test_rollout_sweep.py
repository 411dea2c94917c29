"""Differential tests for nested-deployment chains.

:func:`repro.core.jobs.rollout_happiness_counts` evaluates whole
chains as their distinct fixing passes, each run once.  The tests here
hold every step of a chain *bit-identical* to the step-independent
destination-major path (``batch_happiness_counts``) and to the
per-pair flat engine (``batch_outcomes``), whose every state pass is
certified stable (:mod:`repro.core.certify`), and, on sampled
pair-steps, to the seed reference engine (:mod:`repro.core.refimpl`).

Grids: full tier12/tier2 rollout chains (coarse, dense and
simplex-stub variants, prefixed with S = ∅) x all rank models
(baseline + three placements + LP2 variants) x ±IXP x all four shipped
attacker strategies, with attacker sets that include destination
neighbors, many-attacker groups (count rows, one per distinct pass),
and a chain step that secures an attacker itself.
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
    SECURITY_MODELS,
    batch_happiness_counts,
    deployment as deployment_module,
    jobs_happiness_counts,
    lp2_variant,
    normal_conditions,
    rollout_happiness_counts,
    strategy_from_token,
    stubs_of,
    tier2_rollout,
    tier12_rollout,
    tier12_rollout_dense,
)
from repro.core import fixing
from repro.core.context import RoutingContext
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, classify_tiers, generate_topology
from repro.topology.ixp import augment_with_ixp_peering

from test_destination_sweep import per_pair_counts, ref_pair_counts, share

#: every state call here is certified stable (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("certified")

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
    graph, pairs, chain, model, attack, refimpl_budget=0, steps=None
):
    """The whole chain in one call equals, at each of ``steps`` (every
    step by default), the step alone and one certified pass a pair."""
    ctx = RoutingContext(graph)
    rollout = rollout_happiness_counts(ctx, pairs, chain, model, attack=attack)
    for t in range(len(chain)) if steps is None else steps:
        deployment = chain[t]
        dest_major = batch_happiness_counts(
            ctx, pairs, deployment, model, attack=attack
        )
        assert rollout[t] == dest_major, (model.label, attack.token, t)
        per_pair = per_pair_counts(ctx, pairs, deployment, model, attack)
        assert rollout[t] == per_pair, (model.label, attack.token, t)
    # however long the chain, the mask cache stays at its cap
    assert len(ctx._mask_cache) <= 8
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
KINDS = ["tier12", "tier12_simplex", "tier2"]


@pytest.mark.parametrize("ixp", [False, True], ids=["base", "ixp"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chains_match_oracles_all_models(seed, kind, ixp):
    """One model a case: the three seeds and kinds run all four with
    and without the IXP peering."""
    graph, tiers = make_topology(seed, ixp=ixp)
    chain = make_chain(graph, tiers, kind)
    pairs = chain_pairs(graph, seed, destinations=3, attackers=2)
    model = ALL_MODELS[(seed + KINDS.index(kind) + ixp) % len(ALL_MODELS)]
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
    """The same four threat models on groups of four attackers, whose
    rows the two-attacker groups above do not cover (an ``honest``
    group resolves all of its attackers from one attacker-free pass
    per step)."""
    graph, tiers = make_topology(5)
    chain = make_chain(graph, tiers, "tier12")
    pairs = chain_pairs(graph, 5, destinations=3, attackers=4)
    for model in (BASELINE, SECURITY_MODELS[0], SECURITY_MODELS[1]):
        assert_chain_matches_oracles(
            graph, pairs, chain, model, attack, refimpl_budget=3
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


def test_many_attacker_groups_match_oracles():
    """Groups of seven attackers, each distinct pass a count row, match
    the oracles: each model's whole chain in one call, checked at every
    fourth step from its own offset, so the four models check every
    step between them."""
    graph, tiers = make_topology(7)
    chain = make_chain(graph, tiers, "tier12_dense")
    pairs = chain_pairs(
        graph, 7, destinations=2, attackers=7
    )
    for j, model in enumerate(ALL_MODELS):
        assert_chain_matches_oracles(
            graph, pairs, chain, model, ONE_HOP_HIJACK, refimpl_budget=3,
            steps=share(range(len(chain)), j, len(ALL_MODELS)),
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


def test_honest_chain_resolves_each_step_from_its_own_baseline():
    """``honest`` re-reads the attacker's route at every chain step: for
    pairs whose attacker's route turns secure along the chain, the step
    counts are the new resolution's, not the first step's (which would
    count differently)."""
    graph, tiers = make_topology(6)
    chain = make_chain(graph, tiers, "tier12")
    pairs = chain_pairs(graph, 6, destinations=3, attackers=4)
    model = SECURITY_MODELS[0]
    ctx = RoutingContext(graph)
    last = ctx.deployment_masks(chain[-1])
    stale = {}
    for i, (m, d) in enumerate(pairs):
        dest_i, att_i = ctx._check_pair(d, m)
        first, final = (
            fixing._resolve_attack(
                ctx, dest_i, att_i, *ctx.deployment_masks(s), model, HONEST
            )
            for s in (chain[0], chain[-1])
        )
        if first != final:
            stale[i] = fixing._run(ctx, dest_i, att_i, *last, model, first).counts[:2]
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
        assert jobs_happiness_counts(
            graph, [(pairs, [], BASELINE, ONE_HOP_HIJACK)]
        ) == [[]]

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
        passes = count_calls(fixing, "_run")
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
# A chain's count path against fresh per-step state
# ----------------------------------------------------------------------
def assert_chain_equals_fresh_steps(graph, d, attackers, chain, model, attack):
    """The count path's chain, attacker rows and a ``None`` row, equals
    per step a fresh sweep, ``normal_conditions`` and the seed engine;
    however long the chain, the mask cache stays at its cap."""
    ctx, ref_ctx = RoutingContext(graph), RefRoutingContext(graph)
    pairs = [(m, d) for m in attackers]
    walked = rollout_happiness_counts(
        ctx, pairs + [(None, d)], chain, model, attack=attack
    )
    for t, step in enumerate(chain):
        sweep = DestinationSweep(ctx, d, step, model, attack)
        free = normal_conditions(ctx, d, step, model)
        fresh = [sweep.happiness_counts(m) for m in attackers]
        assert walked[t] == fresh + [free.count_happy() + (ctx.n - 1,)], t
        assert fresh == ref_pair_counts(ref_ctx, pairs, step, model, attack), t
    assert len(ctx._mask_cache) <= 8


class TestChainWalk:
    @pytest.mark.parametrize(
        "seed, kind, model, attack, picks",
        [
            (9, "tier12", 0, ONE_HOP_HIJACK, [0, 1, 2, 3, 4, 5]),
            (15, "tier12_dense", 0, HONEST, [0, 1, 2]),
            (13, "tier12", 2, ONE_HOP_HIJACK, [0, 1, 0, 1, 0]),
        ],
        ids=["fresh_sweeps", "long_chain_honest", "interleaved_attackers"],
    )
    def test_walk_matches_fresh_steps(self, seed, kind, model, attack, picks):
        graph, tiers = make_topology(seed)
        chain = make_chain(graph, tiers, kind)
        assert kind != "tier12_dense" or len(chain) > 8
        rnd = random.Random(seed)
        d = rnd.choice(graph.asns)
        drawn = rnd.sample([a for a in graph.asns if a != d], max(picks) + 1)
        assert_chain_equals_fresh_steps(
            graph, d, [drawn[i] for i in picks], chain, SECURITY_MODELS[model], attack
        )

    def test_demoting_or_dropping_a_member_is_not_nested(self):
        graph, _tiers = make_topology(10)
        core = graph.asns[:5]
        stub = next(a for a in graph.asns[5:] if graph.is_stub(a))
        simplex = Deployment(full=frozenset(core), simplex=frozenset([stub]))
        for old, new in (
            (Deployment.of(core + [stub]), simplex),  # full set shrinks
            (simplex, Deployment.of(core)),  # signing set shrinks
        ):
            with pytest.raises(ValueError, match="nested"):
                rollout_happiness_counts(graph, [(stub, core[0])], [old, new])

    def test_simplex_promotion_is_a_step(self):
        graph, _tiers = make_topology(11)
        stubs = [a for a in graph.asns[:-1] if graph.is_stub(a)][:3]
        start = Deployment(full=frozenset(graph.asns[:3]), simplex=frozenset(stubs))
        chain = [start, Deployment.of(graph.asns[:3] + stubs)]  # promoted
        assert_chain_equals_fresh_steps(
            graph, graph.asns[-1], stubs + graph.asns[3:6], chain,
            SECURITY_MODELS[0], HONEST,
        )

    @pytest.mark.parametrize("attack", [ONE_HOP_HIJACK, HONEST], ids=lambda a: a.token)
    def test_destination_signing_flip(self, attack):
        """A step that secures the destination itself changes the
        root's announcement; every later step still matches."""
        graph, _tiers = make_topology(12)
        d = random.Random(12).choice(graph.asns)
        m = next(a for a in graph.asns if a != d)
        chain = [
            Deployment.empty(),
            Deployment.of([a for a in graph.asns[:8] if a not in (d, m)]),
            Deployment.of([a for a in graph.asns[:12] if a != m] + [d]),
        ]
        assert_chain_equals_fresh_steps(
            graph, d, [m], chain, SECURITY_MODELS[1], attack
        )


class TestDeltaKernelsOnChains:
    """At every step of a chain the attacker-free state and a fresh
    sweep's counts are certified state calls, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [3, 9])
    def test_rollout_advances_bit_identical(self, seed, kind):
        """One of the two models a case, each on both seeds and kinds."""
        graph, tiers = make_topology(seed, ixp=seed % 2 == 1)
        chain = make_chain(graph, tiers, kind)
        pairs = chain_pairs(graph, seed, destinations=1, attackers=4)
        dest = pairs[0][1]
        ctx = RoutingContext(graph)
        models = (SECURITY_MODELS[0], lp2_variant(SECURITY_MODELS[1]))
        case = 3 * [3, 9].index(seed) + KINDS.index(kind)
        for model in share(models, case, 6):
            for si, step in enumerate(chain):
                normal_conditions(ctx, dest, step, model)
                sweep = DestinationSweep(ctx, dest, step, model)
                got = [sweep.happiness_counts(m) for m, _ in pairs]
                assert got == per_pair_counts(ctx, pairs, step, model), si

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=lambda a: a.token)
    def test_attacker_chain_bit_identical(self, attack):
        """One attacker along a chain — a one-pair job of the count plan
        and a fresh sweep per step — counts what a certified state call
        does at every step, for every strategy (nothing bars a
        ``needs_baseline`` one such as ``honest`` from a chain)."""
        graph, tiers = make_topology(5)
        chain = make_chain(graph, tiers, "tier12")
        pairs = chain_pairs(graph, 5, destinations=2, attackers=2)
        ctx = RoutingContext(graph)
        case = ALL_STRATEGIES.index(attack)
        for model in (BASELINE, SECURITY_MODELS[2]):
            for m, d in share(pairs[:4], case, 2):
                swept = [
                    [DestinationSweep(ctx, d, step, model, attack).happiness_counts(m)]
                    for step in chain
                ]
                planned = rollout_happiness_counts(
                    ctx, [(m, d)], chain, model, attack=attack
                )
                assert planned == swept, (m, d)
