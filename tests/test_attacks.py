"""Attacker-strategy subsystem tests.

Every shipped strategy (plus a custom export-scope strategy exercising
the abstraction beyond what ships) is held bit-identical across all
implementations of the routing model:

* per-pair flat engine (``batch_outcomes``) vs destination-major delta
  re-fixing (``batch_happiness_counts``);
* full :class:`RouteInfo` records vs the seed reference engine
  (:mod:`repro.core.refimpl`);
* deterministic-tiebreak choice/endpoint/secure vs the message-passing
  simulator (:mod:`repro.bgpsim`), in both constructor and
  ``inject_attacker`` modes.

Algebraic identities pin the strategy semantics (``khop1`` ≡ the
default hijack; ``forged_origin`` degenerates to the hijack when the
victim is unsigned and *defeats* security-aware rankings when it is
signed), the scenario plane stores strategies under distinct hashes,
and golden ``H_{M,D}(S)`` fixtures freeze every strategy's metric at
the ``small`` scale (regenerate with
``PYTHONPATH=src python tests/test_attacks.py --regen``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.bgpsim import BGPSimulator, PolicyAssignment
from repro.core import (
    BASELINE,
    Deployment,
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    PathLengthHijack,
    Reach,
    ResolvedAttack,
    RoutingContext,
    SECURITY_MODELS,
    SHIPPED_STRATEGIES,
    AttackStrategy,
    batch_happiness_counts,
    batch_outcomes,
    compute_routing_outcome,
    security_metric,
    strategy_from_token,
)
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.topology import TopologyParams, generate_topology
from repro.topology.graph import graph_from_edges

from test_destination_sweep import per_pair_counts

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_attacks_small.json"

ALL_MODELS = (BASELINE,) + SECURITY_MODELS


@dataclass(frozen=True)
class CustomerScopeHijack(AttackStrategy):
    """Test-only strategy: the one-hop lie whispered to customers only.

    Exercises the export-scope knob of :class:`ResolvedAttack`, which no
    shipped strategy restricts.
    """

    token = "test_customer_scope"

    def resolve(self, dest_signed, baseline=None):
        return ResolvedAttack(length=1, wire=False, export_all=False)


STRATEGIES: tuple[AttackStrategy, ...] = SHIPPED_STRATEGIES + (
    PathLengthHijack(1),
    CustomerScopeHijack(),
)


def make_instance(seed: int, n: int = 52):
    """(graph, destination, attackers, deployment) from one seed.

    Attackers include every neighbor of the destination (the adjacent
    edge cases where claimed and honest routes compete hardest) plus
    remote samples.
    """
    topo = generate_topology(TopologyParams(n=n, seed=seed))
    graph = topo.graph
    rnd = random.Random(seed * 7001 + 3)
    asns = graph.asns
    destination = rnd.choice(asns)
    adjacent = sorted(graph.neighbors(destination))
    remote = [a for a in asns if a != destination and a not in adjacent]
    attackers = adjacent + rnd.sample(remote, min(6, len(remote)))
    members = rnd.sample(asns, rnd.randint(0, len(asns) // 2))
    deployment = Deployment.of(members)
    if seed % 2:
        deployment = deployment.with_simplex_stubs(graph)
    return graph, destination, attackers, deployment


# ----------------------------------------------------------------------
# Differential: per-pair vs destination-major, per strategy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.token)
@pytest.mark.parametrize("seed", range(8))
def test_counts_match_per_pair_engine(seed, strategy):
    graph, destination, attackers, deployment = make_instance(seed)
    ctx = RoutingContext(graph)
    pairs = [(m, destination) for m in attackers]
    for model in ALL_MODELS:
        dest_major = batch_happiness_counts(
            ctx, pairs, deployment, model, attack=strategy
        )
        per_pair = per_pair_counts(ctx, pairs, deployment, model, strategy)
        assert dest_major == per_pair, (strategy.token, model.label)


# ----------------------------------------------------------------------
# Differential: full outcomes vs the seed reference engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.token)
@pytest.mark.parametrize("seed", range(4))
def test_outcomes_match_refimpl(seed, strategy):
    graph, destination, attackers, deployment = make_instance(seed)
    ctx = RoutingContext(graph)
    ref_ctx = RefRoutingContext(graph)
    sample = attackers[:5]
    for model in ALL_MODELS:
        for m in sample:
            out = compute_routing_outcome(
                ctx, destination, attacker=m, deployment=deployment,
                model=model, attack=strategy,
            )
            ref = ref_compute_routing_outcome(
                ref_ctx, destination, attacker=m, deployment=deployment,
                model=model, attack=strategy,
            )
            assert dict(out.routes) == ref.routes, (strategy.token, model.label, m)
            assert out.count_happy() == ref.count_happy()
            assert out.count_attacked() == ref.count_attacked()
            assert out.count_secure_sources() == ref.count_secure_sources()


# ----------------------------------------------------------------------
# Differential: vs the message-passing simulator
# ----------------------------------------------------------------------
def _assert_matches_simulator(out, sim, graph, destination, attacker):
    for asn in graph.asns:
        if asn in (destination, attacker):
            continue
        chosen = sim.best[asn]
        if chosen is None:
            assert asn not in out.routes, asn
            continue
        info = out.routes[asn]
        assert info.choice == chosen[0], asn
        sim_endpoint = (
            Reach.ATTACKER if sim.routes_to_attacker(asn) else Reach.DEST
        )
        assert info.endpoint == sim_endpoint, asn
        assert out.uses_secure_route(asn) == sim.uses_secure_route(asn), asn


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.token)
@pytest.mark.parametrize("seed", range(4))
def test_matches_simulator(seed, strategy):
    graph, destination, attackers, deployment = make_instance(seed)
    m = attackers[seed % len(attackers)]
    for model in (BASELINE, SECURITY_MODELS[0], SECURITY_MODELS[2]):
        out = compute_routing_outcome(
            graph, destination, attacker=m, deployment=deployment,
            model=model, attack=strategy,
        )
        sim = BGPSimulator(
            graph, destination, deployment=deployment,
            policies=PolicyAssignment.uniform(model),
            attacker=m, attack=strategy,
        )
        sim.run()
        _assert_matches_simulator(out, sim, graph, destination, m)


@pytest.mark.parametrize(
    "strategy", (HONEST, FORGED_ORIGIN), ids=lambda s: s.token
)
def test_matches_simulator_injected(strategy):
    """The dynamic path: converge normally, then turn the AS malicious."""
    graph, destination, attackers, deployment = make_instance(2)
    m = attackers[-1]
    model = SECURITY_MODELS[1]
    sim = BGPSimulator(
        graph, destination, deployment=deployment,
        policies=PolicyAssignment.uniform(model), attack=strategy,
    )
    sim.run()
    sim.inject_attacker(m)
    sim.run()
    out = compute_routing_outcome(
        graph, destination, attacker=m, deployment=deployment,
        model=model, attack=strategy,
    )
    _assert_matches_simulator(out, sim, graph, destination, m)


# ----------------------------------------------------------------------
# Strategy semantics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_khop1_reproduces_default_hijack(seed):
    """khop1 claims exactly the paper's lie — results must be identical
    pairwise (only the scenario token differs)."""
    graph, destination, attackers, deployment = make_instance(seed)
    ctx = RoutingContext(graph)
    pairs = [(m, destination) for m in attackers]
    for model in ALL_MODELS:
        k1 = batch_happiness_counts(
            ctx, pairs, deployment, model, attack=PathLengthHijack(1)
        )
        default = batch_happiness_counts(
            ctx, pairs, deployment, model, attack=ONE_HOP_HIJACK
        )
        assert k1 == default, model.label


@pytest.mark.parametrize("seed", range(4))
def test_forged_origin_degenerates_without_victim_signing(seed):
    """With S = ∅ there is nothing to mimic: forged_origin == hijack."""
    graph, destination, attackers, _ = make_instance(seed)
    pairs = [(m, destination) for m in attackers]
    for model in ALL_MODELS:
        forged = batch_happiness_counts(
            graph, pairs, Deployment.empty(), model, attack=FORGED_ORIGIN
        )
        default = batch_happiness_counts(
            graph, pairs, Deployment.empty(), model, attack=ONE_HOP_HIJACK
        )
        assert forged == default, model.label


def test_forged_origin_defeats_security_aware_ranking():
    """Under full deployment + security-1st the classic hijack is
    rejected nearly everywhere; the forged-origin lie looks valid and
    keeps attracting victims — strictly fewer happy sources."""
    graph, destination, attackers, _ = make_instance(1)
    deployment = Deployment.everywhere(graph)
    model = SECURITY_MODELS[0]
    pairs = [(m, destination) for m in attackers]
    hijack = batch_happiness_counts(
        graph, pairs, deployment, model, attack=ONE_HOP_HIJACK
    )
    forged = batch_happiness_counts(
        graph, pairs, deployment, model, attack=FORGED_ORIGIN
    )
    assert sum(h[0] for h in forged) < sum(h[0] for h in hijack)
    for f, h in zip(forged, hijack):
        assert f[0] <= h[0] and f[1] <= h[1]


def test_longer_claims_attract_fewer_victims():
    """Path padding trades attraction for stealth: happy counts are
    monotone non-decreasing in the claimed length."""
    graph, destination, attackers, deployment = make_instance(3)
    pairs = [(m, destination) for m in attackers]
    previous = None
    for k in (1, 2, 4, 8):
        counts = batch_happiness_counts(
            graph, pairs, deployment, BASELINE, attack=PathLengthHijack(k)
        )
        if previous is not None:
            for prev, cur in zip(previous, counts):
                assert prev[0] <= cur[0] and prev[1] <= cur[1], k
        previous = counts


def test_honest_attacker_without_route_stays_silent():
    """An honest attacker disconnected from the victim announces
    nothing: everyone else routes as under normal conditions, and the
    attacker is still excluded from the source population."""
    # 9 is the would-be attacker, fully isolated
    graph = graph_from_edges(customer_provider=[(2, 1), (3, 2)], asns=[9])
    out = compute_routing_outcome(graph, 3, attacker=9, attack=HONEST)
    normal = compute_routing_outcome(graph, 3)
    assert out.count_happy() == normal.count_happy()
    assert out.num_sources == normal.num_sources - 1
    info = out.routes[9]
    assert info.reaches is Reach.NONE
    assert info.endpoint is Reach.NONE
    ref = ref_compute_routing_outcome(graph, 3, attacker=9, attack=HONEST)
    assert dict(out.routes) == ref.routes


def test_outcomes_carry_the_strategy():
    """Outcomes report the threat model they were asked under —
    including an attacker-free one."""
    graph, destination, attackers, deployment = make_instance(0)
    pairs = [(None, destination), (attackers[0], destination)]
    for m, _ in pairs:
        out = compute_routing_outcome(
            graph, destination, m, deployment, BASELINE, attack=HONEST
        )
        assert out.attack is HONEST
    outs = batch_outcomes(graph, pairs, deployment, BASELINE, HONEST)
    assert [out.attack for out in outs] == [HONEST, HONEST]


def test_honest_attacker_uses_its_real_route_attributes():
    """The honest claim carries the attacker's true length and signing:
    resolved per pair from the attacker-free baseline."""
    graph, destination, attackers, _ = make_instance(5)
    deployment = Deployment.everywhere(graph)
    m = attackers[0]
    normal = compute_routing_outcome(
        graph, destination, deployment=deployment, model=SECURITY_MODELS[0]
    )
    base_info = normal.routes[m]
    out = compute_routing_outcome(
        graph, destination, attacker=m, deployment=deployment,
        model=SECURITY_MODELS[0], attack=HONEST,
    )
    info = out.routes[m]
    assert info.length == base_info.length
    assert info.wire_secure == base_info.wire_secure


# ----------------------------------------------------------------------
# Scenario plane integration
# ----------------------------------------------------------------------
def test_strategies_hash_as_distinct_scenarios():
    from repro.experiments import EvalRequest

    base = dict(
        scale="tiny", seed=1, ixp=False, pairs=[(4, 2)],
        deployment=Deployment.of([2]), model=SECURITY_MODELS[1],
    )
    hashes = {
        EvalRequest.build(**base, attack=strategy).scenario_hash
        for strategy in STRATEGIES
    }
    assert len(hashes) == len(STRATEGIES)
    # String tokens and instances are interchangeable at build time.
    assert (
        EvalRequest.build(**base, attack="honest").scenario_hash
        == EvalRequest.build(**base, attack=HONEST).scenario_hash
    )


def test_token_round_trip():
    for strategy in SHIPPED_STRATEGIES + (PathLengthHijack(7),):
        assert strategy_from_token(strategy.token) == strategy
    with pytest.raises(ValueError):
        strategy_from_token("prefix_squat")
    with pytest.raises(ValueError):
        strategy_from_token("khopx")


def test_cli_attack_flag_end_to_end(tmp_path, capsys):
    """`run --attack honest` evaluates and stores strategy-aware hashes,
    and a warm rerun evaluates nothing."""
    from repro.experiments.cli import main

    cache = tmp_path / "cache"
    argv = [
        "run", "baseline", "--scale", "tiny", "--attack", "honest",
        "--cache-dir", str(cache),
    ]
    assert main(argv) == 0
    records = [
        json.loads(line)
        for line in (cache / "results.jsonl").read_text().splitlines()
    ]
    assert records and all(r["request"]["attack"] == "honest" for r in records)
    capsys.readouterr()
    assert main(argv) == 0
    assert "0 evaluated" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Golden H_{M,D}(S) fixtures per strategy (small scale)
# ----------------------------------------------------------------------
SCALE = "small"
SEED = 2013
NUM_PAIRS = 12
GOLDEN_DEPLOYMENT = "t12_full"


def _compute_golden() -> dict:
    from repro.experiments import make_context

    ectx = make_context(scale=SCALE, seed=SEED)
    rng = ectx.rng("golden-attack-pairs")
    asns = ectx.graph.asns
    pairs = []
    while len(pairs) < NUM_PAIRS:
        m = rng.choice(asns)
        d = rng.choice(asns)
        if m != d:
            pairs.append((m, d))
    deployment = ectx.catalog.get(GOLDEN_DEPLOYMENT)
    scenarios = {}
    for strategy in SHIPPED_STRATEGIES:
        for model in SECURITY_MODELS:
            result = security_metric(
                ectx.graph_ctx, pairs, deployment, model, attack=strategy
            )
            scenarios[f"{strategy.token}/{model.label}"] = {
                "happy_lower": [r.happy_lower for r in result.per_pair],
                "happy_upper": [r.happy_upper for r in result.per_pair],
                "value_lower": result.value.lower,
                "value_upper": result.value.upper,
            }
    return {
        "scale": SCALE,
        "seed": SEED,
        "deployment": GOLDEN_DEPLOYMENT,
        "pairs": [list(p) for p in pairs],
        "scenarios": scenarios,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    if not GOLDEN_PATH.exists():  # pragma: no cover - regen instructions
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            "`PYTHONPATH=src python tests/test_attacks.py --regen`"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute_golden()


def test_golden_pair_sample_is_stable(golden, computed):
    assert computed["pairs"] == golden["pairs"]


def test_golden_covers_every_strategy(golden):
    assert len(golden["scenarios"]) == len(SHIPPED_STRATEGIES) * len(
        SECURITY_MODELS
    )


def test_golden_metrics_reproduce_exactly(golden, computed):
    for name, want in golden["scenarios"].items():
        got = computed["scenarios"][name]
        assert got["happy_lower"] == want["happy_lower"], name
        assert got["happy_upper"] == want["happy_upper"], name
        assert got["value_lower"] == want["value_lower"], name
        assert got["value_upper"] == want["value_upper"], name


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/test_attacks.py --regen")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
