"""Per-layer probes: direct replays through each layer's public API.

A traced run calls these with the workload's own scenarios (or HTTP
bodies), each call under a ``probe.*`` span, and turns the spans into
the per-layer metrics of ``metrics.PER_LAYER``.  Probes never run in
an untraced run, so the end-to-end numbers do not pay for them.
"""

from __future__ import annotations

import random
import time
from statistics import fmean

from .harness import RunResult, Scratch
from .metrics import BACKENDS, MODELS
from .stats import median
from .trace import Tracer

#: samples per micro-probe (store ops, hashes).
PROBE_SAMPLES = 64

#: sampled pair-steps for the full-pass / hand-driven sweep probe:
#: as many as fit the budget (a pair-step costs ~1 s at 80k ASes).
SAMPLE_MIN, SAMPLE_MAX, SAMPLE_BUDGET_S = 4, 16, 4.0


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - started, value


def probe_topology(
    tracer: Tracer, result: RunResult, n: int, seed: int
) -> None:
    """``make_context``'s three steps, one span each."""
    from repro.core.routing import RoutingContext
    from repro.topology import TopologyParams, classify_tiers, generate_topology

    with tracer.span("probe.topology.generate") as generate:
        topo = generate_topology(TopologyParams(n=n, seed=seed))
    with tracer.span("probe.topology.classify_tiers") as classify:
        classify_tiers(topo.graph)
    with tracer.span("probe.core.routing.context_build") as build:
        RoutingContext(topo.graph).close()
    result.metric("topology.generate_s", generate.duration)
    result.metric("topology.classify_tiers_s", classify.duration)
    result.metric("core.routing.context_build_s", build.duration)


def probe_routing(
    tracer: Tracer, result: RunResult, ctx, requests: list, seed: int,
    replay: list | None = None,
) -> float:
    """Serial kernel replay of ``requests`` on routing context ``ctx``
    (of ``replay``, a cut of them, when replaying all costs too much).

    Every nested-deployment chain goes through
    ``rollout_happiness_counts`` and every single-step scenario through
    ``batch_happiness_counts`` — what one pool worker runs — so the
    total is the serial kernel time of the workload's scenarios
    (returned, for ``parallel_efficiency``).  A seeded sample of pairs
    additionally goes through the per-pair full pass and a hand-driven
    ``DestinationSweep``.
    """
    from repro.core.metrics import batch_happiness
    from repro.core.routing import (
        DestinationSweep,
        batch_happiness_counts,
        compute_routing_outcome,
        rollout_happiness_counts,
    )
    from repro.experiments.scenarios import detect_chains

    unique = list({r.scenario_hash: r for r in requests}.values())
    rng = random.Random(f"probe/{seed}")
    result.metric("core.routing.pair_steps", sum(len(r.pairs) for r in unique))
    result.metric(
        "core.routing.attackers_per_destination_mean",
        fmean(len(r.pairs) / len({d for _, d in r.pairs}) for r in unique),
    )
    if replay is not None:
        unique = list({r.scenario_hash: r for r in replay}.values())

    # -- the workload's chains and single-step scenarios ---------------
    chain_us: dict[str, list[float]] = {m: [] for m in MODELS}
    single_us: dict[str, list[float]] = {m: [] for m in MODELS}
    replay_s = 0.0
    with tracer.span("probe.core.routing.replay"):
        for chain in detect_chains(unique):
            head = chain[0]
            pairs, model = list(head.pairs), head.to_model()
            deployments = [r.to_deployment() for r in chain]
            if len(chain) == 1:
                wall, _ = timed(
                    batch_happiness_counts, ctx, pairs, deployments[0], model,
                    attack=head.to_attack(),
                )
                bucket = single_us
            else:
                wall, _ = timed(
                    rollout_happiness_counts, ctx, pairs, deployments, model,
                    attack=head.to_attack(),
                )
                bucket = chain_us
            replay_s += wall
            if head.model in bucket:
                bucket[head.model].append(
                    wall / (len(pairs) * len(chain)) * 1e6
                )
    for model in MODELS:
        if not single_us[model]:
            # The workload has no single-step scenario under this model
            # (a pure rollout): replay one chain's last step alone.
            steps = [r for r in unique if r.model == model]
            if steps:
                last = max(steps, key=lambda r: len(r.deployment_full))
                wall, _ = timed(
                    batch_happiness_counts, ctx, list(last.pairs),
                    last.to_deployment(), last.to_model(),
                    attack=last.to_attack(),
                )
                single_us[model].append(wall / len(last.pairs) * 1e6)
        # No sample, no metric: the run fails if this workload was
        # expected to reach the kernel (``metrics.per_layer``).
        if single_us[model]:
            result.metric(
                f"core.routing.sweep_pair_us.{model}", median(single_us[model])
            )
        if chain_us[model]:
            result.metric(
                f"core.routing.chain_pairstep_us.{model}", median(chain_us[model])
            )

    # -- a seeded sample of pair-steps, three ways ----------------------
    secured = [r for r in unique if r.model in MODELS] or unique
    full_ms: list[float] = []
    baseline_ms: list[float] = []
    delta_us: list[float] = []
    paths = {"pure": 0, "vectorized": 0, "dense": 0}
    aggregate_us: list[float] = []
    with tracer.span("probe.core.routing.sample") as sampling:
        while len(full_ms) < SAMPLE_MAX and (
            len(full_ms) < SAMPLE_MIN
            or time.perf_counter() - sampling.start < SAMPLE_BUDGET_S
        ):
            request = rng.choice(secured)
            deployment, model = request.to_deployment(), request.to_model()
            attack = request.to_attack()
            attacker, destination = rng.choice(request.pairs)
            wall, _ = timed(
                lambda: compute_routing_outcome(
                    ctx, destination, attacker=attacker,
                    deployment=deployment, model=model, attack=attack,
                ).count_happy()
            )
            full_ms.append(wall * 1e3)
            wall, sweep = timed(
                DestinationSweep, ctx, destination, deployment, model, attack
            )
            baseline_ms.append(wall * 1e3)
            for m, d in request.pairs:
                if d != destination:
                    continue
                wall, _ = timed(sweep.happiness_counts, m)
                delta_us.append(wall * 1e6)
                paths[sweep.last_delta_path] += 1
            # The aggregation step is the difference of two nearly equal
            # walls: take each side's best of three.
            pairs = list(request.pairs[:8])
            args = (ctx, pairs, deployment, model)
            counts_wall = min(
                timed(batch_happiness_counts, *args, attack=attack)[0]
                for _ in range(3)
            )
            happy_wall = min(
                timed(batch_happiness, *args, attack=attack)[0] for _ in range(3)
            )
            aggregate_us.append((happy_wall - counts_wall) / len(pairs) * 1e6)
    result.metric("core.routing.full_pass_ms_p50", median(full_ms))
    result.metric("core.routing.full_pass_ms_max", max(full_ms))
    result.metric("core.routing.sweep_baseline_ms_p50", median(baseline_ms))
    result.metric("core.routing.sweep_delta_us_p50", median(delta_us))
    result.metric("core.routing.sweep_delta_us_max", max(delta_us))
    result.metric("core.routing.delta_path.pure", paths["pure"])
    result.metric("core.routing.delta_path.np", paths["vectorized"])
    result.metric("core.routing.delta_path.dense", paths["dense"])
    result.metric("core.metrics.aggregate_us", median(aggregate_us))
    result.note(
        "core.routing sweep_baseline / full_pass",
        f"{median(baseline_ms) / median(full_ms):.3f} "
        f"(n={len(full_ms)} sampled pair-steps)",
    )
    return replay_s


def probe_scenarios(
    tracer: Tracer, result: RunResult, ectx, experiment_ids
) -> list:
    """Declaration, hashing and chain detection; returns the requests."""
    from repro.experiments.registry import get_experiment
    from repro.experiments.scenarios import detect_chains

    ectx.cache.clear()  # plans are memoized per context: declare cold
    with tracer.span("probe.experiments.scenarios.declare") as declare:
        declared = [
            request
            for eid in experiment_ids
            for request in get_experiment(eid).requests(ectx)
        ]
    unique = list({r.scenario_hash: r for r in declared}.values())
    with tracer.span("probe.experiments.scenarios.detect_chains") as detect:
        detect_chains(unique)
    result.metric("experiments.scenarios.declare_ms", declare.duration * 1e3)
    result.metric("experiments.scenarios.detect_chains_ms", detect.duration * 1e3)
    result.metric("experiments.scenarios.declared", len(declared))
    result.metric("experiments.scenarios.unique", len(unique))
    result.metric("experiments.scenarios.hash_us_p50", hash_us_p50(tracer, unique))
    return declared


def hash_us_p50(tracer: Tracer, requests: list) -> float:
    """``EvalRequest.build`` → ``scenario_hash`` on fresh objects."""
    from repro.experiments.scenarios import EvalRequest

    samples = []
    with tracer.span("probe.experiments.scenarios.hash"):
        for request in requests[:PROBE_SAMPLES]:
            deployment, model = request.to_deployment(), request.to_model()
            wall, _ = timed(
                lambda: EvalRequest.build(
                    scale=request.scale, seed=request.seed, ixp=request.ixp,
                    pairs=request.pairs, deployment=deployment, model=model,
                    attack=request.attack,
                ).scenario_hash
            )
            samples.append(wall * 1e6)
    return median(samples)


def probe_store(
    tracer: Tracer, result: RunResult, scratch: Scratch, records: list[dict]
) -> None:
    """open / put / get-hit (fresh handle) / get-miss per live backend,
    with the workload's own records."""
    from repro.experiments.scenarios import EvalRequest, result_from_record
    from repro.experiments.store import open_store

    items = [
        (
            EvalRequest.from_canonical(record["request"]),
            result_from_record(record["result"]),
        )
        for record in records[:PROBE_SAMPLES]
    ]
    for backend in BACKENDS:
        root = scratch.fresh(f"probe-store-{backend}")
        with tracer.span(f"probe.experiments.store.{backend}"):
            open_wall, store = timed(open_store, root, backend=backend)
            puts = [timed(store.put, *item)[0] for item in items]
            store.close()
            store = open_store(root, backend=backend)
            hits = [
                timed(store.get, request.scenario_hash)[0]
                for request, _ in items
            ]
            misses = [
                timed(store.get, f"{i:020x}")[0] for i in range(len(items))
            ]
            store.close()
        result.metric(f"experiments.store.open_ms.{backend}", open_wall * 1e3)
        result.metric(f"experiments.store.put_us_p50.{backend}", median(puts) * 1e6)
        result.metric(
            f"experiments.store.get_hit_us_p50.{backend}", median(hits) * 1e6
        )
        result.metric(
            f"experiments.store.get_miss_us_p50.{backend}", median(misses) * 1e6
        )


def _noop_task(ectx, item, state):
    return item


def probe_pool_start(tracer: Tracer, result: RunResult, scale, seed: int) -> None:
    """First ``map_tasks`` on a fresh 2-process context (forks the
    pool) minus the second (pool already up)."""
    from repro.experiments import make_context

    with tracer.span("probe.experiments.runner.pool_start"):
        with make_context(scale, seed=seed, processes=2) as ectx:
            first, _ = timed(ectx.map_tasks, _noop_task, range(8), min_parallel=2)
            second, _ = timed(ectx.map_tasks, _noop_task, range(8), min_parallel=2)
    result.metric("experiments.runner.pool_start_ms", (first - second) * 1e3)


def scheduler_counts(tracer: Tracer, result: RunResult, ectx) -> None:
    """Store lookups (counted by ``TracedStore``), the incidents the
    context recorded during the traced pass, and the shared-memory
    arenas this process maps after it."""
    from repro.core.shm import arena_stats

    for name in ("experiments.store.hits", "experiments.store.misses"):
        result.metric(name, tracer.counters.get(name, 0))
    result.metric("experiments.runner.incidents", len(ectx.failure_log))
    result.metric("core.shm.arenas_mapped", arena_stats()["segments"])


def runner_metrics(
    tracer: Tracer, result: RunResult, replay_s: float, processes: int
) -> None:
    """Scheduler metrics from the traced pass's own spans."""
    metric_s = tracer.total("experiments.runner.metric")
    store_s = tracer.total_under("experiments.store.")
    result.metric("experiments.runner.evaluate_s", metric_s + store_s)
    if processes > 1:
        result.metric(
            "experiments.runner.parallel_efficiency",
            replay_s / (processes * metric_s),
        )
        result.metric(
            "experiments.runner.dispatch_overhead_s", metric_s - replay_s / processes
        )


def trace_metrics(tracer: Tracer, result: RunResult, root_name: str) -> None:
    """How much of the traced wall the spans explain, and what the
    spans themselves cost (count × measured cost of an empty span)."""
    wall = tracer.total(root_name)
    result.metric("trace.unattributed_share", tracer.unattributed_share(root_name))
    result.metric(
        "trace.overhead_pct", 100.0 * len(tracer.spans) * tracer.span_cost() / wall
    )
