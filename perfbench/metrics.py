"""The benchmark's vocabulary: workloads and metric names.

``BENCHMARK.json`` at the repo root is generated from these tables
(``bench.py --calibrate`` rewrites it); ``test_bench_layered.py``
asserts that the two agree and that every name is printed.
"""

from __future__ import annotations

#: seed used when none is given, and the one ``digests.json`` covers.
DEFAULT_SEED = 2013

#: workload name → one-line reason it exists.
WORKLOADS: dict[str, str] = {
    "writeup_tiny": (
        "batch CLI as users run it: cold write-md subprocess, 28 experiment "
        "blocks; per-pair full passes and bgpsim dominate, pool and numpy idle"
    ),
    "sweep_pool_medium": (
        "run_experiments on medium's 2200-AS graph with 2 workers, 12 cold rounds: "
        "pure-python sweep deltas plus SupervisedPool dispatch; no full passes, no numpy"
    ),
    "rollout_large": (
        "fig7a's own 57 pair-steps at 80k ASes, one typical and one degenerate "
        "pair included: the only workload on the numpy kernels, large set-up "
        "and memory"
    ),
    "service_mixed_small": (
        "serve subprocess under a closed loop of 2 keep-alive clients, 15 rounds "
        "of 400 warm, batch, cold and streamed POSTs: store reads beside cold writes"
    ),
}
WRITEUP, SWEEP, ROLLOUT, SERVICE = WORKLOADS
EVERY = frozenset(WORKLOADS)
BATCH = EVERY - {SERVICE}

#: the workloads ``BENCHMARK.json`` names, which the driver runs and
#: gates: two sets of ten runs each must spread (IQR / median) and
#: shift by no more than a metric's bound, 0.25 at most.  This VM's
#: host changes mood every ten minutes or so, by 1.15-1.5x on every
#: workload (README, *Bounds*), which no statistic inside a run can
#: take out, so each gated (workload, timing) is four more ways to be
#: refused for the hour's mood.  The manifest names the fewest it may:
#: the two that engine work is measured by.  The other two are
#: measured, bounded and compared by ``bench.py`` all the same.
GATED = (SWEEP, ROLLOUT)

#: (name, unit, better) — ISSUE 12's end-to-end metrics that apply to
#: every workload and are never 0, which is what the manifest needs of
#: a gated metric.  Measured with tracing off.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: ISSUE 12's service-only medians.  ``service_mixed_small`` prints and
#: bounds them (``bounds.json``, ``--compare``); the batch workloads
#: have nothing to report under them, so the manifest cannot hold them.
SERVICE_END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("warm_p50_ms", "ms", "lower"),
    ("cold_p50_ms", "ms", "lower"),
    ("stream_ttfe_p50_ms", "ms", "lower"),
)

#: printed beside the above, never bounded: ``failed_ratio`` is 0 on a
#: healthy run and ``pair_steps_per_s`` is pair-steps ÷ ``wall_s``.
DERIVED_UNITS = {"failed_ratio": "ratio", "pair_steps_per_s": "1/s"}

MODELS = ("security_1st", "security_2nd", "security_3rd")
BACKENDS = ("jsonl", "sqlite")

#: one ``experiments.exp_s.<id>`` per registered experiment.
EXPERIMENT_PREFIX = "experiments.exp_s."

L, H = "lower", "higher"

#: (name, unit, better, workloads that reach the layer) — from the
#: traced run.  A traced run that does not record a metric its
#: workload reaches is wrong; one it does not reach is ``n/a``.
_PER_LAYER: tuple[tuple[str, str, str, frozenset[str]], ...] = (
    ("topology.generate_s", "s", L, EVERY),
    ("topology.classify_tiers_s", "s", L, EVERY),
    ("core.routing.context_build_s", "s", L, EVERY),
    ("core.routing.full_pass_ms_p50", "ms", L, EVERY),
    ("core.routing.full_pass_ms_max", "ms", L, EVERY),
    ("core.routing.sweep_baseline_ms_p50", "ms", L, EVERY),
    ("core.routing.sweep_delta_us_p50", "us", L, EVERY),
    ("core.routing.sweep_delta_us_max", "us", L, EVERY),
    *((f"core.routing.sweep_pair_us.{m}", "us", L, EVERY) for m in MODELS),
    # the service's requests are single-step: no chains there
    *((f"core.routing.chain_pairstep_us.{m}", "us", L, BATCH) for m in MODELS),
    ("core.routing.delta_path.pure", "count", H, EVERY),
    ("core.routing.delta_path.np", "count", H, EVERY),
    ("core.routing.delta_path.dense", "count", L, EVERY),
    ("core.routing.attackers_per_destination_mean", "count", H, EVERY),
    ("core.routing.pair_steps", "count", H, EVERY),
    ("core.routing.pair_steps_per_s", "1/s", H, BATCH),
    ("core.metrics.aggregate_us", "us", L, EVERY),
    ("core.shm.arenas_mapped", "count", L, BATCH),
    (EXPERIMENT_PREFIX, "s", L, frozenset({WRITEUP})),
    ("experiments.scenario_plane_share", "ratio", H, frozenset({WRITEUP})),
    ("experiments.scenarios.declare_ms", "ms", L, BATCH),
    ("experiments.scenarios.hash_us_p50", "us", L, EVERY),
    ("experiments.scenarios.detect_chains_ms", "ms", L, BATCH),
    ("experiments.scenarios.declared", "count", L, BATCH),
    ("experiments.scenarios.unique", "count", L, BATCH),
    *(
        (f"experiments.store.{op}.{b}", unit, L, EVERY)
        for op, unit in (
            ("open_ms", "ms"),
            ("put_us_p50", "us"),
            ("get_hit_us_p50", "us"),
            ("get_miss_us_p50", "us"),
        )
        for b in BACKENDS
    ),
    ("experiments.store.hits", "count", H, EVERY),
    ("experiments.store.misses", "count", L, EVERY),
    ("experiments.runner.make_context_s", "s", L, BATCH),
    ("experiments.runner.pool_start_ms", "ms", L, frozenset({SWEEP})),
    ("experiments.runner.evaluate_s", "s", L, BATCH),
    ("experiments.runner.parallel_efficiency", "ratio", H, frozenset({SWEEP})),
    ("experiments.runner.dispatch_overhead_s", "s", L, frozenset({SWEEP})),
    ("experiments.runner.warm_rerun_ms", "ms", L, BATCH),
    ("experiments.runner.incidents", "count", L, EVERY),
    *(
        (f"service.{name}", unit, better, frozenset({SERVICE}))
        for name, unit, better in (
            ("http.healthz_us_p50", "us", L),
            ("schemas.parse_us_p50.single", "us", L),
            ("schemas.parse_us_p50.batch16", "us", L),
            ("schemas.event_us_p50", "us", L),
            ("app.warm_handler_us_p50", "us", L),
            ("app.cold_eval_ms_p50", "ms", L),
            ("app.context_build_ms", "ms", L),
            ("app.warm_alone_p50_ms", "ms", L),
            ("app.warm_p99_ms", "ms", L),
            ("app.batch16_p50_ms", "ms", L),
            ("app.cold_p50_ms", "ms", L),
            ("app.cold_p90_ms", "ms", L),
            ("app.stream_ttfe_p50_ms", "ms", L),
            ("app.stream_total_p50_ms", "ms", L),
            ("app.requests_per_s", "1/s", H),
            ("app.hit_rate", "ratio", H),
            ("app.coalesced", "count", L),
            ("app.shed", "count", L),
        )
    ),
    ("trace.unattributed_share", "ratio", L, EVERY),
    ("trace.overhead_pct", "%", L, EVERY),
)


def per_layer(
    experiment_ids,
) -> tuple[tuple[str, str, str, frozenset[str]], ...]:
    """The per-layer table with one row per experiment id."""
    rows = []
    for name, unit, better, reach in _PER_LAYER:
        if name == EXPERIMENT_PREFIX:
            rows += [(name + eid, unit, better, reach) for eid in experiment_ids]
        else:
            rows.append((name, unit, better, reach))
    return tuple(rows)


def unit_of(name: str) -> str:
    """Unit of any metric the benchmark prints."""
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    if name.startswith(EXPERIMENT_PREFIX):
        name = EXPERIMENT_PREFIX
    for table in (END_TO_END, SERVICE_END_TO_END, _PER_LAYER):
        for row in table:
            if row[0] == name:
                return row[1]
    raise KeyError(f"not a benchmark metric: {name}")
