"""The three batch workloads: the write-md CLI, the pooled sweep and
fig7a at 80k ASes.  (The service workload is ``service_load.py``.)

Each ``run_*`` measures one run of one workload: untraced it returns
the end-to-end metrics, traced it returns the per-layer metrics.  The
work of a run is fixed — it depends on the seed, never on the clock —
so two runs of one commit do the same work.

A run repeats what it can — its set-up always, its measured region
where that is short — and spreads the repetitions over its whole
length.  The repetitions are identical work, and a timing's value is
the fastest of them: this VM's host flips, for tens of
seconds at a time, between a fast state and one 1.5-1.7x slower, which
only ever adds time, and a median of three to seven samples flips with
it.  Every ``# …`` note beside a value has the count, median and
maximum of the samples it is the fastest of.
"""

from __future__ import annotations

import dataclasses
import re
import subprocess
import sys
import time
from dataclasses import dataclass

from . import checks, layers
from .harness import RunResult, Scratch, TracedStore, child_env, rss_mb, trace_context
from .metrics import DEFAULT_SEED
from .stats import summarize
from .trace import NullTracer, Tracer

#: experiments of the pooled sweep: every rollout/guideline figure
#: that evaluates through the scenario plane.
SWEEP_FAMILY = (
    "baseline", "fig7a", "fig7b", "fig8", "fig11",
    "guideline_t1", "guideline_t2", "nonstubs",
)

#: ``write-md`` trimmed for ``--smoke``.
SMOKE_EXPERIMENTS = ("baseline", "fig3", "hysteresis")

#: cold ``write-md`` invocations per run, a ``list`` (the set-up)
#: before each and one after the last.
WRITEUP_ROUNDS = 4

#: rounds of the pooled sweep, each a set-up and a cold pass over a
#: sixteenth of ``medium``'s sampled pairs: the same 71 scenarios on
#: the same 2200-AS graph at the same 2.8 ms a pair-step, 359
#: pair-steps (≈ 1.2 s, 0.16 s of it pool start, store and rendering)
#: a round in place of 6 450 (≈ 18 s) once.  The shorter the repeated
#: unit, the likelier that one of a run's meets the host's fast state:
#: on a bad hour best-of-N over a 20 s run spread 0.37 between runs
#: with 5 s units, 0.27 with 2 s, 0.22 with 1 s and 0.12 with 0.3 s,
#: and one 18 s pass read 15.5 to 23 s within one set of ten runs.
SWEEP_ROUNDS = 12
SWEEP_PAIR_DIVISOR = 16

#: ``make_context`` + ``open_store`` set-ups (1.6 s each at ``large``)
#: beside the one the cold pass uses: (before, after) it.  The first
#: set-up of a process also pays its imports, so the fastest of three
#: was in effect the faster of two and read 1.6 to 2.5 s.
ROLLOUT_SPARE_SETUPS = (2, 3)

#: pairs fig7a samples at 80k.  With the default seed's graph these are
#: two typical pairs (≈ 3 s each) and one whose destination the
#: rollout secures (≈ 31 s in one-at-a-time ``_run_np`` bucket rounds)
#: — what ``rollout_pairs=120`` looks like in the large.
ROLLOUT_PAIRS = 3


@dataclass(frozen=True)
class Options:
    workload: str
    seed: int
    trace: bool
    smoke: bool


def end_to_end(
    result: RunResult, wall_s: list[float], setup_s: list[float], peak_mb: float
) -> None:
    """The three gated metrics: each timing the fastest of the run's
    identical repetitions, the notes their count, median and maximum."""
    result.metric("wall_s", min(wall_s))
    result.metric("peak_rss_mb", peak_mb)
    result.metric("setup_s", min(setup_s))
    result.note("wall_s", describe(wall_s, "s"))
    result.note("setup_s", describe(setup_s, "s"))


def describe(samples: list[float], unit: str) -> str:
    """Sample count, median, and the highest percentile that still has
    ten samples beyond it."""
    s = summarize(samples)
    text = f"n={s['n']} p50={s['p50']:.4g}{unit}"
    if s["tail_q"] is not None and s["tail_q"] > 50:
        text += f" p{s['tail_q']:g}={s['tail']:.4g}{unit}"
    return text + f" max={max(samples):.4g}{unit}"


def _fail_if_incidents(result: RunResult, ectx) -> None:
    failures = ectx.failure_log.scenario_failures()
    result.failed += len(failures)
    for incident in failures:
        result.error(f"scenario failed: {incident.render()}")


def _pair_steps(records: list[dict]) -> int:
    return sum(len(record["result"]["pairs"]) for record in records)


# ----------------------------------------------------------------------
# writeup_tiny: the batch CLI in a subprocess
# ----------------------------------------------------------------------

#: what legitimately differs between two invocations' output.
_VOLATILE = re.compile(
    r"wall time \d+s|\[\d+\.\ds\]|\d+ evaluated, \d+ cache hits"
)


def _cli(args: list[str], scratch: Scratch) -> tuple[float, str]:
    """Run ``python -m repro.experiments <args>``; (wall, stdout)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        env=child_env(), cwd=scratch.path, capture_output=True, text=True,
        timeout=170,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro.experiments {args[0]} exited {proc.returncode}: "
            f"{proc.stderr[-500:]}"
        )
    return wall, proc.stdout


def run_writeup(opts: Options, tracer: Tracer | NullTracer, scratch: Scratch) -> RunResult:
    if opts.trace:
        return _trace_writeup(opts, tracer, scratch)
    from repro.experiments.config import get_scale
    from repro.experiments.store import open_store
    from repro.topology import TopologyParams, generate_topology

    result = RunResult()

    def invoke(cache) -> tuple[float, str]:
        common = [
            "--scale", "tiny", "--processes", "1", "--seed", str(opts.seed),
            "--cache-dir", str(cache),
        ]
        if opts.smoke:
            wall, text = _cli(["run", *SMOKE_EXPERIMENTS, *common], scratch)
        else:
            out = scratch.fresh("EXPERIMENTS")
            wall, _ = _cli(["write-md", "--no-ixp", "--out", str(out), *common], scratch)
            text = out.read_text(encoding="utf-8")
        return wall, _VOLATILE.sub("", text)

    setup_s: list[float] = []
    cold_s: list[float] = []
    texts: list[str] = []
    for _ in range(1 if opts.smoke else WRITEUP_ROUNDS):
        setup_s.append(_cli(["list"], scratch)[0])
        cache = scratch.fresh("cache")
        wall, text = invoke(cache)
        cold_s.append(wall)
        texts.append(text)
    wall, listing = _cli(["list"], scratch)
    setup_s.append(wall)
    registered = [line.split()[0] for line in listing.splitlines()[1:]]
    wanted = list(SMOKE_EXPERIMENTS) if opts.smoke else registered
    heading = r"^== (\S+?):" if opts.smoke else r"^## (\S+) — "
    for text in texts:
        blocks = re.split(heading, text, flags=re.M)[1:]
        found = dict(zip(blocks[::2], blocks[1::2]))
        result.attempted += len(wanted)
        for eid in wanted:
            if eid not in found or "FAILED:" in found[eid]:
                result.failed += 1
                result.error(f"experiment block {eid} missing or FAILED")
    if len(set(texts)) != 1:
        result.error("write-md output differs between identical invocations")
    with open_store(cache) as store:
        records = list(store.records())
    if not checks.check_digest(
        result, opts.workload, opts.seed, checks.digest_text(texts[0]), opts.smoke
    ):
        graph = generate_topology(
            TopologyParams(n=get_scale("tiny").n, seed=opts.seed)
        ).graph
        result.failed += checks.spot_check(result, graph, records, opts.seed)
    end_to_end(result, cold_s, setup_s, rss_mb(children=True, own=False))
    result.metric("pair_steps_per_s", _pair_steps(records) / min(cold_s))
    return result


def _trace_writeup(opts: Options, tracer: Tracer, scratch: Scratch) -> RunResult:
    """The same 28 experiments in-process, one span each, through a
    spanned store and spanned ``ectx.metric``/``metric_chain``."""
    from repro.experiments import make_context, run_experiments
    from repro.experiments.config import get_scale
    from repro.experiments.registry import all_experiments
    from repro.experiments.store import open_store

    result = RunResult()
    ids = list(SMOKE_EXPERIMENTS) if opts.smoke else list(all_experiments())
    layers.probe_topology(tracer, result, get_scale("tiny").n, opts.seed)
    with tracer.span("run"):
        with tracer.span("experiments.runner.make_context") as made:
            ectx = make_context("tiny", seed=opts.seed, processes=1)
        with tracer.span("experiments.store.open"):
            store = TracedStore(open_store(scratch.fresh("store")), tracer)
        trace_context(ectx, tracer)
        for eid in ids:
            with tracer.span("experiments.exp", id=eid):
                block = run_experiments(ectx, [eid], store=store)[0]
            result.attempted += 1
            if "FAILED:" in block.text:
                result.failed += 1
                result.error(f"experiment block {eid} FAILED")
    with tracer.span("probe.experiments.runner.warm_rerun") as warm:
        run_experiments(ectx, ids, store=store)
    exp_s = {span.tags["id"]: span.duration for span in tracer.named("experiments.exp")}
    for eid, wall in exp_s.items():
        result.metric(f"experiments.exp_s.{eid}", wall)
    plane_s = tracer.total("experiments.runner.metric") + tracer.total_under(
        "experiments.store."
    )
    result.metric("experiments.scenario_plane_share", plane_s / sum(exp_s.values()))
    result.note(
        "scenario-plane vs not",
        f"{plane_s:.2f}s in store + ectx.metric*, "
        f"{sum(exp_s.values()) - plane_s:.2f}s outside (per-pair passes, "
        f"bgpsim, rendering); warm rerun {warm.duration:.2f}s of "
        f"{sum(exp_s.values()):.2f}s cold",
    )
    result.metric("experiments.runner.make_context_s", made.duration)
    result.metric("experiments.runner.warm_rerun_ms", warm.duration * 1e3)
    layers.scheduler_counts(tracer, result, ectx)
    _fail_if_incidents(result, ectx)
    layers.runner_metrics(tracer, result, 0.0, processes=1)
    layers.trace_metrics(tracer, result, "run")
    records = list(store.records())
    declared = layers.probe_scenarios(tracer, result, ectx, ids)
    layers.probe_routing(tracer, result, ectx.graph_ctx, declared, opts.seed)
    result.metric(
        "core.routing.pair_steps_per_s", _pair_steps(records) / tracer.total("run")
    )
    layers.probe_store(tracer, result, scratch, records)
    result.failed += checks.spot_check(result, ectx.graph, records, opts.seed)
    store.close()
    ectx.close()
    return result


# ----------------------------------------------------------------------
# The two in-process workloads: run_experiments on a fresh context
# ----------------------------------------------------------------------

def _set_up(scale, graph_seed: int, processes: int, scratch: Scratch):
    """``make_context`` + ``open_store`` on a fresh directory, timed."""
    from repro.experiments import make_context
    from repro.experiments.store import open_store

    started = time.perf_counter()
    ectx = make_context(scale, seed=graph_seed, processes=processes)
    store = open_store(scratch.fresh("store"))
    return ectx, store, time.perf_counter() - started


def _set_up_again(times: int, *set_up_args) -> list[float]:
    """``times`` more set-ups, each closed at once; their walls."""
    walls = []
    for _ in range(times):
        ectx, store, wall = _set_up(*set_up_args)
        store.close()
        ectx.close()
        walls.append(wall)
    return walls


def _cold_rounds(
    opts: Options, tracer, scratch: Scratch, result: RunResult,
    scale, graph_seed: int, processes: int, experiment_ids,
    rounds: int, spare_setups: tuple[int, int],
):
    """``rounds`` times: set up, then one cold ``run_experiments`` on
    that context and store; ``spare_setups`` more set-ups that no pass
    uses, (before the first round, after the last).

    Returns ``(ectx, store, records, setup_s, wall_s, peak_mb)`` with
    the last round's context, store and records, which the caller
    checks and closes; the peak is read before the later set-ups and
    the checks add their own memory.  Every round must store the same
    results."""
    from repro.experiments import run_experiments

    if opts.smoke or opts.trace:
        rounds, spare_setups = 1, (0, 0)
    set_up_args = (scale, graph_seed, processes, scratch)
    setup_s = _set_up_again(spare_setups[0], *set_up_args)
    wall_s: list[float] = []
    digests = set()
    ectx = store = None
    for _ in range(rounds):
        if ectx is not None:
            store.close()
            ectx.close()
        ectx, store, wall = _set_up(*set_up_args)
        setup_s.append(wall)
        if opts.trace:
            trace_context(ectx, tracer)
            store = TracedStore(store, tracer)
        started = time.perf_counter()
        with tracer.span("run"):
            blocks = run_experiments(ectx, experiment_ids, store=store)
        wall_s.append(time.perf_counter() - started)
        records = list(store.records())
        digests.add(checks.digest_records(records))
        result.attempted += len(records)
        result.failed += sum("FAILED:" in block.text for block in blocks)
        _fail_if_incidents(result, ectx)
    peak_mb = rss_mb(children=True, own=True)
    if len(digests) != 1:
        result.error("the rounds of one run stored different results")
    setup_s += _set_up_again(spare_setups[1], *set_up_args)
    return ectx, store, records, setup_s, wall_s, peak_mb


def _check_and_report(
    opts: Options, result: RunResult, ectx, records, setup_s, wall_s, peak_mb,
    graph_seed: int,
) -> None:
    """The untraced tail of an in-process workload."""
    checks.check_records(
        result, opts.workload, graph_seed, opts.smoke, ectx.graph, records
    )
    end_to_end(result, wall_s, setup_s, peak_mb)
    result.metric("pair_steps_per_s", _pair_steps(records) / min(wall_s))
    result.note(
        "size",
        f"{len(records)} scenarios, {_pair_steps(records)} pair-steps a round",
    )


def sweep_scale():
    """``medium`` with its two pair budgets cut by ``SWEEP_PAIR_DIVISOR``."""
    from repro.experiments.config import get_scale

    medium = get_scale("medium")
    return dataclasses.replace(
        medium,
        pair_samples=medium.pair_samples // SWEEP_PAIR_DIVISOR,
        rollout_pairs=medium.rollout_pairs // SWEEP_PAIR_DIVISOR,
    )


def run_sweep(opts: Options, tracer: Tracer | NullTracer, scratch: Scratch) -> RunResult:
    from repro.experiments.config import get_scale

    result = RunResult()
    scale = get_scale("tiny") if opts.smoke else sweep_scale()
    if opts.trace:
        layers.probe_topology(tracer, result, scale.n, opts.seed)
    ectx, store, records, setup_s, wall_s, peak_mb = _cold_rounds(
        opts, tracer, scratch, result, scale, opts.seed, 2, SWEEP_FAMILY,
        SWEEP_ROUNDS, (0, 0),
    )
    if opts.trace:
        _trace_sweep(
            opts, tracer, scratch, result, scale, ectx, store, records, setup_s
        )
    else:
        _check_and_report(
            opts, result, ectx, records, setup_s, wall_s, peak_mb, opts.seed
        )
    store.close()
    ectx.close()
    return result


def _trace_sweep(
    opts, tracer, scratch, result, scale, ectx, store, records, setup_s
) -> None:
    from repro.experiments import run_experiments

    with tracer.span("probe.experiments.runner.warm_rerun") as warm:
        run_experiments(ectx, SWEEP_FAMILY, store=store)
    result.metric("experiments.runner.warm_rerun_ms", warm.duration * 1e3)
    layers.scheduler_counts(tracer, result, ectx)
    layers.trace_metrics(tracer, result, "run")
    declared = layers.probe_scenarios(tracer, result, ectx, SWEEP_FAMILY)
    replay_s = layers.probe_routing(
        tracer, result, ectx.graph_ctx, declared, opts.seed
    )
    layers.runner_metrics(tracer, result, replay_s, processes=2)
    result.metric(
        "core.routing.pair_steps_per_s", _pair_steps(records) / tracer.total("run")
    )
    result.metric("experiments.runner.make_context_s", setup_s[0])
    layers.probe_pool_start(tracer, result, scale, opts.seed)
    layers.probe_store(tracer, result, scratch, records)
    checks.check_records(
        result, opts.workload, opts.seed, opts.smoke, ectx.graph, records
    )


def run_rollout(opts: Options, tracer: Tracer | NullTracer, scratch: Scratch) -> RunResult:
    """fig7a as the experiment itself asks for it, on the default
    seed's graph whatever ``--seed`` is.

    The cost of a pair at 80k ASes is heavy-tailed (10x between the
    sampled pairs), so another graph seed is another workload; the
    driver compares medians across seeds, which only means something
    when every seed does this same work.  ``--seed`` still picks the
    pair-steps a smoke run's spot check recomputes.
    """
    from repro.experiments.config import get_scale

    result = RunResult()
    scale = dataclasses.replace(
        get_scale("tiny" if opts.smoke else "large"), rollout_pairs=ROLLOUT_PAIRS
    )
    if opts.trace:
        layers.probe_topology(tracer, result, scale.n, DEFAULT_SEED)
    ectx, store, records, setup_s, wall_s, peak_mb = _cold_rounds(
        opts, tracer, scratch, result, scale, DEFAULT_SEED, 1, ["fig7a"],
        1, ROLLOUT_SPARE_SETUPS,
    )
    if opts.trace:
        _trace_rollout(opts, tracer, scratch, result, ectx, store, records, setup_s)
    else:
        _check_and_report(
            opts, result, ectx, records, setup_s, wall_s, peak_mb, DEFAULT_SEED
        )
    store.close()
    ectx.close()
    return result


def _trace_rollout(opts, tracer, scratch, result, ectx, store, records, setup_s) -> None:
    from repro.experiments import run_experiments

    result.metric(
        "core.routing.pair_steps_per_s", _pair_steps(records) / tracer.total("run")
    )
    result.metric("experiments.runner.make_context_s", setup_s[0])
    with tracer.span("probe.experiments.runner.warm_rerun") as warm:
        run_experiments(ectx, ["fig7a"], store=store)
    result.metric("experiments.runner.warm_rerun_ms", warm.duration * 1e3)
    layers.scheduler_counts(tracer, result, ectx)
    layers.trace_metrics(tracer, result, "run")
    declared = layers.probe_scenarios(tracer, result, ectx, ["fig7a"])
    # Kernel replay on the first sampled pair only: replaying all three
    # would run the degenerate pair's 31 s a second time.
    first = declared[0].pairs[0]
    replay_s = layers.probe_routing(
        tracer, result, ectx.graph_ctx, declared, opts.seed,
        replay=[dataclasses.replace(r, pairs=(first,)) for r in declared],
    )
    layers.runner_metrics(tracer, result, replay_s, processes=1)
    layers.probe_store(tracer, result, scratch, records)
    checks.check_records(
        result, opts.workload, DEFAULT_SEED, opts.smoke, ectx.graph, records
    )
