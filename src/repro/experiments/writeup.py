"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table & figure.

All runs go through the scenario scheduler
(:func:`repro.experiments.runner.run_experiments`), so scenarios shared
between figures are evaluated once, a persistent
:class:`~repro.experiments.store.ResultStore` makes repeated runs
incremental, and ``trials > 1`` reruns every sweep over consecutive
topology seeds and aggregates rows as mean ± stderr.
"""

from __future__ import annotations

import time
from typing import Sequence

from .config import DEFAULT_SEED, get_scale
from .failures import FailureLog
from .registry import ExperimentResult, aggregate_trials, all_experiments
from .runner import make_context, run_experiments
from .store import ResultStore

#: Experiments rerun on the IXP-augmented graph for the Appendix J pass.
IXP_FAMILY = ("baseline", "fig3", "fig4", "fig5", "fig6", "fig13", "lp2")

HEADER = """\
# EXPERIMENTS — paper vs. measured

Regenerated with::

    python -m repro.experiments write-md --scale {scale} --seed {seed}{trial_flag}

Substrate: seeded synthetic Internet-like AS graph (see DESIGN.md §1 for
the substitution rationale).  Absolute percentages therefore differ from
the paper's UCLA-graph numbers; the claims being reproduced are the
*shapes*: orderings between security models, which tiers win/lose, where
the crossovers sit.  Every block below states the paper's expectation and
prints the measured reproduction.

Scale: `{scale}` (n = {n} ASes), seed {seed}, trials {trials}, wall time {elapsed:.0f}s.
"""


def run_trials(
    experiment_ids: Sequence[str],
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    processes: int = 1,
    trials: int = 1,
    store: ResultStore | None = None,
    ixp: bool = False,
    attack: str = "hijack",
    failure_log: FailureLog | None = None,
) -> list[ExperimentResult]:
    """Run experiments over ``trials`` consecutive topology seeds.

    Each trial gets its own context (topology seed ``seed + t``); all
    trials share the scheduler's store, so repeated invocations are
    incremental.  With ``trials == 1`` the single trial's results are
    returned untouched; otherwise rows become mean ± stderr aggregates.
    ``attack`` sets the run-wide attacker strategy (requests that pin
    their own threat model are unaffected).  ``failure_log`` collects
    supervision incidents across every trial (one log per run, not per
    context), so the caller can inspect or report them afterwards.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = []
    for trial in range(trials):
        with make_context(
            scale=scale, seed=seed + trial, ixp=ixp, processes=processes,
            attack=attack,
            failure_log=failure_log,
        ) as ectx:
            per_trial.append(
                run_experiments(ectx, list(experiment_ids), store=store)
            )
    return aggregate_trials(per_trial)


def run_all(
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    processes: int = 1,
    include_ixp: bool = True,
    experiment_ids: list[str] | None = None,
    trials: int = 1,
    store: ResultStore | None = None,
    attack: str = "hijack",
    failure_log: FailureLog | None = None,
) -> list[ExperimentResult]:
    """Run every registered experiment (plus the Appendix J reruns)."""
    specs = all_experiments()
    ids = experiment_ids or list(specs)
    results = run_trials(
        ids, scale=scale, seed=seed, processes=processes, trials=trials,
        store=store, attack=attack, failure_log=failure_log,
    )
    if include_ixp:
        ixp_ids = [
            eid for eid in IXP_FAMILY if eid in ids and specs[eid].supports_ixp
        ]
        if ixp_ids:
            results += run_trials(
                ixp_ids, scale=scale, seed=seed, processes=processes,
                trials=trials, store=store, ixp=True, attack=attack,
                failure_log=failure_log,
            )
    return results


def write_markdown(
    path: str,
    scale: str = "small",
    seed: int = DEFAULT_SEED,
    processes: int = 1,
    include_ixp: bool = True,
    trials: int = 1,
    store: ResultStore | None = None,
    attack: str = "hijack",
    failure_log: FailureLog | None = None,
) -> list[ExperimentResult]:
    """Run everything and write EXPERIMENTS.md to ``path``."""
    started = time.time()
    results = run_all(
        scale=scale, seed=seed, processes=processes, include_ixp=include_ixp,
        trials=trials, store=store, attack=attack, failure_log=failure_log,
    )
    elapsed = time.time() - started
    blocks = [
        HEADER.format(
            scale=scale,
            seed=seed,
            n=get_scale(scale).n,
            elapsed=elapsed,
            trials=trials,
            trial_flag=f" --trials {trials}" if trials > 1 else "",
        )
    ]
    for result in results:
        blocks.append(f"## {result.label} — {result.title}\n")
        blocks.append(f"*Paper reference:* {result.paper_reference}")
        blocks.append(f"*Paper expectation:* {result.paper_expectation}\n")
        blocks.append("```text\n" + result.text.rstrip() + "\n```\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(blocks))
    return results
