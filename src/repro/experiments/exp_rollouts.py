"""Rollout experiments: Figures 7(a), 7(b), 8 and 11 (Section 5.2).

Each rollout secures an increasing set of ISPs plus their stubs and
plots the change in the security metric — upper and lower bounds — per
security model.  The "error bars" of the paper's Figure 7 are the same
rollouts with the stubs running *simplex* S*BGP instead of the full
protocol (§5.3.2); we report those as separate series.

Every figure *declares* its scenarios: Figures 7(a) and 11 share the
same ``M' × V`` pair set and hence the same ``H(∅)`` baseline request,
which the scheduler therefore evaluates exactly once per run; the
``fig7a_dense`` extension refines the same rollout to one ISP (+stubs)
per step — the deployment-ordering workload of follow-up studies — and
its chain contains the coarse fig7a steps verbatim, so those scenarios
dedupe too.  Each rollout's steps form a nested-deployment chain that
the scheduler evaluates rollout-major (one warm engine walk per
destination) instead of step by step.
"""

from __future__ import annotations

from ..core.deployment import (
    Deployment,
    RolloutStep,
    tier12_rollout,
    tier12_rollout_dense,
    tier2_rollout,
)
from ..core.metrics import Interval
from ..core.rank import BASELINE, SECURITY_MODELS
from ..topology.tiers import Tier
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext, cached
from .scenarios import EvalRequest, EvalResults, request_for

#: One rollout step's scenarios: the step plus per-model requests.
StepPlan = tuple[RolloutStep, dict[str, EvalRequest]]


def _rollout_pairs(ectx: ExperimentContext) -> list[tuple[int, int]]:
    """M' × V pairs shared by the rollout curves."""

    def build() -> list[tuple[int, int]]:
        rng = ectx.rng("rollout-pairs")
        attackers = sampling.nonstub_attackers(ectx.tiers)
        return sampling.sample_pairs(
            rng, attackers, ectx.graph.asns, ectx.scale.rollout_pairs
        )

    return cached(ectx, "rollout_pairs", build)


def _step_plans(
    ectx: ExperimentContext,
    steps: list[RolloutStep],
    pairs: list[tuple[int, int]],
) -> list[StepPlan]:
    return [
        (
            step,
            {
                model.label: request_for(ectx, pairs, step.deployment, model)
                for model in SECURITY_MODELS
            },
        )
        for step in steps
    ]


def _delta_rows(
    ectx: ExperimentContext,
    results: EvalResults,
    step_plans: list[StepPlan],
    baseline: EvalRequest,
) -> list[dict]:
    rows = []
    for step, by_model in step_plans:
        for model in SECURITY_MODELS:
            delta = results.delta(by_model[model.label], baseline)
            rows.append(
                {
                    "step": step.label,
                    "non_stub_count": step.non_stub_count,
                    "secured_fraction": step.deployment.size / len(ectx.graph),
                    "model": model.label,
                    "delta_lower": delta.lower,
                    "delta_upper": delta.upper,
                }
            )
    return rows


def _render_series(rows: list[dict], note: str) -> str:
    series = [
        (
            f"{row['step']:>12s} {row['model']:14s}",
            Interval(row["delta_lower"], row["delta_upper"]),
        )
        for row in rows
    ]
    return report.interval_series(series) + "\n\n" + note


# ----------------------------------------------------------------------
# Figure 7(a): Tier 1+2 rollout over all destinations (+ simplex bars)
# ----------------------------------------------------------------------

def _plan_fig7a(ectx: ExperimentContext):
    pairs = _rollout_pairs(ectx)
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    # One walk of each ISP's customers for both rollouts.
    stubs_by_isp: dict = {}
    steps = _step_plans(
        ectx,
        tier12_rollout(ectx.graph, ectx.tiers, stubs_by_isp=stubs_by_isp),
        pairs,
    )
    simplex = _step_plans(
        ectx,
        tier12_rollout(
            ectx.graph, ectx.tiers, simplex_stubs=True,
            stubs_by_isp=stubs_by_isp,
        ),
        pairs,
    )
    return {"baseline": baseline, "steps": steps, "simplex": simplex}


def run_fig7a(
    ectx: ExperimentContext, plan: dict, results: EvalResults
) -> tuple[list[dict], str]:
    rows = _delta_rows(ectx, results, plan["steps"], plan["baseline"])
    # the simplex "error bars": same rollout with simplex stubs.
    simplex_rows = _delta_rows(ectx, results, plan["simplex"], plan["baseline"])
    for row, simplex in zip(rows, simplex_rows):
        row["simplex_delta_lower"] = simplex["delta_lower"]
        row["simplex_delta_upper"] = simplex["delta_upper"]
        row["simplex_shift"] = simplex["delta_lower"] - row["delta_lower"]
    note = (
        "simplex-stub variant shifts (per step/model), expected ~0 (§5.3.2):\n"
        + "\n".join(
            f"  {row['step']:>12s} {row['model']:14s} {row['simplex_shift']:+7.2%}"
            for row in rows
        )
    )
    return rows, _render_series(rows, note)


# ----------------------------------------------------------------------
# Figure 7(b): the same rollout, metric restricted to secure destinations
# ----------------------------------------------------------------------

def _secure_destination_pairs(
    ectx: ExperimentContext, step: RolloutStep, salt: str
) -> list[tuple[int, int]]:
    """M' × (sample of secure destinations d ∈ S) for fig 7(b)-style curves."""
    rng = ectx.rng(f"perdest-{salt}-{step.label}")
    attackers = sampling.nonstub_attackers(ectx.tiers)
    dests = sampling.sample_members(
        rng, sorted(step.deployment.full | step.deployment.simplex),
        ectx.scale.perdest_destinations,
    )
    return sampling.sample_pairs(rng, attackers, dests, ectx.scale.rollout_pairs)


def _plan_fig7b(ectx: ExperimentContext):
    plan = []
    for step in tier12_rollout(ectx.graph, ectx.tiers):
        pairs = _secure_destination_pairs(ectx, step, "fig7b")
        baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
        by_model = {
            model.label: request_for(ectx, pairs, step.deployment, model)
            for model in SECURITY_MODELS
        }
        plan.append((step, baseline, by_model))
    return plan


def run_fig7b(
    ectx: ExperimentContext, plan: list, results: EvalResults
) -> tuple[list[dict], str]:
    rows = []
    for step, baseline, by_model in plan:
        for model in SECURITY_MODELS:
            delta = results.delta(by_model[model.label], baseline)
            rows.append(
                {
                    "step": step.label,
                    "non_stub_count": step.non_stub_count,
                    "model": model.label,
                    "delta_lower": delta.lower,
                    "delta_upper": delta.upper,
                }
            )
    note = "metric restricted to secure destinations d ∈ S (averaged)"
    return rows, _render_series(rows, note)


# ----------------------------------------------------------------------
# Figure 7(a) dense: the same rollout at one-ISP granularity
# ----------------------------------------------------------------------

def _plan_fig7a_dense(ectx: ExperimentContext):
    pairs = _rollout_pairs(ectx)
    # identical to fig7a's baseline request: deduped by the scheduler.
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    steps = _step_plans(
        ectx, tier12_rollout_dense(ectx.graph, ectx.tiers), pairs
    )
    return {"baseline": baseline, "steps": steps}


def run_fig7a_dense(
    ectx: ExperimentContext, plan: dict, results: EvalResults
) -> tuple[list[dict], str]:
    rows = _delta_rows(ectx, results, plan["steps"], plan["baseline"])
    # The marginal value of each additional ISP: the per-step increment
    # of the lower bound — the quantity deployment-ordering studies
    # (Barrett et al. 2024) optimize over.
    by_model: dict[str, float] = {}
    for row in rows:
        prev = by_model.get(row["model"], 0.0)
        row["marginal_lower"] = row["delta_lower"] - prev
        by_model[row["model"]] = row["delta_lower"]
    note = (
        "fig7a refined to one ISP (+stubs) per step — the deployment-"
        "ordering workload (cf. Barrett et al. 2024); coarse fig7a steps "
        "appear verbatim and dedupe with that experiment.  Scenarios per "
        f"model: {len(plan['steps'])} (evaluated rollout-major as one "
        "warm chain per destination)."
    )
    return rows, _render_series(rows, note)


# ----------------------------------------------------------------------
# Figure 8: Tier 1+2+CP rollout over CP destinations
# ----------------------------------------------------------------------

def _plan_fig8(ectx: ExperimentContext):
    cps = ectx.tiers.members(Tier.CP)
    if not cps:
        return None
    rng = ectx.rng("fig8")
    attackers = sampling.nonstub_attackers(ectx.tiers)
    pairs = sampling.sample_pairs(
        rng, attackers, cps, ectx.scale.rollout_pairs
    )
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    steps = _step_plans(
        ectx,
        tier12_rollout(ectx.graph, ectx.tiers, include_cps=True),
        pairs,
    )
    return {"cps": cps, "baseline": baseline, "steps": steps}


def run_fig8(
    ectx: ExperimentContext, plan: dict | None, results: EvalResults
) -> tuple[list[dict], str]:
    if plan is None:
        return [], "(no content providers in this topology)"
    rows = _delta_rows(ectx, results, plan["steps"], plan["baseline"])
    note = (
        f"metric over the {len(plan['cps'])} CP destinations only; CPs secure "
        "at every step (paper: ≥26% / 9.4% / 4% for sec 1st/2nd/3rd)"
    )
    return rows, _render_series(rows, note)


# ----------------------------------------------------------------------
# Figure 11: Tier 2-only rollout
# ----------------------------------------------------------------------

def _plan_fig11(ectx: ExperimentContext):
    pairs = _rollout_pairs(ectx)
    # identical to fig7a's baseline request: deduped by the scheduler.
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    steps = _step_plans(ectx, tier2_rollout(ectx.graph, ectx.tiers), pairs)
    return {"baseline": baseline, "steps": steps}


def run_fig11(
    ectx: ExperimentContext, plan: dict, results: EvalResults
) -> tuple[list[dict], str]:
    rows = _delta_rows(ectx, results, plan["steps"], plan["baseline"])
    note = "Tier 2-only rollout (no Tier 1 participates)"
    return rows, _render_series(rows, note)


register(
    ExperimentSpec(
        experiment_id="fig7a",
        title="Tier 1+2 rollout: ΔH_{M',V}(S) with simplex error bars",
        paper_reference="Figure 7(a) (Figure 20a for IXP)",
        paper_expectation=(
            "sec 1st largest (paper ~24% at 50% deployment); sec 2nd and "
            "3rd meagre and similar; wide tiebreak gap; simplex ≈ no change"
        ),
        run=run_fig7a,
        plan=_plan_fig7a,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig7b",
        title="Tier 1+2 rollout: ΔH_{M',d}(S) averaged over d ∈ S",
        paper_reference="Figure 7(b)",
        paper_expectation=(
            "sec 2nd pulls ahead of sec 3rd (paper: +13-20% by the last "
            "step) but stays far below sec 1st"
        ),
        run=run_fig7b,
        plan=_plan_fig7b,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig7a_dense",
        title="Tier 1+2 rollout at one-ISP granularity: ΔH_{M',V}(S)",
        paper_reference="Figure 7(a) (extension)",
        paper_expectation=(
            "monotone-ish growth per model with the fig7a ordering "
            "(sec 1st ≫ 2nd ≈ 3rd); early Tier 2s contribute the "
            "largest marginal gains"
        ),
        run=run_fig7a_dense,
        plan=_plan_fig7a_dense,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig8",
        title="Tier 1+2+CP rollout: ΔH_{M',CP}(S)",
        paper_reference="Figure 8 (Figure 20b for IXP)",
        paper_expectation="same ordering as fig7a; CP baselines are high",
        run=run_fig8,
        plan=_plan_fig8,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig11",
        title="Tier 2 rollout: ΔH_{M',V}(S)",
        paper_reference="Figure 11 (Figure 20c for IXP)",
        paper_expectation=(
            "grows more slowly than the Tier 1+2 rollout; smaller sec-1st "
            "gains, narrowing the 1st-vs-2nd gap"
        ),
        run=run_fig11,
        plan=_plan_fig11,
    )
)
