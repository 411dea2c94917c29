"""§5.3.1 / §5.2.4: early-adopter guidance experiments.

* ``guideline_t1`` — securing all Tier 1s (+ stubs, optionally + CPs)
  yields almost no improvement when security is 2nd/3rd (< 0.2 % in the
  paper), because sources reaching Tier 1 destinations are doomed.
* ``guideline_t2`` — securing the 13 largest Tier 2s + stubs does
  better (≈ 1 % in the paper) despite being a smaller deployment.
* ``nonstubs`` — securing every non-stub AS: the sec-2nd benefits nearly
  reach sec-1st (paper: 6.2 / 4.7 / 2.2 % worst-case improvements).
"""

from __future__ import annotations

from ..core.deployment import Deployment
from ..core.rank import BASELINE, SECURITY_MODELS
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalRequest, EvalResults, request_for

#: One named deployment scenario: (label, S, baseline request, per-model requests).
ScenarioPlan = tuple[str, Deployment, EvalRequest, dict[str, EvalRequest]]


def _scenario_plan(
    ectx: ExperimentContext, label: str, deployment: Deployment, salt: str
) -> ScenarioPlan:
    """ΔH scenarios over pairs (M' × secure destinations) for one S."""
    rng = ectx.rng(salt)
    attackers = sampling.nonstub_attackers(ectx.tiers)
    dests = sampling.sample_members(
        rng,
        sorted(deployment.full | deployment.simplex),
        ectx.scale.perdest_destinations,
    )
    pairs = sampling.sample_pairs(rng, attackers, dests, ectx.scale.rollout_pairs)
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    by_model = {
        model.label: request_for(ectx, pairs, deployment, model)
        for model in SECURITY_MODELS
    }
    return (label, deployment, baseline, by_model)


def _run_deltas(
    ectx: ExperimentContext, plans: list[ScenarioPlan], results: EvalResults
) -> tuple[list[dict], str]:
    rows = []
    series = []
    for label, deployment, baseline, by_model in plans:
        for model in SECURITY_MODELS:
            delta = results.delta(by_model[model.label], baseline)
            rows.append(
                {
                    "scenario": label,
                    "secured_fraction": deployment.size / len(ectx.graph),
                    "model": model.label,
                    "delta_lower": delta.lower,
                    "delta_upper": delta.upper,
                }
            )
            series.append((f"{label:>16s} {model.label:14s}", delta))
    return rows, report.interval_series(series)


# ----------------------------------------------------------------------
# Tier-1 and Tier-2 early adopters
# ----------------------------------------------------------------------

def _plan_t1(ectx: ExperimentContext) -> list[ScenarioPlan]:
    return [
        _scenario_plan(
            ectx, "T1+stubs", ectx.catalog.get("t1_stubs"),
            "guideline_t1-T1+stubs",
        ),
        _scenario_plan(
            ectx, "T1+stubs+CPs", ectx.catalog.get("t1_stubs_cp"),
            "guideline_t1-T1+stubs+CPs",
        ),
    ]


def _plan_t2(ectx: ExperimentContext) -> list[ScenarioPlan]:
    return [
        _scenario_plan(
            ectx, "top-13 T2+stubs", ectx.catalog.get("t2_top13_stubs"),
            "guideline_t2-top-13 T2+stubs",
        )
    ]


# ----------------------------------------------------------------------
# All non-stubs secure (§5.2.4: worst-case ΔH over all destinations)
# ----------------------------------------------------------------------

def _plan_nonstubs(ectx: ExperimentContext) -> list[ScenarioPlan]:
    """§5.2.4 quotes worst-case (lower-bound) ΔH_{M',V}: all destinations."""
    deployment = ectx.catalog.get("nonstubs")
    rng = ectx.rng("nonstubs")
    attackers = sampling.nonstub_attackers(ectx.tiers)
    pairs = sampling.sample_pairs(
        rng, attackers, ectx.graph.asns, ectx.scale.rollout_pairs
    )
    baseline = request_for(ectx, pairs, Deployment.empty(), BASELINE)
    by_model = {
        model.label: request_for(ectx, pairs, deployment, model)
        for model in SECURITY_MODELS
    }
    return [("all non-stubs", deployment, baseline, by_model)]


register(
    ExperimentSpec(
        experiment_id="guideline_t1",
        title="Early adoption at Tier 1s (ΔH over secure destinations)",
        paper_reference="Section 5.3.1",
        paper_expectation="sec 2nd/3rd improvements are nearly imperceptible (paper <0.2%)",
        run=_run_deltas,
        plan=_plan_t1,
    )
)
register(
    ExperimentSpec(
        experiment_id="guideline_t2",
        title="Early adoption at the largest Tier 2s",
        paper_reference="Section 5.3.1",
        paper_expectation="beats the Tier-1 deployment despite being smaller (paper ~1%)",
        run=_run_deltas,
        plan=_plan_t2,
    )
)
register(
    ExperimentSpec(
        experiment_id="nonstubs",
        title="Securing all non-stub ASes (ΔH over all destinations)",
        paper_reference="Section 5.2.4",
        paper_expectation=(
            "worst-case ordering 1st > 2nd > 3rd (paper: 6.2 / 4.7 / "
            "2.2%); per-destination gaps close in Figure 12"
        ),
        run=_run_deltas,
        plan=_plan_nonstubs,
    )
)
