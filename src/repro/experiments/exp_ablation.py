"""Ablation: how much fate rests on the intradomain tiebreak (§5.2.1).

The paper observes that even with 50 % of ASes secure and security 1st,
the metric's upper and lower bounds stay more than 10 % apart: a large
population sits on the "knife's edge" between an insecure legitimate
route and an insecure bogus route of identical rank, and only their
(unknowable) intradomain tiebreaks decide.  This experiment measures
that interval width — and the knife's-edge source fraction — at every
step of the Tier 1+2 rollout, for each model: a pair's knife-edge
sources are exactly its ``happy_upper − happy_lower``, so it declares
fig7a's request shape over its own pairs and reads the two counts.
"""

from __future__ import annotations

from ..core.deployment import Deployment, tier12_rollout
from ..core.rank import BASELINE, SECURITY_MODELS
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults, request_for


def _plan(ectx: ExperimentContext):
    """Per step: its label, deployment, non-stub count and
    ``(model, request)`` list."""
    rng = ectx.rng("ablation-tiebreak")
    attackers = sampling.nonstub_attackers(ectx.tiers)
    pairs = sampling.sample_pairs(
        rng, attackers, ectx.graph.asns, ectx.scale.rollout_pairs
    )
    steps = [("S=∅", Deployment.empty(), 0)] + [
        (step.label, step.deployment, step.non_stub_count)
        for step in tier12_rollout(ectx.graph, ectx.tiers)
    ]
    plan = []
    for label, deployment, non_stubs in steps:
        models = (BASELINE,) if deployment.size == 0 else SECURITY_MODELS
        requests = [
            (model, request_for(ectx, pairs, deployment, model))
            for model in models
        ]
        plan.append((label, deployment, non_stubs, requests))
    return plan


def run_tiebreak_ablation(
    ectx: ExperimentContext, plan: list, results: EvalResults
) -> tuple[list[dict], str]:
    rows = []
    for label, deployment, non_stubs, requests in plan:
        for model, request in requests:
            per_pair = results.for_request(request).per_pair
            knife = sum(r.happy_upper - r.happy_lower for r in per_pair)
            total = sum(r.num_sources for r in per_pair)
            rows.append(
                {
                    "step": label,
                    "non_stub_count": non_stubs,
                    "model": model.label,
                    "secured_fraction": deployment.size / len(ectx.graph),
                    "knife_edge_fraction": knife / total if total else 0.0,
                }
            )
    table = report.format_table(
        ["step", "model", "secured", "knife-edge sources (interval width)"],
        [
            [
                row["step"],
                row["model"],
                row["secured_fraction"],
                row["knife_edge_fraction"],
            ]
            for row in rows
        ],
    )
    table += (
        "\n\nknife-edge = sources whose equally-best routes reach both the"
        "\nattacker and the destination; exactly the upper-lower metric gap."
    )
    return rows, table


register(
    ExperimentSpec(
        experiment_id="ablation_tiebreak",
        title="Ablation: tiebreak interval width along the Tier 1+2 rollout",
        paper_reference="Section 5.2.1 ('Tiebreaking can seal an AS's fate')",
        paper_expectation=(
            "the gap persists at every rollout step (paper: >10% even at "
            "50% deployment under security 1st) — it is inherent to "
            "partial deployment, not an artifact of any S"
        ),
        run=run_tiebreak_ablation,
        plan=_plan,
    )
)
