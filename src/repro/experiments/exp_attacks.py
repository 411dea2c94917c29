"""Attack-model robustness: Figure 7(a)-style rollouts per strategy.

The paper's conclusions — security-1st gains the most, security-2nd/3rd
gain little, the Tier 1+2 rollout is the right order — are all derived
under one threat model: the Section 3.1 one-hop hijack.  Follow-up work
shows the conclusions are not automatically robust to that choice
("Ain't How You Deploy", arXiv:2408.15970; ROV-era stealth hijacks,
arXiv:2606.23071).  This experiment reruns the Figure 7(a) rollout under
every shipped :mod:`repro.core.attacks` strategy and reports, per
strategy, the same ``ΔH_{M',V}(S)`` curves plus a final-step model
ranking — making it visible exactly where the paper's ordering survives
and where it flips:

* ``hijack`` — the paper's curves (identical requests to fig7a, so the
  scheduler evaluates them once for both experiments);
* ``honest`` — traffic attraction without lying: a signed honest
  announcement is attractive even to secured ASes, so security-aware
  rankings buy far less;
* ``khop3`` — a padded 3-hop lie: weaker attraction, so even the
  baseline loses fewer sources and the deployment deltas compress;
* ``forged_origin`` — the lie mimics the victim's security posture, so
  the security models' advantage over the baseline collapses wherever
  the victim's protection was the only thing being validated.
"""

from __future__ import annotations

from ..core.attacks import SHIPPED_STRATEGIES
from ..core.deployment import Deployment, tier12_rollout
from ..core.metrics import Interval
from ..core.rank import BASELINE, SECURITY_MODELS
from . import report
from .exp_rollouts import _rollout_pairs
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults, request_for


def _plan_attacks(ectx: ExperimentContext):
    pairs = _rollout_pairs(ectx)
    steps = tier12_rollout(ectx.graph, ectx.tiers)
    plan = {}
    for strategy in SHIPPED_STRATEGIES:
        baseline = request_for(
            ectx, pairs, Deployment.empty(), BASELINE, attack=strategy
        )
        step_plans = [
            (
                step,
                {
                    model.label: request_for(
                        ectx, pairs, step.deployment, model, attack=strategy
                    )
                    for model in SECURITY_MODELS
                },
            )
            for step in steps
        ]
        plan[strategy.token] = {"baseline": baseline, "steps": step_plans}
    return plan


def run_attacks(
    ectx: ExperimentContext, plan: dict, results: EvalResults
) -> tuple[list[dict], str]:
    rows: list[dict] = []
    blocks: list[str] = []
    for token, strategy_plan in plan.items():
        baseline = strategy_plan["baseline"]
        h_empty = results.for_request(baseline).value
        series = []
        for step, by_model in strategy_plan["steps"]:
            for model in SECURITY_MODELS:
                delta = results.delta(by_model[model.label], baseline)
                rows.append(
                    {
                        "attack": token,
                        "step": step.label,
                        "non_stub_count": step.non_stub_count,
                        "model": model.label,
                        "delta_lower": delta.lower,
                        "delta_upper": delta.upper,
                    }
                )
                series.append(
                    (
                        f"{step.label:>12s} {model.label:14s}",
                        Interval(delta.lower, delta.upper),
                    )
                )
        # Final-step ranking of the three placements under this threat
        # model — the quantity whose stability the paper assumes.  One
        # implementation (_final_order) serves both the display and the
        # flip verdict, so the two can never disagree.
        final_step = strategy_plan["steps"][-1][0]
        order = " > ".join(_final_order(rows, token))
        blocks.append(
            f"--- attack = {token} "
            f"(H(∅) = {h_empty}; final step {final_step.label}: {order})\n"
            + report.interval_series(series)
        )
    hijack_order = _final_order(rows, "hijack")
    flips = [
        token
        for token in plan
        if token != "hijack" and _final_order(rows, token) != hijack_order
    ]
    verdict = (
        "model ranking flips vs the paper's threat model under: "
        + ", ".join(flips)
        if flips
        else "model ranking matches the paper's threat model for every strategy"
    )
    return rows, "\n\n".join(blocks) + "\n\n" + verdict


def _final_order(rows: list[dict], token: str) -> tuple[str, ...]:
    """Model labels at the last rollout step, best midpoint first."""
    per_model: dict[str, tuple[float, float]] = {}
    for row in rows:  # later steps overwrite earlier ones
        if row["attack"] == token:
            per_model[row["model"]] = (row["delta_lower"], row["delta_upper"])
    ranked = sorted(
        per_model.items(), key=lambda kv: (kv[1][0] + kv[1][1]) / 2, reverse=True
    )
    return tuple(label for label, _ in ranked)


register(
    ExperimentSpec(
        experiment_id="attacks",
        title="Tier 1+2 rollout under alternative attacker strategies",
        paper_reference="Figure 7(a) × threat models (arXiv:2408.15970, 2606.23071)",
        paper_expectation=(
            "hijack reproduces fig7a; forged_origin erases most of the "
            "security models' gains; honest attraction blunts sec-1st; "
            "khop padding compresses all deltas"
        ),
        run=run_attacks,
        plan=_plan_attacks,
    )
)
