"""Per-destination sequences: Figures 9, 10 and 12 (§5.2.3-5.2.4).

For a fixed large deployment S, the paper plots the non-decreasing
sequence of ``H_{M',d}(S) − H_{M',d}(∅)`` over every secure destination
``d ∈ S``, per security model.  We sample the secure destinations
(always *including* the Tier 1s, which the paper singles out) and report
quantile profiles of the sequence plus the Tier-1 slice, rebuilt from
the per-pair counts of one request per model over the sampled pairs.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby

from ..core.deployment import Deployment
from ..core.metrics import Interval
from ..core.rank import BASELINE, SECURITY_MODELS
from ..topology.tiers import Tier
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalRequest, EvalResults, request_for


def _plan(
    ectx: ExperimentContext, experiment_id: str, deployment_name: str
) -> dict[str, EvalRequest]:
    """The figure's requests by model label, the baseline's first, over
    the sampled destinations × attackers with ``m != d`` (none if there
    is no such pair)."""
    deployment = ectx.catalog.get(deployment_name)
    rng = ectx.rng(f"perdest-{experiment_id}")
    members = sorted(deployment.full | deployment.simplex)
    tier1 = [a for a in ectx.tiers.members(Tier.TIER1) if a in deployment]
    sample = sampling.sample_members(
        rng, members, ectx.scale.perdest_destinations
    )
    dests = sorted(set(sample) | set(tier1))
    attackers = sampling.sample_members(
        rng, sampling.nonstub_attackers(ectx.tiers),
        ectx.scale.perdest_attackers,
    )
    pairs = [(m, d) for d in dests for m in attackers if m != d]
    if not pairs:
        return {}
    empty = Deployment.empty()
    requests = {BASELINE.label: request_for(ectx, pairs, empty, BASELINE)}
    for model in SECURITY_MODELS:
        requests[model.label] = request_for(ectx, pairs, deployment, model)
    return requests


def _perdest_deltas(
    results: EvalResults, plan: dict[str, EvalRequest]
) -> dict[int, dict[str, Interval]]:
    """Per-destination ΔH intervals for each model.

    Each pair's counts are taken over its baseline sources and averaged
    over the destination's attackers.  A request's pairs run by
    destination, then attacker, both ascending: the order both samples
    are drawn in, so every sum adds the same floats in the same order.
    """
    rows = zip(*(results.for_request(r).per_pair for r in plan.values()))
    out: dict[int, dict[str, Interval]] = {}
    for destination, group in groupby(rows, key=lambda row: row[0].destination):
        num = 0
        sums = [[0.0, 0.0] for _ in plan]
        for row in group:
            num += 1
            sources = row[0].num_sources or 1
            for pair, pair_sums in zip(row, sums):
                pair_sums[0] += pair.happy_lower / sources
                pair_sums[1] += pair.happy_upper / sources
        (base_lower, base_upper), *by_model = sums
        out[destination] = {}
        for model, (lo, hi) in zip(SECURITY_MODELS, by_model):
            lo, hi = (lo - base_lower) / num, (hi - base_upper) / num
            out[destination][model.label] = Interval(min(lo, hi), max(lo, hi))
    return out


def run(
    ectx: ExperimentContext, plan: dict[str, EvalRequest], results: EvalResults
) -> tuple[list[dict], str]:
    deltas = _perdest_deltas(results, plan)
    tier1 = set(ectx.tiers.members(Tier.TIER1))
    rows = []
    lines = []
    for model in SECURITY_MODELS:
        series = [d[model.label] for d in deltas.values()]
        for label, value in report.sequence_summary(model.label, series):
            lines.append(f"  {label}  {value}")
        mean_lower = (
            sum(s.lower for s in series) / len(series) if series else 0.0
        )
        t1_series = [deltas[d][model.label] for d in deltas if d in tier1]
        t1_mean = (
            sum(s.lower for s in t1_series) / len(t1_series)
            if t1_series else None
        )
        rows.append(
            {
                "model": model.label,
                "destinations": len(series),
                "mean_delta_lower": mean_lower,
                "tier1_mean_delta_lower": t1_mean,
            }
        )
        lines.append(
            f"  {model.label} mean {mean_lower:+7.1%}"
            + (
                f"   Tier-1 destinations mean {t1_mean:+7.1%}"
                if t1_mean is not None else ""
            )
        )
        lines.append("")
    # how many destinations look the same under sec 2nd and sec 3rd —
    # the paper's "93% of low-gain destinations" observation.
    second, third = SECURITY_MODELS[1].label, SECURITY_MODELS[2].label
    similar = sum(
        1 for d in deltas.values()
        if abs(d[second].lower - d[third].lower) < 0.02
    )
    if deltas:
        lines.append(
            f"  destinations where sec 2nd ≈ sec 3rd (|Δ−Δ| < 2%): "
            f"{similar}/{len(deltas)} ({similar / len(deltas):.0%})"
        )
    return rows, "\n".join(lines)


for experiment_id, deployment_name, title, paper_reference, expectation in (
    (
        "fig9",
        "t12_full",
        "Per-destination ΔH sequence; S = Tier 1s + Tier 2s + stubs",
        "Figure 9 (Figure 22a for IXP)",
        "sec 1st near-total protection; Tier-1 destinations gain most "
        "when security is 1st and least when 2nd/3rd; many destinations "
        "see sec 2nd ≈ sec 3rd",
    ),
    (
        "fig10",
        "t2_full",
        "Per-destination ΔH sequence; S = Tier 2s + stubs",
        "Figure 10 (Figure 22b for IXP)",
        "the sec 1st vs sec 2nd gap narrows relative to Figure 9",
    ),
    (
        "fig12",
        "nonstubs",
        "Per-destination ΔH sequence; S = all non-stubs",
        "Figure 12 (Figure 22c for IXP)",
        "sec 2nd benefits nearly reach sec 1st",
    ),
):
    register(
        ExperimentSpec(
            experiment_id=experiment_id,
            title=title,
            paper_reference=paper_reference,
            paper_expectation=expectation,
            run=run,
            plan=partial(
                _plan,
                experiment_id=experiment_id,
                deployment_name=deployment_name,
            ),
        )
    )
