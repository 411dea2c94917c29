"""The partition figures: Figure 3, 4, 5, 6 and §4.7's source-tier figure.

All of them average doomed / protectable / immune fractions over pair
sets (Section 4.4-4.7); they differ only in how pairs are bucketed:

* Figure 3 — all pairs, one bar per security model;
* Figure 4/5 — pairs bucketed by *destination* tier (security 3rd/2nd);
* Figure 6 — pairs bucketed by *attacker* tier (security 3rd);
* §4.7 — sources bucketed by their own tier (the figure the paper
  describes but omits).
"""

from __future__ import annotations

from ..core.rank import SECURITY_MODELS, SECURITY_SECOND, SECURITY_THIRD
from ..topology.tiers import FIGURE_TIER_ORDER, Tier
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext, cached
from .scenarios import EvalResults
from .sweeps import PartitionSweep, partition_sweep


def _all_pairs_sweep(ectx: ExperimentContext) -> PartitionSweep:
    def build() -> PartitionSweep:
        rng = ectx.rng("fig3")
        asns = ectx.graph.asns
        pairs = sampling.sample_pairs(rng, asns, asns, ectx.scale.pair_samples)
        return partition_sweep(ectx, pairs, SECURITY_MODELS)

    return cached(ectx, "partition_sweep_all", build)


def _dest_tier_sweeps(ectx: ExperimentContext) -> dict[Tier, PartitionSweep]:
    def build() -> dict[Tier, PartitionSweep]:
        rng = ectx.rng("fig45")
        pair_map = sampling.pairs_by_destination_tier(
            rng,
            ectx.tiers,
            ectx.graph.asns,
            ectx.scale.tier_destinations,
            ectx.scale.tier_attackers,
        )
        return {
            tier: partition_sweep(ectx, pairs, (SECURITY_SECOND, SECURITY_THIRD))
            for tier, pairs in pair_map.items()
        }

    return cached(ectx, "partition_sweep_dest_tier", build)


def _attacker_tier_sweeps(ectx: ExperimentContext) -> dict[Tier, PartitionSweep]:
    def build() -> dict[Tier, PartitionSweep]:
        rng = ectx.rng("fig6")
        pair_map = sampling.pairs_by_attacker_tier(
            rng,
            ectx.tiers,
            ectx.graph.asns,
            ectx.scale.tier_attackers,
            ectx.scale.tier_destinations,
        )
        return {
            tier: partition_sweep(ectx, pairs, (SECURITY_THIRD,))
            for tier, pairs in pair_map.items()
        }

    return cached(ectx, "partition_sweep_attacker_tier", build)


def run_fig3(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    sweep = _all_pairs_sweep(ectx)
    rows = []
    bar_rows = []
    for model in SECURITY_MODELS:
        fractions = sweep.fractions[model.label]
        rows.append(
            {
                "model": model.label,
                "doomed": fractions.doomed,
                "protectable": fractions.protectable,
                "immune": fractions.immune,
                "metric_upper_bound_any_S": fractions.upper_bound,
                "baseline_happy_lower": sweep.baseline_happy_lower,
                "max_gain_over_baseline": fractions.upper_bound
                - sweep.baseline_happy_lower,
            }
        )
        bar_rows.append(
            (
                model.label,
                fractions.immune,
                fractions.protectable,
                fractions.doomed,
                sweep.baseline_happy_lower,
            )
        )
    text = report.partition_bars(bar_rows)
    text += (
        f"\n\nbaseline H(∅) lower bound = {sweep.baseline_happy_lower:.1%}"
        f" over {sweep.num_pairs} pairs"
        "\nmax gain over baseline ∀S = (1 - doomed) - baseline:"
    )
    for row in rows:
        text += f"\n  {row['model']:14s} {row['max_gain_over_baseline']:+6.1%}"
    return rows, text


def _tier_figure(
    sweeps: dict[Tier, PartitionSweep], model_label: str
) -> tuple[list[dict], str]:
    rows = []
    bar_rows = []
    for tier in FIGURE_TIER_ORDER:
        sweep = sweeps.get(tier)
        if sweep is None or model_label not in sweep.fractions:
            continue
        fractions = sweep.fractions[model_label]
        rows.append(
            {
                "tier": tier.value,
                "doomed": fractions.doomed,
                "protectable": fractions.protectable,
                "immune": fractions.immune,
                "baseline_happy_lower": sweep.baseline_happy_lower,
            }
        )
        bar_rows.append(
            (
                tier.value,
                fractions.immune,
                fractions.protectable,
                fractions.doomed,
                sweep.baseline_happy_lower,
            )
        )
    return rows, report.partition_bars(bar_rows)


def run_fig4(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    return _tier_figure(_dest_tier_sweeps(ectx), SECURITY_THIRD.label)


def run_fig5(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    return _tier_figure(_dest_tier_sweeps(ectx), SECURITY_SECOND.label)


def run_fig6(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    return _tier_figure(_attacker_tier_sweeps(ectx), SECURITY_THIRD.label)


def run_source_tier(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    sweep = _all_pairs_sweep(ectx)
    rows = []
    bar_rows = []
    for tier in FIGURE_TIER_ORDER:
        key = (SECURITY_THIRD.label, tier)
        if key not in sweep.by_source_tier:
            continue
        fractions = sweep.by_source_tier[key]
        rows.append(
            {
                "source_tier": tier.value,
                "doomed": fractions.doomed,
                "protectable": fractions.protectable,
                "immune": fractions.immune,
            }
        )
        bar_rows.append(
            (tier.value, fractions.immune, fractions.protectable, fractions.doomed, None)
        )
    # the paper quotes ~25/60/15 as roughly uniform across source tiers,
    # including the Tier 1s ("Tier 1s can still be protected as sources").
    return rows, report.partition_bars(bar_rows)


register(
    ExperimentSpec(
        experiment_id="fig3",
        title="Partitions into doomed/protectable/immune, per model",
        paper_reference="Figure 3 (Figure 19a for IXP)",
        paper_expectation=(
            "sec 1st ~all protectable; immune grows and max gain shrinks "
            "as security priority drops (paper: <=15% gain for sec 3rd, "
            "~29% for sec 2nd); sec-3rd immune tracks the baseline"
        ),
        run=run_fig3,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig4",
        title="Partitions by destination tier (security 3rd)",
        paper_reference="Figure 4 (Figure 19b for IXP)",
        paper_expectation=(
            "Tier-1 destinations are overwhelmingly doomed; other tiers have "
            "modest protectable slices (~8-15%)"
        ),
        run=run_fig4,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig5",
        title="Partitions by destination tier (security 2nd)",
        paper_reference="Figure 5 (Figure 19c for IXP)",
        paper_expectation="same Tier-1 pathology as security 3rd",
        run=run_fig5,
    )
)
register(
    ExperimentSpec(
        experiment_id="fig6",
        title="Partitions by attacker tier (security 3rd)",
        paper_reference="Figure 6 (Figure 19d for IXP)",
        paper_expectation=(
            "attacks grow stronger from stub to Tier-2 attackers; Tier-1 "
            "attackers are strikingly weak (their bogus routes look like "
            "provider routes)"
        ),
        run=run_fig6,
    )
)
register(
    ExperimentSpec(
        experiment_id="source_tier",
        title="Partitions by source tier (security 3rd)",
        paper_reference="Section 4.7 (figure omitted in the paper)",
        paper_expectation=(
            "roughly uniform ~25% doomed / 60% immune / 15% protectable "
            "across source tiers, including Tier 1 sources"
        ),
        run=run_source_tier,
    )
)
