"""Appendix K: sensitivity to the local-preference model (LP2).

Reruns the partition analysis under the ``LP2`` policy variant, where
peer routes of length ≤ 2 are preferred over longer customer routes
(as some content-heavy networks do).  The paper's Figures 24-25 find
smaller maximum gains and — strikingly — that Tier-1 destinations become
mostly *immune* rather than mostly doomed, because short peer routes to
the legitimate destination beat long bogus customer routes.
"""

from __future__ import annotations

from ..core.rank import LP2, LocalPreference, RankModel, SecurityModel
from ..topology.tiers import FIGURE_TIER_ORDER
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext, cached
from .scenarios import EvalResults
from .sweeps import partition_sweep

LP2_MODELS = tuple(
    RankModel(model, LP2)
    for model in (SecurityModel.FIRST, SecurityModel.SECOND, SecurityModel.THIRD)
)


def run_lp2(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    rng = ectx.rng("lp2")
    asns = ectx.graph.asns
    pairs = sampling.sample_pairs(rng, asns, asns, ectx.scale.pair_samples)
    sweep = partition_sweep(ectx, pairs, LP2_MODELS)

    rows = []
    bar_rows = []
    for model in LP2_MODELS:
        fractions = sweep.fractions[model.label]
        rows.append(
            {
                "model": model.label,
                "doomed": fractions.doomed,
                "protectable": fractions.protectable,
                "immune": fractions.immune,
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

    # Figure 25: destination-tier partitions under LP2, security 2nd/3rd.
    pair_map = sampling.pairs_by_destination_tier(
        ectx.rng("lp2-tiers"),
        ectx.tiers,
        asns,
        ectx.scale.tier_destinations,
        ectx.scale.tier_attackers,
    )
    tier_models = LP2_MODELS[1:]  # security 2nd and 3rd
    tier_rows = []
    for model in tier_models:
        bar_rows_tier = []
        for tier in FIGURE_TIER_ORDER:
            if tier not in pair_map:
                continue
            tier_sweep = cached(
                ectx,
                f"lp2_tier_sweep:{tier.value}",
                lambda pairs=pair_map[tier]: partition_sweep(ectx, pairs, tier_models),
            )
            fractions = tier_sweep.fractions[model.label]
            tier_rows.append(
                {
                    "model": model.label,
                    "tier": tier.value,
                    "doomed": fractions.doomed,
                    "protectable": fractions.protectable,
                    "immune": fractions.immune,
                }
            )
            bar_rows_tier.append(
                (
                    f"{tier.value}",
                    fractions.immune,
                    fractions.protectable,
                    fractions.doomed,
                    tier_sweep.baseline_happy_lower,
                )
            )
        text += f"\n\nby destination tier — {model.label}:\n"
        text += report.partition_bars(bar_rows_tier)
    rows.extend(tier_rows)

    return rows, text


register(
    ExperimentSpec(
        experiment_id="lp2",
        title="Partitions under the LP2 local-preference variant",
        paper_reference="Appendix K, Figures 24-25",
        paper_expectation=(
            "smaller max gains than classic LP; Tier-1/2/CP destinations "
            "become mostly immune (short peer routes beat bogus customer "
            "routes)"
        ),
        run=run_lp2,
    )
)


def run_lpk_sweep(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    """Appendix K.1: the LPk family for several k, including k → ∞.

    ``k = ∞`` (any window at least the graph diameter) is the variant
    the appendix singles out: customer and peer routes equally preferred,
    shorter first, providers last.  Larger windows hand more decisions to
    path length, which monotonically shrinks the attacker-facing LP
    advantages — the doomed fraction should fall and the protectable
    fraction concentrate as k grows.
    """
    rng = ectx.rng("lpk")
    asns = ectx.graph.asns
    pairs = sampling.sample_pairs(rng, asns, asns, ectx.scale.pair_samples)
    infinity = len(ectx.graph)  # exceeds any path length
    rows = []
    lines = []
    for k in (1, 2, 3, infinity):
        label_k = "inf" if k == infinity else str(k)
        models = tuple(
            RankModel(placement, LocalPreference(peer_window=k))
            for placement in (
                SecurityModel.FIRST,
                SecurityModel.SECOND,
                SecurityModel.THIRD,
            )
        )
        sweep = partition_sweep(ectx, pairs, models)
        for model in models:
            fractions = sweep.fractions[model.label]
            rows.append(
                {
                    "k": label_k,
                    "model": model.label,
                    "doomed": fractions.doomed,
                    "protectable": fractions.protectable,
                    "immune": fractions.immune,
                    "baseline_happy_lower": sweep.baseline_happy_lower,
                    "max_gain_over_baseline": fractions.upper_bound
                    - sweep.baseline_happy_lower,
                }
            )
            lines.append(
                f"  LP{label_k:>3s} {model.label:22s} "
                f"I={fractions.immune:6.1%} P={fractions.protectable:6.1%} "
                f"D={fractions.doomed:6.1%}  max gain "
                f"{fractions.upper_bound - sweep.baseline_happy_lower:+6.1%}"
            )
        lines.append("")
    return rows, "\n".join(lines).rstrip()


register(
    ExperimentSpec(
        experiment_id="lpk_sweep",
        title="Partitions across the LPk local-preference family",
        paper_reference="Appendix K.1",
        paper_expectation=(
            "growing k shifts decisions from LP to path length: doomed "
            "fractions fall for sec 2nd/3rd relative to classic LP; the "
            "k→∞ variant equalizes customer/peer routes"
        ),
        run=run_lpk_sweep,
    )
)
