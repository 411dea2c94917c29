"""Shared sweep engines used by several experiments.

The partition figures (3, 4, 5, 6, the §4.7 source-tier figure, and the
Appendix K LP2 reruns) all reduce to the same computation: for a set of
attacker/destination pairs, classify every source as doomed /
protectable / immune under one or more security models and average.
This module runs that sweep once per pair set and lets each figure read
its own slice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.partitions import Category, compute_partitions
from ..core.perceivable import attack_closures
from ..core.rank import RankModel, SecurityModel
from ..core.outcome import compute_routing_outcome
from ..topology.tiers import Tier
from .runner import ExperimentContext


@dataclass(frozen=True)
class PartitionFractions:
    """Averaged partition fractions over a pair set."""

    doomed: float
    protectable: float
    immune: float

    @property
    def upper_bound(self) -> float:
        """Max achievable metric for any S: everything not doomed."""
        return 1.0 - self.doomed

    @property
    def lower_bound(self) -> float:
        """Min possible metric for any S: the immune fraction."""
        return self.immune


@dataclass
class PartitionSweep:
    """Result of :func:`partition_sweep` over one pair set."""

    num_pairs: int
    #: average happy-source fraction with S = ∅ (lower bound), the
    #: heavy horizontal line in the paper's partition figures.
    baseline_happy_lower: float
    baseline_happy_upper: float
    #: model label -> averaged fractions.
    fractions: dict[str, PartitionFractions]
    #: (model label, source tier) -> averaged fractions (§4.7 figure).
    by_source_tier: dict[tuple[str, Tier], PartitionFractions]


def _pair_partition_worker(ectx: ExperimentContext, pair: tuple[int, int], state: dict):
    ctx = ectx.graph_ctx
    models: tuple[RankModel, ...] = state["models"]
    tier_of = ectx.tiers.tier_of
    attacker, destination = pair
    baseline_model = RankModel(SecurityModel.BASELINE, models[0].local_preference)
    baseline = compute_routing_outcome(
        ctx, destination, attacker=attacker, model=baseline_model
    )
    # Closures are only needed by the security-1st classifier.
    closures = None
    if any(model.model is SecurityModel.FIRST for model in models):
        closures = attack_closures(ctx, attacker, destination)
    happy_lower, happy_upper = baseline.count_happy()

    counts: dict[str, list[int]] = {}
    tier_counts: dict[tuple[str, Tier], list[int]] = {}
    for model in models:
        result = compute_partitions(
            ctx,
            attacker,
            destination,
            model,
            baseline_outcome=baseline,
            closures=closures,
        )
        bucket = counts.setdefault(model.label, [0, 0, 0, 0])
        for asn, category in result.category_of.items():
            index = _CATEGORY_INDEX[category]
            bucket[index] += 1
            tier_bucket = tier_counts.setdefault(
                (model.label, tier_of[asn]), [0, 0, 0, 0]
            )
            tier_bucket[index] += 1
    return happy_lower, happy_upper, baseline.num_sources, counts, tier_counts


_CATEGORY_INDEX = {
    Category.DOOMED: 0,
    Category.PROTECTABLE: 1,
    Category.IMMUNE: 2,
    Category.DISCONNECTED: 3,
}


def partition_sweep(
    ectx: ExperimentContext,
    pairs: list[tuple[int, int]],
    models: tuple[RankModel, ...],
) -> PartitionSweep:
    """Run the partition classification over ``pairs`` for ``models``."""
    results = ectx.map_tasks(
        _pair_partition_worker, pairs, state={"models": models}
    )
    totals: dict[str, list[int]] = {m.label: [0, 0, 0, 0] for m in models}
    tier_totals: dict[tuple[str, Tier], list[int]] = {}
    happy_lower_sum = 0.0
    happy_upper_sum = 0.0
    for happy_lower, happy_upper, num_sources, counts, tier_counts in results:
        if num_sources:
            happy_lower_sum += happy_lower / num_sources
            happy_upper_sum += happy_upper / num_sources
        for label, bucket in counts.items():
            for i in range(4):
                totals[label][i] += bucket[i]
        for key, bucket in tier_counts.items():
            acc = tier_totals.setdefault(key, [0, 0, 0, 0])
            for i in range(4):
                acc[i] += bucket[i]

    def to_fractions(bucket: list[int]) -> PartitionFractions:
        total = sum(bucket)
        if total == 0:
            return PartitionFractions(0.0, 0.0, 0.0)
        return PartitionFractions(
            doomed=bucket[0] / total,
            protectable=bucket[1] / total,
            immune=bucket[2] / total,
        )

    num_pairs = max(1, len(results))
    return PartitionSweep(
        num_pairs=len(results),
        baseline_happy_lower=happy_lower_sum / num_pairs,
        baseline_happy_upper=happy_upper_sum / num_pairs,
        fractions={label: to_fractions(bucket) for label, bucket in totals.items()},
        by_source_tier={
            key: to_fractions(bucket) for key, bucket in tier_totals.items()
        },
    )
