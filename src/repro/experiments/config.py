"""Experiment scales and seeds.

The paper evaluates every ``O(|V|²)`` attacker/destination pair of a
39k-AS graph on supercomputers; this harness estimates the same averages
from seeded samples on synthetic graphs (see docs/ARCHITECTURE.md,
"Layer 1 — the topology substrate").  A *scale* fixes the graph size
and every sample budget so results are reproducible and the cost dial
is explicit:

* ``tiny``   — seconds; used by the test suite and ``make bench-check``;
* ``small``  — tens of seconds; quick interactive runs;
* ``medium`` — minutes; the default for regenerating EXPERIMENTS.md;
* ``large``  — hours; an internet-scale (~80k-AS, CAIDA-shaped) graph
  matching the paper's population, runnable on one machine via the
  numpy routing kernel (see ARCHITECTURE.md) that every scale runs on.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default RNG seed (the paper's publication year).
DEFAULT_SEED = 2013


@dataclass(frozen=True)
class Scale:
    """Sample budgets for one experiment scale.

    Attributes:
        name: scale identifier.
        n: synthetic topology size (number of ASes).
        pair_samples: (m, d) pairs for graph-wide metric averages
            (baseline, Figure 3, Figure 16).
        tier_destinations: destinations sampled per tier for the
            Figure 4/5 (by-destination-tier) partition figures.
        tier_attackers: attackers sampled per destination in those
            figures (and attackers per tier in Figure 6).
        rollout_pairs: (m, d) pairs per rollout step (Figures 7, 8, 11).
        perdest_destinations: secure destinations in the per-destination
            sequences (Figures 9, 10, 12).
        perdest_attackers: attackers per destination in those sequences.
        cp_attackers: attackers per content provider in Figure 13.
        stratified_pairs: draw graph-wide pair samples with
            degree-stratified destinations
            (:func:`repro.experiments.sampling.sample_pairs_stratified`)
            so a few hundred samples of a ~10^9-pair population keep
            every degree class represented.
    """

    name: str
    n: int
    pair_samples: int
    tier_destinations: int
    tier_attackers: int
    rollout_pairs: int
    perdest_destinations: int
    perdest_attackers: int
    cp_attackers: int
    stratified_pairs: bool = False


SCALES: dict[str, Scale] = {
    scale.name: scale
    for scale in (
        Scale(
            name="tiny",
            n=300,
            pair_samples=20,
            tier_destinations=4,
            tier_attackers=4,
            rollout_pairs=16,
            perdest_destinations=10,
            perdest_attackers=6,
            cp_attackers=4,
        ),
        Scale(
            name="small",
            n=900,
            pair_samples=60,
            tier_destinations=10,
            tier_attackers=6,
            rollout_pairs=48,
            perdest_destinations=24,
            perdest_attackers=10,
            cp_attackers=8,
        ),
        Scale(
            name="medium",
            n=2200,
            pair_samples=120,
            tier_destinations=16,
            tier_attackers=8,
            rollout_pairs=90,
            perdest_destinations=48,
            perdest_attackers=14,
            cp_attackers=10,
        ),
        # Internet scale: the paper's ~75-80k-AS population.  Budgets
        # stay sample-based (the full cross product is ~6.4 * 10^9
        # pairs); destination sampling is degree-stratified so the
        # stub-dominated degree distribution cannot starve the sparse
        # high-degree strata at these sampling ratios.
        Scale(
            name="large",
            n=80_000,
            pair_samples=400,
            tier_destinations=24,
            tier_attackers=10,
            rollout_pairs=120,
            perdest_destinations=64,
            perdest_attackers=12,
            cp_attackers=10,
            stratified_pairs=True,
        ),
    )
}


def get_scale(name: str) -> Scale:
    """Look up a scale by name, with a helpful error."""
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None
