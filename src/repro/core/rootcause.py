"""Root-cause analysis of metric changes (Section 6, Figure 16, Table 3).

Deploying S*BGP at some ASes changes other ASes' fates through three
phenomena:

* **protocol downgrades** (§3.2) — secure routes that disappear under
  attack (possible when security is 2nd or 3rd, never when 1st);
* **collateral benefits** (§6.1.2) — an *insecure* AS becomes happy
  because secure ASes upstream changed their choices (all models);
* **collateral damages** (§6.1.1) — an *insecure* AS becomes unhappy for
  the same reason (possible when security is 1st or 2nd; Theorem 6.1
  rules it out when security is 3rd).

:func:`root_cause_breakdown` reproduces the Figure 16 accounting: the
fate of the secure routes that exist under normal conditions, plus the
exact identity ``ΔH = gains − losses`` that the figure stacks up.
All happiness uses the metric's *lower bound* (adversarial tiebreaks),
matching the paper's Figure 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..topology.graph import ASGraph
from .deployment import Deployment
from .rank import RankModel, SecurityModel
from .context import RoutingContext, _as_context
from .outcome import compute_routing_outcome


#: Table 3 of the paper: which phenomena are possible in which model.
PHENOMENA_POSSIBLE: dict[SecurityModel, dict[str, bool]] = {
    SecurityModel.FIRST: {
        "protocol_downgrade": False,
        "collateral_benefit": True,
        "collateral_damage": True,
    },
    SecurityModel.SECOND: {
        "protocol_downgrade": True,
        "collateral_benefit": True,
        "collateral_damage": True,
    },
    SecurityModel.THIRD: {
        "protocol_downgrade": True,
        "collateral_benefit": True,
        "collateral_damage": False,
    },
}


@dataclass(frozen=True)
class PairRootCause:
    """Per-(m, d) source sets behind the metric change from ∅ to S."""

    attacker: int
    destination: int
    #: sources with secure routes under normal conditions.
    secure_normal: frozenset[int]
    #: secure routes lost to the attack (protocol downgrades).
    downgraded: frozenset[int]
    #: secure routes retained by sources already happy with S = ∅
    #: ("wasted" — they bought nothing).
    wasted_secure: frozenset[int]
    #: secure routes retained by sources unhappy with S = ∅ (real wins).
    protected_secure: frozenset[int]
    #: insecure sources that became happy (collateral benefits).
    collateral_benefit: frozenset[int]
    #: other newly happy sources (secure-set members without secure routes).
    other_gains: frozenset[int]
    #: happy-with-∅ sources that became unhappy, outside S (collateral
    #: damages).
    collateral_damage: frozenset[int]
    #: happy-with-∅ members of S that became unhappy.
    other_losses: frozenset[int]
    happy_baseline: int
    happy_deployed: int

    @property
    def gains(self) -> int:
        return (
            len(self.protected_secure)
            + len(self.collateral_benefit)
            + len(self.other_gains)
        )

    @property
    def losses(self) -> int:
        return len(self.collateral_damage) + len(self.other_losses)

    @property
    def metric_change(self) -> int:
        """Happy-count change; equals ``gains - losses`` (verified in tests)."""
        return self.happy_deployed - self.happy_baseline


def pair_root_cause(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    deployment: Deployment,
    model: RankModel,
) -> PairRootCause:
    """Classify every source's fate change for one attack pair.

    Happiness is the lower bound (tiebreak-adversarial), as in Figure 16.
    """
    ctx = _as_context(topology)
    baseline_attack = compute_routing_outcome(
        ctx, destination, attacker=attacker, deployment=Deployment.empty(), model=model
    )
    deployed_normal = compute_routing_outcome(
        ctx, destination, attacker=None, deployment=deployment, model=model
    )
    deployed_attack = compute_routing_outcome(
        ctx, destination, attacker=attacker, deployment=deployment, model=model
    )

    secure_normal: set[int] = set()
    downgraded: set[int] = set()
    wasted: set[int] = set()
    protected: set[int] = set()
    benefit: set[int] = set()
    other_gains: set[int] = set()
    damage: set[int] = set()
    other_losses: set[int] = set()
    happy_baseline = 0
    happy_deployed = 0

    # All three outcomes share ctx's dense index space, so the per-AS
    # classification walks flat arrays instead of per-AS route lookups.
    asn_of = ctx.graph.asns
    dest_i = deployed_attack._dest_i
    att_i = deployed_attack._att_i
    base_fixed = baseline_attack._fixed
    base_reach = baseline_attack._reach
    dep_fixed = deployed_attack._fixed
    dep_reach = deployed_attack._reach
    dep_sec = deployed_attack._sec
    norm_fixed = deployed_normal._fixed
    norm_sec = deployed_normal._sec
    ranking = ctx.deployment_masks(deployment)[1]

    for i in range(ctx.n):
        if i == dest_i or i == att_i:
            continue
        was_happy = bool(base_fixed[i]) and base_reach[i] == 1
        now_happy = bool(dep_fixed[i]) and dep_reach[i] == 1
        happy_baseline += was_happy
        happy_deployed += now_happy
        had_secure = bool(norm_fixed[i]) and bool(norm_sec[i])
        has_secure = bool(dep_fixed[i]) and bool(dep_sec[i])
        if not (was_happy or now_happy or had_secure or has_secure):
            continue
        asn = asn_of[i]
        if had_secure:
            secure_normal.add(asn)
            if not has_secure:
                downgraded.add(asn)
        if has_secure:
            if was_happy:
                wasted.add(asn)
            else:
                protected.add(asn)
        if now_happy and not was_happy and not has_secure:
            if ranking[i]:
                other_gains.add(asn)
            else:
                benefit.add(asn)
        if was_happy and not now_happy:
            if ranking[i]:
                other_losses.add(asn)
            else:
                damage.add(asn)

    return PairRootCause(
        attacker=attacker,
        destination=destination,
        secure_normal=frozenset(secure_normal),
        downgraded=frozenset(downgraded),
        wasted_secure=frozenset(wasted),
        protected_secure=frozenset(protected),
        collateral_benefit=frozenset(benefit),
        other_gains=frozenset(other_gains),
        collateral_damage=frozenset(damage),
        other_losses=frozenset(other_losses),
        happy_baseline=happy_baseline,
        happy_deployed=happy_deployed,
    )


@dataclass(frozen=True)
class RootCauseBreakdown:
    """Figure 16: average source fractions over a set of attack pairs."""

    model: RankModel
    num_pairs: int
    num_sources: int
    secure_routes_normal: float
    downgrades: float
    wasted_secure: float
    protected_secure: float
    collateral_benefits: float
    collateral_damages: float
    other_gains: float
    other_losses: float
    metric_change: float

    def identity_residual(self) -> float:
        """``ΔH − (gains − losses)``; exactly 0 up to float error."""
        gains = self.protected_secure + self.collateral_benefits + self.other_gains
        losses = self.collateral_damages + self.other_losses
        return self.metric_change - (gains - losses)


def root_cause_breakdown(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int, int]],
    deployment: Deployment,
    model: RankModel,
) -> RootCauseBreakdown:
    """Average the per-pair root causes over ``pairs`` (Figure 16 bars)."""
    ctx = _as_context(topology)
    num_sources = ctx.n - 2
    totals = {
        "secure_normal": 0,
        "downgraded": 0,
        "wasted": 0,
        "protected": 0,
        "benefit": 0,
        "damage": 0,
        "other_gains": 0,
        "other_losses": 0,
        "change": 0,
    }
    used = 0
    for attacker, destination in pairs:
        if attacker == destination:
            continue
        used += 1
        pr = pair_root_cause(ctx, attacker, destination, deployment, model)
        totals["secure_normal"] += len(pr.secure_normal)
        totals["downgraded"] += len(pr.downgraded)
        totals["wasted"] += len(pr.wasted_secure)
        totals["protected"] += len(pr.protected_secure)
        totals["benefit"] += len(pr.collateral_benefit)
        totals["damage"] += len(pr.collateral_damage)
        totals["other_gains"] += len(pr.other_gains)
        totals["other_losses"] += len(pr.other_losses)
        totals["change"] += pr.metric_change
    scale = 1.0 / (used * num_sources) if used and num_sources else 0.0
    return RootCauseBreakdown(
        model=model,
        num_pairs=used,
        num_sources=num_sources,
        secure_routes_normal=totals["secure_normal"] * scale,
        downgrades=totals["downgraded"] * scale,
        wasted_secure=totals["wasted"] * scale,
        protected_secure=totals["protected"] * scale,
        collateral_benefits=totals["benefit"] * scale,
        collateral_damages=totals["damage"] * scale,
        other_gains=totals["other_gains"] * scale,
        other_losses=totals["other_losses"] * scale,
        metric_change=totals["change"] * scale,
    )
