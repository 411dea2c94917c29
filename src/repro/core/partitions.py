"""Doomed / protectable / immune partitions (Section 4.3, Appendix E).

For a fixed attacker/destination pair ``(m, d)``, every source AS falls
into exactly one of three categories *independently of which ASes deploy
S*BGP*:

* **doomed** — routes through the attacker for every secure set ``S``;
* **immune** — routes to the legitimate destination for every ``S``;
* **protectable** — its fate depends on ``S``.

Averaging the immune (resp. non-doomed) fractions over pairs gives the
deployment-invariant lower (resp. upper) bounds on the security metric
of Section 4.4 — the paper's Figure 3 family.

The computation follows Appendix E exactly:

* **security 3rd** (Corollary E.1): the best route's class *and length*
  are deployment-invariant, so classify by the endpoints of the
  baseline (``S = ∅``) BPR set;
* **security 2nd** (Corollary E.2): only the best route's *class* is
  invariant, so classify by the endpoints of every same-class route
  that *survives* the FixRoutes pruning — i.e. routes through fixed
  neighbors whose own BPR sets still offer them.  (A static
  perceivable-route closure is not enough: a stub whose providers are
  all doomed can only ever learn bogus routes, which is exactly why
  most sources are doomed when a Tier 1 is attacked, §4.6);
* **security 1st** (Observations E.3/E.4): doomed iff every perceivable
  route leads to the attacker; immune iff none does; the paper treats
  everything else (≈ all ASes) as protectable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from .perceivable import AttackClosures, attack_closures
from .rank import BASELINE, RankModel, SecurityModel
from .context import RoutingContext, _as_context
from .outcome import Reach, RoutingOutcome, compute_routing_outcome


class Category(enum.Enum):
    """Deployment-invariant fate of a source AS (Table 2)."""

    DOOMED = "doomed"
    PROTECTABLE = "protectable"
    IMMUNE = "immune"
    #: no perceivable route to either endpoint (disconnected inputs only).
    DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class PartitionCounts:
    """Aggregate partition sizes for one (m, d) pair."""

    doomed: int
    protectable: int
    immune: int
    disconnected: int

    @property
    def total(self) -> int:
        return self.doomed + self.protectable + self.immune + self.disconnected

    def fractions(self) -> tuple[float, float, float]:
        """(doomed, protectable, immune) as fractions of all sources."""
        total = self.total
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (
            self.doomed / total,
            self.protectable / total,
            self.immune / total,
        )


@dataclass
class PartitionResult:
    """Per-source categories for one attacker/destination pair."""

    attacker: int
    destination: int
    model: RankModel
    category_of: dict[int, Category]

    def counts(self) -> PartitionCounts:
        doomed = protectable = immune = disconnected = 0
        for category in self.category_of.values():
            if category is Category.DOOMED:
                doomed += 1
            elif category is Category.PROTECTABLE:
                protectable += 1
            elif category is Category.IMMUNE:
                immune += 1
            else:
                disconnected += 1
        return PartitionCounts(doomed, protectable, immune, disconnected)

    def members(self, category: Category) -> frozenset[int]:
        return frozenset(
            asn for asn, cat in self.category_of.items() if cat is category
        )


def compute_partitions(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    model: RankModel,
    baseline_outcome: RoutingOutcome | None = None,
    closures: AttackClosures | None = None,
) -> PartitionResult:
    """Partition all sources for ``(m, d)`` under the given model.

    Args:
        topology: graph or prebuilt context.
        attacker: the attacking AS ``m``.
        destination: the victim AS ``d``.
        model: one of the three security models (the baseline model has
            no protectable ASes by definition and is rejected).
        baseline_outcome: optional precomputed ``S = ∅`` attack outcome
            for this pair (shared across models — with no secure AS all
            models coincide).
        closures: optional precomputed perceivable closures for the pair.

    Returns:
        A :class:`PartitionResult`.
    """
    if model.model is SecurityModel.BASELINE:
        raise ValueError("partitions are defined for the three security models")
    ctx = _as_context(topology)

    if model.model is SecurityModel.THIRD:
        outcome = baseline_outcome or compute_routing_outcome(
            ctx,
            destination,
            attacker=attacker,
            model=RankModel(SecurityModel.BASELINE, model.local_preference),
        )
        return _partitions_from_bpr_endpoints(ctx, outcome, model)

    if model.model is SecurityModel.SECOND:
        outcome = baseline_outcome or compute_routing_outcome(
            ctx,
            destination,
            attacker=attacker,
            model=RankModel(SecurityModel.BASELINE, model.local_preference),
        )
        return _partitions_security_second(ctx, outcome, model)
    closures = closures or attack_closures(ctx, attacker, destination)
    return _partitions_security_first(ctx, attacker, destination, closures, model)


_CATEGORY_OF_REACH = {
    int(Reach.NONE): Category.DISCONNECTED,
    int(Reach.DEST): Category.IMMUNE,
    int(Reach.ATTACKER): Category.DOOMED,
    int(Reach.BOTH): Category.PROTECTABLE,
}


def _partitions_from_bpr_endpoints(
    ctx: RoutingContext, outcome: RoutingOutcome, model: RankModel
) -> PartitionResult:
    """Security 3rd: classify by the endpoints of the S=∅ BPR set.

    Reads the outcome's flat reach array directly (one byte per AS)
    instead of materializing per-AS route views.
    """
    category_of: dict[int, Category] = {}
    attacker = outcome.attacker
    destination = outcome.destination
    reach = outcome._reach
    fixed = outcome._fixed
    cat = _CATEGORY_OF_REACH
    asn_of = ctx.graph.asns
    dest_i = outcome._dest_i
    att_i = outcome._att_i
    for i in range(ctx.n):
        if i == dest_i or i == att_i:
            continue
        category_of[asn_of[i]] = cat[reach[i]] if fixed[i] else Category.DISCONNECTED
    return PartitionResult(attacker, destination, model, category_of)  # type: ignore[arg-type]


def _partitions_security_second(
    ctx: RoutingContext,
    outcome: RoutingOutcome,
    model: RankModel,
) -> PartitionResult:
    """Security 2nd: endpoints of surviving same-class routes (Cor. E.2).

    An AS stabilizes to a route of the same LP class as its ``S = ∅``
    best routes, but — because security outranks length inside the class
    — possibly via *any* neighbor still offering that class after the
    FixRoutes pruning.  The endpoints it can be steered to are therefore
    the union of its class-``C`` neighbors' own BPR endpoints.
    """
    category_of: dict[int, Category] = {}
    attacker = outcome.attacker
    destination = outcome.destination
    assert attacker is not None
    neighbor_sets = (ctx.customers_idx, ctx.peers_idx, ctx.providers_idx)
    fixed = outcome._fixed
    cls = outcome._cls
    reach_arr = outcome._reach
    asn_of = ctx.graph.asns
    dest_i = outcome._dest_i
    att_i = outcome._att_i
    cat = _CATEGORY_OF_REACH
    customer_cls = int(RouteClass.CUSTOMER)
    provider_cls = int(RouteClass.PROVIDER)
    for i in range(ctx.n):
        if i == dest_i or i == att_i:
            continue
        if not fixed[i]:
            category_of[asn_of[i]] = Category.DISCONNECTED
            continue
        route_class = cls[i]
        from_provider = route_class == provider_cls
        reach = 0
        for nbr in neighbor_sets[route_class][i]:
            if nbr == dest_i:
                reach |= 1
                continue
            if nbr == att_i:
                reach |= 2
                continue
            if not fixed[nbr]:
                continue
            # Ex: the neighbor offers its fixed route to ``asn`` only if
            # it is a customer route or ``asn`` is its customer.
            if cls[nbr] != customer_cls and not from_provider:
                continue
            reach |= reach_arr[nbr]
            if reach == 3:
                break
        # reach == 0 would mean a fixed AS whose every neighbor
        # withholds, which monotone fixing rules out (maps DISCONNECTED).
        category_of[asn_of[i]] = cat[reach]
    return PartitionResult(attacker, destination, model, category_of)


def _partitions_security_first(
    ctx: RoutingContext,
    attacker: int,
    destination: int,
    closures: AttackClosures,
    model: RankModel,
) -> PartitionResult:
    """Security 1st: Observations E.3/E.4; nearly everything is protectable."""
    category_of: dict[int, Category] = {}
    legitimate_any = closures.legitimate.any()
    attacked_any = closures.attacked.any()
    for asn in ctx.graph.asns:
        if asn == attacker or asn == destination:
            continue
        has_legitimate = asn in legitimate_any
        has_attacked = asn in attacked_any
        if has_legitimate and has_attacked:
            category_of[asn] = Category.PROTECTABLE
        elif has_legitimate:
            category_of[asn] = Category.IMMUNE
        elif has_attacked:
            category_of[asn] = Category.DOOMED
        else:
            category_of[asn] = Category.DISCONNECTED
    return PartitionResult(attacker, destination, model, category_of)
