"""Doomed / protectable / immune partitions (Section 4.3, Appendix E).

For a fixed attacker/destination pair ``(m, d)``, every source AS falls
into one of three categories *independently of which ASes deploy
S*BGP*:

* **doomed** — routes through the attacker for every secure set ``S``;
* **immune** — routes to the legitimate destination for every ``S``;
* **protectable** — its fate depends on ``S``.

Averaging the immune (resp. non-doomed) fractions over pairs gives the
deployment-invariant lower (resp. upper) bounds on the security metric
of Section 4.4 — the paper's Figure 3 family.

Each model reads Appendix E's definitions off one array per dense index:

* **security 3rd** (Corollary E.1): the best route's class *and length*
  are deployment-invariant, so the endpoints of the ``S = ∅`` best
  routes are the category;
* **security 2nd** (Corollary E.2): only the class is invariant, so the
  perceivable closure (:mod:`repro.core.perceivable`) admits each AS to
  its ``S = ∅`` class only.  Doomed: no route to ``d``.  Immune: safe
  (no route to ``m``, or a route to ``d`` shorter than any to ``m``
  for every ``S``);
* **security 1st** (Observations E.3/E.4): doomed iff no perceivable
  route leads to ``d``, immune iff none leads to ``m``.

Every call is sound: an immune AS is happy for every ``S``, a doomed one
for none.  Doomed is exact under classic LP; immune is a subset, as the
length rule may miss an AS whose route to ``m`` can never win.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..topology.graph import ASGraph
from .context import RoutingContext, _as_context
from .outcome import RoutingOutcome, compute_routing_outcome
from .perceivable import perceivable_closure
from .rank import RankModel, SecurityModel


class Category(enum.Enum):
    """Deployment-invariant fate of a source AS (Table 2); its code is
    its position in ``tuple(Category)``."""

    DOOMED = "doomed"
    PROTECTABLE = "protectable"
    IMMUNE = "immune"
    #: no perceivable route to either endpoint (disconnected inputs only).
    DISCONNECTED = "disconnected"


_CATEGORIES = tuple(Category)
#: the code of ``d`` and ``m``, which are no source
ROOT = -1
#: category code by reach bits (1: a route to ``d``, 2: to ``m``)
_BY_REACH = np.array([_CATEGORIES.index(c) for c in (
    Category.DISCONNECTED, Category.IMMUNE, Category.DOOMED, Category.PROTECTABLE,
)], np.int8)
_IMMUNE = _CATEGORIES.index(Category.IMMUNE)


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


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Per-source categories for one attacker/destination pair."""

    attacker: int
    destination: int
    model: RankModel
    graph: ASGraph
    #: int8 per dense index: the category's code, :data:`ROOT` for the roots
    codes: np.ndarray

    def counts(self) -> PartitionCounts:
        codes = self.codes
        return PartitionCounts(*np.bincount(codes[codes >= 0], minlength=4).tolist())

    def category(self, asn: int) -> Category:
        """The category of source ``asn``; ``KeyError`` for a root or
        an AS outside the graph."""
        i = self.graph.index(asn)
        if i < 0 or self.codes[i] == ROOT:
            raise KeyError(asn)
        return _CATEGORIES[self.codes[i]]

    def members(self, category: Category) -> frozenset[int]:
        code = _CATEGORIES.index(category)
        return frozenset(self.graph.asn_of[self.codes == code].tolist())


def compute_partitions(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    model: RankModel,
    baseline_outcome: RoutingOutcome | None = None,
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

    Returns:
        A :class:`PartitionResult`.
    """
    if model.model is SecurityModel.BASELINE:
        raise ValueError("partitions are defined for the three security models")
    ctx = _as_context(topology)
    dest_i, att_i = ctx._check_pair(destination, attacker)
    if model.model is SecurityModel.FIRST:
        reach = perceivable_closure(ctx, attacker, destination).reach
        codes = _BY_REACH[np.bitwise_or.reduce(reach)]
    else:
        outcome = baseline_outcome or compute_routing_outcome(
            ctx,
            destination,
            attacker=attacker,
            model=RankModel(SecurityModel.BASELINE, model.local_preference),
        )
        fixed = np.frombuffer(outcome._fixed, np.bool_)
        if model.model is SecurityModel.THIRD:
            codes = _BY_REACH[np.frombuffer(outcome._reach, np.uint8) * fixed]
        else:
            route_class = np.where(fixed, np.frombuffer(outcome._cls, np.uint8), 3)
            closure = perceivable_closure(ctx, attacker, destination, route_class)
            codes = _BY_REACH[np.bitwise_or.reduce(closure.reach)]
            codes[closure.safe] = _IMMUNE
    codes[[dest_i, att_i]] = ROOT
    return PartitionResult(attacker, destination, model, ctx.graph, codes)
