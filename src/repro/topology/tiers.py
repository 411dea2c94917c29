"""Tier classification of ASes (Table 1 of the paper).

The paper buckets ASes into eight "tiers" used throughout the evaluation:

========== =============================================================
Tier 1     13 ASes with high customer degree & no providers
Tier 2     100 top ASes by customer degree & with providers
Tier 3     next 100 ASes by customer degree & with providers
CPs        17 content-provider ASes (explicit list, Figure 13)
Small CPs  top 300 ASes by peering degree (other than the above)
Stubs-x    ASes with peers but no customers
Stubs      ASes with no customers & no peers
SMDG       remaining non-stub ASes
========== =============================================================

Rows take precedence top-down: an AS matching several rows is assigned
the first one.  The bucket sizes are parameters so the classifier scales
to smaller synthetic graphs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import ASGraph

#: The paper's 17 content providers (Figure 13), ASN -> name.
PAPER_CONTENT_PROVIDERS: dict[int, str] = {
    15169: "Google",
    22822: "Limelight",
    20940: "Akamai",
    8075: "Microsoft",
    10310: "Yahoo",
    16265: "Leaseweb",
    15133: "Edgecast",
    16509: "Amazon",
    32934: "Facebook",
    2906: "Netflix",
    4837: "QQ",
    13414: "Twitter",
    40428: "Pandora",
    14907: "Wikipedia",
    714: "Apple",
    23286: "Hulu",
    38365: "Baidu",
}


class Tier(enum.Enum):
    """Tier buckets of Table 1."""

    TIER1 = "T1"
    TIER2 = "T2"
    TIER3 = "T3"
    CP = "CP"
    SMALL_CP = "SMCP"
    STUB_X = "STUB-X"
    STUB = "STUB"
    SMDG = "SMDG"


#: A tier's code in :attr:`TierTable.code` is its position here.
_TIERS = tuple(Tier)
_STUB, _STUB_X = _TIERS.index(Tier.STUB), _TIERS.index(Tier.STUB_X)

#: Display order used by the paper's figures (left to right).
FIGURE_TIER_ORDER = (
    Tier.STUB,
    Tier.STUB_X,
    Tier.SMDG,
    Tier.SMALL_CP,
    Tier.CP,
    Tier.TIER3,
    Tier.TIER2,
    Tier.TIER1,
)


@dataclass(frozen=True)
class TierParams:
    """Bucket sizes; defaults follow Table 1."""

    tier1_count: int = 13
    tier2_count: int = 100
    tier3_count: int = 100
    small_cp_count: int = 300

    def scaled(self, n: int, reference_n: int = 39056) -> "TierParams":
        """Scale bucket sizes proportionally to a smaller graph.

        Tier-1 count is kept (it is structural, not proportional); the
        others shrink with the graph but keep sensible minimums.
        """
        if n >= reference_n:
            return self
        ratio = n / reference_n
        return TierParams(
            tier1_count=self.tier1_count,
            tier2_count=max(10, round(self.tier2_count * ratio)),
            tier3_count=max(10, round(self.tier3_count * ratio)),
            small_cp_count=max(20, round(self.small_cp_count * ratio)),
        )


class TierTable:
    """Result of classification: one int8 tier code per dense index of
    ``graph`` (a position in ``list(Tier)``), and each tier's dense
    indices.  ASN views (:meth:`members`, :meth:`stubs`,
    :meth:`non_stubs`) are built when a caller asks.

    Example:
        >>> from .graph import graph_from_edges
        >>> tiers = classify_tiers(graph_from_edges(customer_provider=[(2, 1), (3, 1)]))
        >>> tiers[1], tiers.members(Tier.STUB), tiers.code.tolist()
        (<Tier.TIER1: 'T1'>, (2, 3), [0, 6, 6])
    """

    __slots__ = ("graph", "code", "_index")

    def __init__(self, graph: ASGraph, code: np.ndarray) -> None:
        self.graph = graph
        self.code = code.astype(np.int8)
        self.code.flags.writeable = False
        #: per tier, its members' dense indices, ascending (so by ASN)
        self._index = {
            t: np.flatnonzero(self.code == k).astype(np.int32)
            for k, t in enumerate(_TIERS)
        }

    def members(self, tier: Tier) -> tuple[int, ...]:
        """All ASes in ``tier``, sorted by ASN."""
        return tuple(self.graph.asn_of[self._index[tier]].tolist())

    def __getitem__(self, asn: int) -> Tier:
        i = self.graph.index(asn)
        if i < 0:
            raise KeyError(asn)
        return _TIERS[self.code[i]]

    def _stub_mask(self) -> np.ndarray:
        return (self.code == _STUB) | (self.code == _STUB_X)

    def stubs(self) -> tuple[int, ...]:
        """All ASes without customers (STUB and STUB-X buckets).

        Note: an AS without customers may also land in CP / Small-CP by
        Table 1 precedence; this helper returns only the stub buckets,
        matching the paper's use of "stubs" for deployment rollouts.
        """
        return tuple(self.graph.asn_of[self._stub_mask()].tolist())

    def non_stubs(self) -> tuple[int, ...]:
        """Every AS not in the STUB / STUB-X buckets (the paper's M')."""
        return tuple(self.graph.asn_of[~self._stub_mask()].tolist())

    def counts(self) -> dict[Tier, int]:
        return {t: len(self._index[t]) for t in Tier}

    def tally(self, rows: np.ndarray, column: np.ndarray, width: int) -> dict[Tier, list[int]]:
        """Per tier, how many of the ASes at dense indices ``rows`` have
        each ``column`` value (``0 .. width - 1``); tiers none of them
        is in are left out, the rest come in ``Tier`` order."""
        code = self.code[rows].astype(np.int64)
        table = np.bincount(code * width + column, minlength=len(_TIERS) * width)
        table = table.reshape(-1, width)
        return {_TIERS[k]: table[k].tolist() for k in np.flatnonzero(table.any(axis=1)).tolist()}


def classify_tiers(
    graph: ASGraph,
    content_providers: tuple[int, ...] | None = None,
    params: TierParams | None = None,
) -> TierTable:
    """Classify every AS of ``graph`` per Table 1.

    Args:
        graph: the AS topology.
        content_providers: explicit CP ASNs.  Defaults to the paper's 17
            CPs intersected with the graph (the synthetic generator embeds
            those ASNs).
        params: bucket sizes; default scales Table 1 to the graph size.

    Returns:
        A :class:`TierTable`.
    """
    if params is None:
        params = TierParams().scaled(len(graph))
    if content_providers is None:
        content_providers = tuple(
            a for a in sorted(PAPER_CONTENT_PROVIDERS) if a in graph
        )

    start = graph.adj_start
    providers = graph.peer_start - start[:-1]
    peers = graph.cust_start - graph.peer_start
    customers = start[1:] - graph.cust_start
    tier = np.full(len(graph), -1)  # index into ``_TIERS``; -1 until taken

    def take(members: np.ndarray, t: Tier, count: int | None = None, by=None) -> None:
        """The first ``count`` of ``members`` (dense indices, ranked by
        ``by`` descending, ties by ASN) not yet taken join ``t``."""
        members = members[tier[members] < 0]
        if by is not None:
            members = members[np.argsort(-by[members], kind="stable")]
        tier[members[:count]] = _TIERS.index(t)

    # Tier 1: provider-less ASes with the highest customer degrees.
    take(np.flatnonzero((providers == 0) & (customers > 0)), Tier.TIER1,
         params.tier1_count, customers)
    # Tier 2 / Tier 3: top ASes by customer degree *with* providers.
    with_providers = np.flatnonzero((providers > 0) & (customers > 0))
    take(with_providers, Tier.TIER2, params.tier2_count, customers)
    take(with_providers, Tier.TIER3, params.tier3_count, customers)
    # Content providers: explicit list.
    cps = graph.indices(content_providers)
    take(cps[cps >= 0], Tier.CP)
    # Small CPs: top ASes by peering degree among the rest.
    take(np.flatnonzero(peers > 0), Tier.SMALL_CP, params.small_cp_count, peers)
    # Stubs-x / stubs / SMDG.
    take(np.flatnonzero((customers == 0) & (peers > 0)), Tier.STUB_X)
    take(np.flatnonzero(customers == 0), Tier.STUB)
    take(np.arange(len(graph)), Tier.SMDG)

    return TierTable(graph, tier)
