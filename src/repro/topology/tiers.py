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
from dataclasses import dataclass, field

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


@dataclass
class TierTable:
    """Result of classification: AS -> tier, with reverse lookup helpers."""

    tier_of: dict[int, Tier]
    _members: dict[Tier, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        buckets: dict[Tier, list[int]] = {t: [] for t in Tier}
        for asn in sorted(self.tier_of):
            buckets[self.tier_of[asn]].append(asn)
        self._members = {t: tuple(buckets[t]) for t in Tier}

    def members(self, tier: Tier) -> tuple[int, ...]:
        """All ASes in ``tier``, sorted by ASN."""
        return self._members[tier]

    def __getitem__(self, asn: int) -> Tier:
        return self.tier_of[asn]

    def stubs(self) -> tuple[int, ...]:
        """All ASes without customers (STUB and STUB-X buckets).

        Note: an AS without customers may also land in CP / Small-CP by
        Table 1 precedence; this helper returns only the stub buckets,
        matching the paper's use of "stubs" for deployment rollouts.
        """
        return tuple(
            sorted(self.members(Tier.STUB) + self.members(Tier.STUB_X))
        )

    def non_stubs(self) -> tuple[int, ...]:
        """Every AS not in the STUB / STUB-X buckets (the paper's M')."""
        stub_set = set(self.stubs())
        return tuple(a for a in sorted(self.tier_of) if a not in stub_set)

    def counts(self) -> dict[Tier, int]:
        return {t: len(self._members[t]) for t in Tier}


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

    tier_of: dict[int, Tier] = {}
    providers, customers, peers = graph.adjacency()
    asns = graph.asns

    def take(members: list[int], tier: Tier) -> None:
        for asn in members:
            if asn not in tier_of:
                tier_of[asn] = tier

    # Tier 1: provider-less ASes with the highest customer degrees.
    providerless = [a for a in asns if not providers[a] and customers[a]]
    providerless.sort(key=lambda a: (-len(customers[a]), a))
    take(providerless[: params.tier1_count], Tier.TIER1)

    # Tier 2 / Tier 3: top ASes by customer degree *with* providers.
    with_providers = [
        a for a in asns if providers[a] and customers[a] and a not in tier_of
    ]
    with_providers.sort(key=lambda a: (-len(customers[a]), a))
    take(with_providers[: params.tier2_count], Tier.TIER2)
    take(
        with_providers[params.tier2_count : params.tier2_count + params.tier3_count],
        Tier.TIER3,
    )

    # Content providers: explicit list.
    take([a for a in content_providers if a in graph], Tier.CP)

    # Small CPs: top ASes by peering degree among the rest.
    by_peering = [a for a in asns if a not in tier_of and peers[a]]
    by_peering.sort(key=lambda a: (-len(peers[a]), a))
    take(by_peering[: params.small_cp_count], Tier.SMALL_CP)

    # Stubs-x / stubs / SMDG.
    for asn in asns:
        if asn in tier_of:
            continue
        if not customers[asn]:
            tier_of[asn] = Tier.STUB_X if peers[asn] else Tier.STUB
        else:
            tier_of[asn] = Tier.SMDG

    return TierTable(tier_of)
