"""Deployment scenarios: who runs S*BGP, and in which mode (Section 5).

A :class:`Deployment` is the set ``S`` of the paper: the ASes that have
adopted S*BGP.  Two membership modes exist (Section 5.3.2):

* **full** — the AS signs, validates, and uses security in route
  selection (the ``SecP`` step);
* **simplex** — lightweight S*BGP for stubs: the AS *signs its own
  origin announcements* (so routes *to* it can be secure) but receives
  legacy BGP only, so it never prefers secure routes itself.

The module also builds every partial-deployment scenario the paper
evaluates: the Tier 1+2 rollout, the Tier 1+2+CP rollout, the Tier 2-only
rollout, "all non-stubs", and the Section 5.3.1 early-adopter scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..topology.graph import ASGraph
from ..topology.tiers import Tier, TierTable


@dataclass(frozen=True)
class Deployment:
    """The set of secure ASes, split by deployment mode.

    Attributes:
        full: ASes running full S*BGP (sign + validate + rank securely).
        simplex: stub ASes running simplex S*BGP (sign own origin only).
    """

    full: frozenset[int] = frozenset()
    simplex: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        overlap = self.full & self.simplex
        if overlap:
            raise ValueError(f"ASes in both full and simplex mode: {sorted(overlap)}")

    # -- membership views ------------------------------------------------
    @property
    def ranking_members(self) -> frozenset[int]:
        """ASes that apply the ``SecP`` step when selecting routes."""
        return self.full

    @property
    def signing_members(self) -> frozenset[int]:
        """ASes whose announcements can carry S*BGP signatures."""
        return self.full | self.simplex

    def is_secure_destination(self, asn: int) -> bool:
        """Can routes *to* this AS be secure (is its origin signed)?"""
        return asn in self.full or asn in self.simplex

    @property
    def size(self) -> int:
        return len(self.full) + len(self.simplex)

    def __contains__(self, asn: int) -> bool:
        return asn in self.full or asn in self.simplex

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "Deployment":
        """The baseline scenario ``S = ∅`` (origin authentication only)."""
        return cls()

    @classmethod
    def of(cls, asns: Iterable[int]) -> "Deployment":
        """Full S*BGP at exactly ``asns``."""
        return cls(full=frozenset(asns))

    @classmethod
    def everywhere(cls, graph: ASGraph) -> "Deployment":
        """Full deployment at every AS (the prior literature's endgame)."""
        return cls(full=frozenset(graph.asns))

    def with_simplex_stubs(self, graph: ASGraph) -> "Deployment":
        """Demote every stub in the deployment to simplex mode (§5.3.2)."""
        stubs = frozenset(a for a in self.full if graph.is_stub(a))
        return Deployment(full=self.full - stubs, simplex=self.simplex | stubs)

    def union(self, other: "Deployment") -> "Deployment":
        return Deployment(
            full=self.full | other.full,
            simplex=(self.simplex | other.simplex) - (self.full | other.full),
        )


@dataclass(frozen=True)
class RolloutStep:
    """One step of an incremental deployment, with a display label."""

    label: str
    deployment: Deployment
    #: number of non-stub ASes in S — the x-axis of Figures 7, 8 and 11.
    non_stub_count: int


def stubs_of(graph: ASGraph, isps: Iterable[int]) -> frozenset[int]:
    """The stub customers of the given ISPs.

    Gill et al.'s bootstrap strategy (§5.2.1) has secure ISPs deploy
    S*BGP at their stub customers, so each rollout step secures a set of
    ISPs "and all of their stubs": every direct customer with no
    customers of its own.
    """
    is_stub = graph.is_stub
    return frozenset(
        customer
        for isp in isps
        for customer in graph.customers(isp)
        if is_stub(customer)
    )


def _isp_step(
    graph: ASGraph,
    label: str,
    isps: Sequence[int],
    extra: Iterable[int] = (),
    simplex_stubs: bool = False,
    stubs_by_isp: dict[int, frozenset[int]] | None = None,
) -> RolloutStep:
    """Build 'these ISPs + their stubs (+ extras)' as a rollout step.

    Every AS :func:`stubs_of` adds is a stub by construction, so only
    the ISPs and extras themselves are asked ``is_stub``: that settles
    the member set, the non-stub count and the simplex split at once.
    A rollout's steps share one ``stubs_by_isp`` (ISP → its stub
    customers): their ISP sets are nested, so each ISP's customers are
    walked once a rollout, not once a step.
    """
    isp_set = frozenset(isps) | frozenset(extra)
    stub_isps = frozenset(a for a in isp_set if graph.is_stub(a))
    memo = {} if stubs_by_isp is None else stubs_by_isp
    for isp in isp_set:
        if isp not in memo:
            memo[isp] = stubs_of(graph, (isp,))
    stubs = stub_isps.union(*(memo[isp] for isp in isp_set))
    if simplex_stubs:
        deployment = Deployment(full=isp_set - stub_isps, simplex=stubs)
    else:
        deployment = Deployment.of(isp_set | stubs)
    return RolloutStep(
        label=label,
        deployment=deployment,
        non_stub_count=len(isp_set) - len(stub_isps),
    )


def _scaled_counts(total: int, paper_counts: Sequence[int], paper_total: int) -> list[int]:
    """Scale the paper's rollout sizes to a smaller tier population."""
    if total >= paper_total:
        return [min(c, total) for c in paper_counts]
    counts = sorted({max(1, round(c * total / paper_total)) for c in paper_counts})
    if counts[-1] != total:
        counts.append(total)
    return counts


def tier12_rollout(
    graph: ASGraph,
    tiers: TierTable,
    simplex_stubs: bool = False,
    include_cps: bool = False,
) -> list[RolloutStep]:
    """The Tier 1 + Tier 2 rollout of §5.2.1 (Figures 7 and 8).

    The paper secures X Tier 1s and Y Tier 2s plus all their stubs, for
    (X, Y) ∈ {(13,13), (13,37), (13,100)}.  Y is scaled proportionally
    when the graph's Tier-2 bucket is smaller than 100.

    Args:
        graph: the topology.
        tiers: its Table 1 classification.
        simplex_stubs: run stubs in simplex mode (the "error bars").
        include_cps: also secure the content providers (Figure 8).
    """
    t1 = tiers.members(Tier.TIER1)
    t2 = tiers.members(Tier.TIER2)
    t2_ranked = sorted(t2, key=lambda a: (-graph.customer_degree(a), a))
    extra = tiers.members(Tier.CP) if include_cps else ()
    stubs_by_isp: dict[int, frozenset[int]] = {}
    steps = []
    for y in _scaled_counts(len(t2_ranked), (13, 37, 100), 100):
        label = f"T1+{y}xT2" + ("+CP" if include_cps else "")
        steps.append(
            _isp_step(
                graph,
                label,
                list(t1) + t2_ranked[:y],
                extra=extra,
                simplex_stubs=simplex_stubs,
                stubs_by_isp=stubs_by_isp,
            )
        )
    return steps


def tier12_rollout_dense(
    graph: ASGraph,
    tiers: TierTable,
    simplex_stubs: bool = False,
    include_cps: bool = False,
) -> list[RolloutStep]:
    """The §5.2.1 rollout refined to one-ISP granularity.

    Step 0 secures the Tier 1 block (plus stubs); each further step adds
    exactly one Tier 2 (plus its stubs) in customer-degree order — the
    deployment-*ordering* workload that follow-up studies (e.g. Barrett
    et al., "Ain't How You Deploy", 2024) sweep at far larger scenario
    counts than the paper's three Figure 7 points.  The coarse
    :func:`tier12_rollout` steps appear verbatim in this chain (same
    member sets at the matching Y counts), so the two experiments'
    scenarios dedupe; adjacent steps differ by one ISP and its stubs,
    so a pair whose destination signs at neither step, attacked by an
    unsigned announcement, is one blind pass shared by both
    (:func:`repro.core.routing.jobs_happiness_counts`).
    """
    t1 = tiers.members(Tier.TIER1)
    t2 = tiers.members(Tier.TIER2)
    t2_ranked = sorted(t2, key=lambda a: (-graph.customer_degree(a), a))
    extra = tiers.members(Tier.CP) if include_cps else ()
    suffix = "+CP" if include_cps else ""
    stubs_by_isp: dict[int, frozenset[int]] = {}
    return [
        _isp_step(
            graph,
            f"T1+{y}xT2{suffix}",
            list(t1) + t2_ranked[:y],
            extra=extra,
            simplex_stubs=simplex_stubs,
            stubs_by_isp=stubs_by_isp,
        )
        for y in range(len(t2_ranked) + 1)
    ]


def tier2_rollout(
    graph: ASGraph,
    tiers: TierTable,
    simplex_stubs: bool = False,
) -> list[RolloutStep]:
    """The Tier 2-only rollout of §5.2.4 (Figure 11).

    Secures Y Tier 2s plus their stubs for Y ∈ {13, 26, 50, 100}
    (scaled), with no Tier 1 participation.
    """
    t2 = tiers.members(Tier.TIER2)
    t2_ranked = sorted(t2, key=lambda a: (-graph.customer_degree(a), a))
    stubs_by_isp: dict[int, frozenset[int]] = {}
    steps = []
    for y in _scaled_counts(len(t2_ranked), (13, 26, 50, 100), 100):
        steps.append(
            _isp_step(
                graph, f"{y}xT2", t2_ranked[:y],
                simplex_stubs=simplex_stubs, stubs_by_isp=stubs_by_isp,
            )
        )
    return steps


def nonstub_deployment(graph: ASGraph, tiers: TierTable) -> Deployment:
    """Secure every non-stub AS (§5.2.4, Figure 12)."""
    return Deployment.of(tiers.non_stubs())


def tier1_and_stubs(
    graph: ASGraph, tiers: TierTable, include_cps: bool = False
) -> RolloutStep:
    """§5.3.1: all Tier 1s and their stubs (optionally + the CPs)."""
    label = "T1+stubs" + ("+CP" if include_cps else "")
    extra = tiers.members(Tier.CP) if include_cps else ()
    return _isp_step(graph, label, tiers.members(Tier.TIER1), extra=extra)


def top_tier2_and_stubs(
    graph: ASGraph, tiers: TierTable, count: int = 13
) -> RolloutStep:
    """§5.3.1: the ``count`` largest Tier 2s (by customer degree) + stubs."""
    t2_ranked = sorted(
        tiers.members(Tier.TIER2), key=lambda a: (-graph.customer_degree(a), a)
    )
    return _isp_step(graph, f"top{count}xT2+stubs", t2_ranked[:count])


@dataclass(frozen=True)
class ScenarioCatalog:
    """All named deployment scenarios for a given graph, lazily built."""

    graph: ASGraph
    tiers: TierTable
    _cache: dict = field(default_factory=dict, compare=False)

    def get(self, name: str) -> Deployment:
        """Look up a scenario by name.

        Names: ``empty``, ``t1_stubs``, ``t1_stubs_cp``, ``t2_top13_stubs``,
        ``nonstubs``, ``t12_full`` (last Tier 1+2 rollout step),
        ``t2_full`` (last Tier 2 rollout step), ``everywhere``.
        """
        if name in self._cache:
            return self._cache[name]
        if name == "empty":
            value = Deployment.empty()
        elif name == "t1_stubs":
            value = tier1_and_stubs(self.graph, self.tiers).deployment
        elif name == "t1_stubs_cp":
            value = tier1_and_stubs(self.graph, self.tiers, include_cps=True).deployment
        elif name == "t2_top13_stubs":
            value = top_tier2_and_stubs(self.graph, self.tiers).deployment
        elif name == "nonstubs":
            value = nonstub_deployment(self.graph, self.tiers)
        elif name == "t12_full":
            value = tier12_rollout(self.graph, self.tiers)[-1].deployment
        elif name == "t2_full":
            value = tier2_rollout(self.graph, self.tiers)[-1].deployment
        elif name == "everywhere":
            value = Deployment.everywhere(self.graph)
        else:
            raise KeyError(f"unknown deployment scenario {name!r}")
        self._cache[name] = value
        return value
