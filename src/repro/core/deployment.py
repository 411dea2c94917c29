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

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..topology.graph import ASGraph
from ..topology.tiers import Tier, TierTable


def _asn_array(asns: Iterable[int]) -> np.ndarray:
    """``asns`` as a sorted, duplicate-free, read-only int64 array."""
    if isinstance(asns, np.ndarray):
        array = asns.astype(np.int64)
    elif isinstance(asns, (set, frozenset)):
        array = np.fromiter(asns, np.int64, len(asns))
    else:
        array = np.fromiter(asns, np.int64)
    array.sort()
    if len(array) > 1 and not (array[1:] > array[:-1]).all():
        array = array[np.concatenate(([True], array[1:] != array[:-1]))]
    array.flags.writeable = False
    return array


def _held(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which members of the sorted array ``a`` the sorted array ``b``
    holds, as a mask over ``a``."""
    if not len(b):
        return np.zeros(len(a), np.bool_)
    return b[np.minimum(b.searchsorted(a), len(b) - 1)] == a


def _subset(a: np.ndarray, b: np.ndarray) -> bool:
    """Is every member of the sorted array ``a`` in the sorted array
    ``b``?"""
    return len(a) <= len(b) and bool(_held(a, b).all())


def _of_bytes(full: bytes, simplex: bytes) -> "Deployment":
    """A pickled :class:`Deployment`: its member arrays' bytes, already
    sorted and disjoint."""
    deployment = Deployment.__new__(Deployment)
    deployment.full_asns = np.frombuffer(full, np.int64)
    deployment.simplex_asns = np.frombuffer(simplex, np.int64)
    return deployment


class Deployment:
    """The set of secure ASes, split by deployment mode, as two sorted
    int64 ASN arrays.  A deployment is a value (equal members, equal
    deployments) and knows no graph: members absent from a graph are
    ignored where it is routed on.

    Attributes:
        full_asns: ASes running full S*BGP (sign + validate + rank
            securely).
        simplex_asns: stub ASes running simplex S*BGP (sign own origin
            only).

    Example:
        >>> d = Deployment(full=[3, 1], simplex=[7])
        >>> d.full_asns.tolist(), 7 in d, d.size, d.full
        ([1, 3], True, 3, frozenset({1, 3}))
        >>> Deployment.of([1]).is_nested_in(d), d == Deployment(full=(1, 3), simplex=(7,))
        (True, True)
    """

    def __init__(self, full: Iterable[int] = (), simplex: Iterable[int] = ()) -> None:
        self.full_asns = _asn_array(full)
        self.simplex_asns = _asn_array(simplex)
        overlap = self.simplex_asns[_held(self.simplex_asns, self.full_asns)]
        if len(overlap):
            raise ValueError(f"ASes in both full and simplex mode: {overlap.tolist()}")

    # -- membership views (frozensets built on access, for edge callers) --
    @property
    def full(self) -> frozenset[int]:
        """:attr:`full_asns` as a frozenset."""
        return frozenset(self.full_asns.tolist())

    @property
    def simplex(self) -> frozenset[int]:
        """:attr:`simplex_asns` as a frozenset."""
        return frozenset(self.simplex_asns.tolist())

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
        return asn in self

    @property
    def size(self) -> int:
        return len(self.full_asns) + len(self.simplex_asns)

    def __contains__(self, asn: int) -> bool:
        one = np.array([asn], np.int64)
        return bool(_held(one, self.full_asns)[0] or _held(one, self.simplex_asns)[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Deployment):
            return NotImplemented
        return np.array_equal(self.full_asns, other.full_asns) and np.array_equal(
            self.simplex_asns, other.simplex_asns
        )

    def __hash__(self) -> int:
        return hash((self.full_asns.tobytes(), self.simplex_asns.tobytes()))

    def __repr__(self) -> str:
        return (
            f"Deployment(full={self.full_asns.tolist()}, "
            f"simplex={self.simplex_asns.tolist()})"
        )

    def is_nested_in(self, other: "Deployment") -> bool:
        """``self ⊑ other``: may a rollout advance from here to ``other``?

        Nesting is per membership mode: both the ranking set (``full``)
        and the signing set (``full ∪ simplex``) must grow
        monotonically; a simplex→full promotion is allowed (ranking
        gains, signing keeps the member).  This is the chain check of
        :func:`repro.core.jobs.jobs_happiness_counts`, and what
        :func:`repro.experiments.scenarios.detect_chains` chains by.
        Given the first condition, the second is ``simplex ∖
        other.simplex ⊆ other.full``, which builds no union.
        """
        left = self.simplex_asns[~_held(self.simplex_asns, other.simplex_asns)]
        return _subset(self.full_asns, other.full_asns) and _subset(left, other.full_asns)

    # -- canonical form (memoized per object, never pickled) --------------
    @functools.cached_property
    def sorted_members(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(full, simplex)`` as sorted tuples, built once per object:
        every scenario declared over this deployment shares them."""
        return tuple(self.full_asns.tolist()), tuple(self.simplex_asns.tolist())

    @functools.cached_property
    def members_json(self) -> tuple[str, str]:
        """:attr:`sorted_members` as compact JSON arrays, encoded once
        per object: the deployment's part of a scenario's canonical
        JSON."""
        encode = json.JSONEncoder(separators=(",", ":")).encode
        full, simplex = self.sorted_members
        return encode(full), encode(simplex)

    def __reduce__(self):
        # Only the members' bytes cross a pickle (a bin's deployments
        # travel to pool workers): the memos above stay with their
        # object, and the members need no sorting again.
        return _of_bytes, (self.full_asns.tobytes(), self.simplex_asns.tobytes())

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls) -> "Deployment":
        """The baseline scenario ``S = ∅`` (origin authentication only)."""
        return cls()

    @classmethod
    def of(cls, asns: Iterable[int]) -> "Deployment":
        """Full S*BGP at exactly ``asns``."""
        return cls(full=asns)

    @classmethod
    def everywhere(cls, graph: ASGraph) -> "Deployment":
        """Full deployment at every AS (the prior literature's endgame)."""
        return cls(full=graph.asn_of)

    def with_simplex_stubs(self, graph: ASGraph) -> "Deployment":
        """Demote every stub in the deployment to simplex mode (§5.3.2);
        a member absent from ``graph`` stays full."""
        i = graph.indices(self.full_asns)
        stub = (i >= 0) & (graph.cust_start[i] == graph.adj_start[i + 1])
        return Deployment(
            full=self.full_asns[~stub],
            simplex=np.concatenate((self.simplex_asns, self.full_asns[stub])),
        )

    def union(self, other: "Deployment") -> "Deployment":
        full = _asn_array(np.concatenate((self.full_asns, other.full_asns)))
        simplex = _asn_array(np.concatenate((self.simplex_asns, other.simplex_asns)))
        return Deployment(full=full, simplex=simplex[~_held(simplex, full)])


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
    return frozenset(_stub_array(graph, _rows(graph, isps)).tolist())


def _rows(graph: ASGraph, isps: Iterable[int]) -> np.ndarray:
    """The dense indices of ``isps``; ``KeyError`` for one not in the
    graph."""
    isps = np.fromiter(isps, np.int64)
    rows = graph.indices(isps)
    if (rows < 0).any():
        raise KeyError(isps[rows < 0][0].item())
    return rows


def _stub_array(graph: ASGraph, rows: np.ndarray) -> np.ndarray:
    """The stub customers of the ASes at dense indices ``rows``, as a
    sorted ASN array."""
    start, cust_start, node = graph.adj_start, graph.cust_start, graph.adj_node
    customers = np.concatenate(
        [node[cust_start[i] : start[i + 1]] for i in rows.tolist()] or [node[:0]]
    )
    stubs = customers[cust_start[customers] == start[customers + 1]]
    return _asn_array(graph.asn_of[stubs])


def _isp_step(
    graph: ASGraph,
    label: str,
    isps: Sequence[int],
    extra: Iterable[int] = (),
    simplex_stubs: bool = False,
    stubs_by_isp: dict[int, np.ndarray] | None = None,
) -> RolloutStep:
    """Build 'these ISPs + their stubs (+ extras)' as a rollout step.

    Every AS :func:`_stub_array` adds is a stub by construction, so only
    the ISPs and extras themselves are tested for customers: that
    settles the member set, the non-stub count and the simplex split at
    once.  A rollout's steps share one ``stubs_by_isp`` (ISP → its stub
    customers): their ISP sets are nested, so each ISP's customers are
    walked once a rollout, not once a step.
    """
    isp_set = _asn_array((*isps, *extra))
    rows = _rows(graph, isp_set)
    is_stub = graph.cust_start[rows] == graph.adj_start[rows + 1]
    memo = {} if stubs_by_isp is None else stubs_by_isp
    for isp, row in zip(isp_set.tolist(), rows.tolist()):
        if isp not in memo:
            memo[isp] = _stub_array(graph, np.array([row]))
    stubs = np.concatenate([isp_set[is_stub], *map(memo.__getitem__, isp_set.tolist())])
    if simplex_stubs:
        deployment = Deployment(full=isp_set[~is_stub], simplex=stubs)
    else:
        deployment = Deployment.of(np.concatenate((isp_set, stubs)))
    return RolloutStep(
        label=label,
        deployment=deployment,
        non_stub_count=int(np.count_nonzero(~is_stub)),
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
    stubs_by_isp: dict[int, np.ndarray] | None = None,
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
        stubs_by_isp: the ISP → stub-customers memo of
            :func:`_isp_step`; pass one dict to several rollouts over
            the same graph (full and simplex) to walk each ISP's
            customers once for all of them.
    """
    t1 = tiers.members(Tier.TIER1)
    t2 = tiers.members(Tier.TIER2)
    t2_ranked = sorted(t2, key=lambda a: (-graph.customer_degree(a), a))
    extra = tiers.members(Tier.CP) if include_cps else ()
    if stubs_by_isp is None:
        stubs_by_isp = {}
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
    (:func:`repro.core.jobs.jobs_happiness_counts`).
    """
    t1 = tiers.members(Tier.TIER1)
    t2 = tiers.members(Tier.TIER2)
    t2_ranked = sorted(t2, key=lambda a: (-graph.customer_degree(a), a))
    extra = tiers.members(Tier.CP) if include_cps else ()
    suffix = "+CP" if include_cps else ""
    stubs_by_isp: dict[int, np.ndarray] = {}
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
    stubs_by_isp: dict[int, np.ndarray] = {}
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
