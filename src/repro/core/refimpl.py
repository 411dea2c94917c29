"""Reference routing engine: the original dict-based implementation.

This is the seed repository's :mod:`repro.core.routing` kept verbatim
(modulo renames) after the flat-array rewrite.  It exists for two jobs:

* **differential testing** — ``tests/test_differential.py`` asserts the
  flat engine reproduces this engine AS-for-AS on random instances, so
  the rewrite is provably behavior-preserving;
* **benchmarking** — ``benchmarks/test_bench_core.py`` (``make
  bench-micro``) times this engine beside the flat one, and
  ``perfbench`` spot-checks every workload's results against it.

It allocates fresh dicts, heap tuples and a :class:`RouteInfo` per AS
per (attacker, destination) pair, which is exactly the cost profile the
flat engine removes.  Never use it on a hot path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from .attacks import DEFAULT_ATTACK, AttackStrategy, AttackerBaseline
from .deployment import Deployment
from .rank import BASELINE, RankKey, RankModel
from .routing import Reach, RouteInfo


class RefRoutingContext:
    """Preprocessed adjacency for fast repeated routing computations.

    Build once per graph; every entry of ``out_edges[u]`` is
    ``(v, route_class_for_v, v_is_customer_of_u)`` where
    ``route_class_for_v`` is the class v assigns to a route learned from
    u.  The context never mutates the graph.
    """

    __slots__ = ("graph", "out_edges", "asns", "providers_of", "customers_of", "peers_of")

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        self.asns: list[int] = graph.asns
        self.providers_of: dict[int, tuple[int, ...]] = {}
        self.customers_of: dict[int, tuple[int, ...]] = {}
        self.peers_of: dict[int, tuple[int, ...]] = {}
        out: dict[int, list[tuple[int, int, bool]]] = {a: [] for a in self.asns}
        for u in self.asns:
            providers = tuple(sorted(graph.providers(u)))
            peers = tuple(sorted(graph.peers(u)))
            customers = tuple(sorted(graph.customers(u)))
            self.providers_of[u] = providers
            self.customers_of[u] = customers
            self.peers_of[u] = peers
            for p in providers:
                # p sees a route via its customer u as a customer route.
                out[u].append((p, int(RouteClass.CUSTOMER), False))
            for q in peers:
                out[u].append((q, int(RouteClass.PEER), False))
            for c in customers:
                out[u].append((c, int(RouteClass.PROVIDER), True))
        self.out_edges: dict[int, tuple[tuple[int, int, bool], ...]] = {
            u: tuple(edges) for u, edges in out.items()
        }


@dataclass
class RefRoutingOutcome:
    """The stable state for one ``(destination, attacker, S, model)``.

    ASes with no route at all (possible on disconnected inputs) are
    absent from :attr:`routes`.
    """

    destination: int
    attacker: int | None
    deployment: Deployment
    model: RankModel
    routes: dict[int, RouteInfo]
    total_ases: int

    # -- source enumeration ------------------------------------------------
    @property
    def num_sources(self) -> int:
        """|V| minus the destination and (if present) the attacker."""
        return self.total_ases - (2 if self.attacker is not None else 1)

    def is_source(self, asn: int) -> bool:
        return asn != self.destination and asn != self.attacker

    def sources(self) -> Iterator[int]:
        """All fixed ASes other than the roots."""
        for asn in self.routes:
            if self.is_source(asn):
                yield asn

    # -- per-AS predicates ---------------------------------------------------
    def reaches(self, asn: int) -> Reach:
        info = self.routes.get(asn)
        return info.reaches if info is not None else Reach.NONE

    def happy_lower(self, asn: int) -> bool:
        """Happy under adversarial tiebreaking (all BPR routes legit)."""
        return self.reaches(asn) == Reach.DEST

    def happy_upper(self, asn: int) -> bool:
        """Happy under friendly tiebreaking (some BPR route is legit)."""
        return bool(self.reaches(asn) & Reach.DEST)

    def uses_secure_route(self, asn: int) -> bool:
        """True if the AS's best routes are secure (it validates them)."""
        info = self.routes.get(asn)
        return info is not None and info.secure

    # -- aggregate counts -----------------------------------------------------
    def count_happy(self) -> tuple[int, int]:
        """(lower bound, upper bound) on the number of happy sources."""
        lower = 0
        upper = 0
        for asn, info in self.routes.items():
            if not self.is_source(asn):
                continue
            if info.reaches == Reach.DEST:
                lower += 1
                upper += 1
            elif info.reaches & Reach.DEST:
                upper += 1
        return lower, upper

    def count_attacked(self) -> tuple[int, int]:
        """(lower, upper) bounds on sources routing to the attacker."""
        lower = 0
        upper = 0
        for asn, info in self.routes.items():
            if not self.is_source(asn):
                continue
            if info.reaches == Reach.ATTACKER:
                lower += 1
                upper += 1
            elif info.reaches & Reach.ATTACKER:
                upper += 1
        return lower, upper

    def count_secure_sources(self) -> int:
        """Sources whose best routes are secure."""
        return sum(
            1
            for asn, info in self.routes.items()
            if self.is_source(asn) and info.secure
        )

    # -- concrete (deterministic tiebreak) view -----------------------------
    def concrete_endpoint(self, asn: int) -> Reach:
        info = self.routes.get(asn)
        return info.endpoint if info is not None else Reach.NONE

    def concrete_path(self, asn: int) -> tuple[int, ...]:
        """The physical AS path under the deterministic tiebreak.

        For attacked routes the path ends at the attacker (where traffic
        actually terminates), not at the claimed destination.
        """
        if asn not in self.routes:
            return ()
        path = [asn]
        seen = {asn}
        cur = asn
        while True:
            info = self.routes[cur]
            if info.choice is None:
                return tuple(path)
            cur = info.choice
            if cur in seen:  # pragma: no cover - defended against, impossible
                raise RuntimeError(f"routing loop through AS {cur}")
            seen.add(cur)
            path.append(cur)


@dataclass
class _Candidate:
    """Best-so-far (pre-fixing) routes of an AS, merged across next hops."""

    key: RankKey
    route_class: int
    length: int
    next_hops: set[int] = field(default_factory=set)
    reaches: Reach = Reach.NONE
    wire_in: bool = True


def ref_compute_routing_outcome(
    topology: ASGraph | RefRoutingContext,
    destination: int,
    attacker: int | None = None,
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> RefRoutingOutcome:
    """Compute the unique stable routing state (Theorem 2.1).

    Args:
        topology: the AS graph, or a prebuilt :class:`RefRoutingContext`
            (build one when calling repeatedly on the same graph).
        destination: the victim AS ``d`` originating the prefix.
        attacker: the attacking AS ``m``; None for normal conditions.
        deployment: the secure set ``S``; defaults to ``S = ∅``.
        model: the routing-policy model; defaults to the baseline
            (origin authentication only).
        attack: the attacker strategy (:mod:`repro.core.attacks`);
            defaults to the paper's Section 3.1 one-hop hijack — ``m``
            announces the bogus path ``"m d"`` via legacy BGP to all
            its neighbors.

    Returns:
        A :class:`RefRoutingOutcome`.
    """
    context = topology if isinstance(topology, RefRoutingContext) else RefRoutingContext(topology)
    deployment = deployment or Deployment.empty()
    graph = context.graph
    if destination not in graph:
        raise ValueError(f"destination AS {destination} not in graph")
    if attacker is not None:
        if attacker not in graph:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if attacker == destination:
            raise ValueError("attacker and destination must differ")

    signing = deployment.signing_members
    ranking = deployment.ranking_members
    out_edges = context.out_edges
    key_of = model.key

    dest_signed = destination in signing
    resolved = None
    if attacker is not None:
        baseline = None
        if attack.needs_baseline:
            base = ref_compute_routing_outcome(
                context, destination, None, deployment, model
            )
            base_info = base.routes.get(attacker)
            baseline = (
                AttackerBaseline(
                    has_route=True,
                    length=base_info.length,
                    wire_secure=base_info.wire_secure,
                )
                if base_info is not None
                else AttackerBaseline(has_route=False)
            )
        resolved = attack.resolve(dest_signed=dest_signed, baseline=baseline)

    routes: dict[int, RouteInfo] = {}
    candidates: dict[int, _Candidate] = {}
    heap: list[tuple[RankKey, int]] = []

    routes[destination] = RouteInfo(
        route_class=None,
        length=0,
        key=None,
        next_hops=(),
        reaches=Reach.DEST,
        secure=dest_signed,
        wire_secure=dest_signed,
        choice=None,
        endpoint=Reach.DEST,
    )
    if attacker is not None:
        att_reach = Reach.ATTACKER if resolved.active else Reach.NONE
        routes[attacker] = RouteInfo(
            route_class=None,
            length=resolved.length,  # the claimed path (default: "m d")
            key=None,
            next_hops=(),
            reaches=att_reach,
            secure=False,
            # valid-looking attributes count as wire security for
            # recipients; the default legacy-BGP lie carries none.
            wire_secure=resolved.wire,
            choice=None,
            endpoint=att_reach,
        )

    def relax_from(u: int, info: RouteInfo, export_all: bool | None = None) -> None:
        """Offer u's fixed route to every neighbor Ex allows."""
        is_origin = info.key is None
        if export_all is None:
            exports_everywhere = is_origin or info.route_class is RouteClass.CUSTOMER
        else:
            exports_everywhere = export_all  # the attacker's export scope
        length = info.length + 1
        wire = info.wire_secure
        reaches = info.reaches
        for v, v_class, v_is_customer in out_edges[u]:
            if v in routes:
                continue
            if not (exports_everywhere or v_is_customer):
                continue
            secure_for_v = wire and v in ranking
            key = key_of(RouteClass(v_class), length, secure_for_v)
            cand = candidates.get(v)
            if cand is None or key < cand.key:
                cand = _Candidate(
                    key=key, route_class=v_class, length=length, wire_in=wire
                )
                cand.next_hops.add(u)
                cand.reaches = reaches
                candidates[v] = cand
                heapq.heappush(heap, (key, v))
            elif key == cand.key:
                cand.next_hops.add(u)
                cand.reaches |= reaches
                cand.wire_in = cand.wire_in and wire

    relax_from(destination, routes[destination])
    if attacker is not None and resolved.active:
        relax_from(attacker, routes[attacker], export_all=resolved.export_all)

    while heap:
        key, v = heapq.heappop(heap)
        if v in routes:
            continue
        cand = candidates[v]
        if key != cand.key:
            continue  # stale heap entry; a better candidate exists
        choice = min(cand.next_hops)
        info = RouteInfo(
            route_class=RouteClass(cand.route_class),
            length=cand.length,
            key=cand.key,
            next_hops=tuple(sorted(cand.next_hops)),
            reaches=cand.reaches,
            # "uses a secure route" is only meaningful when the model
            # ranks security: a baseline-model AS treats every route as
            # insecure even if the announcement arrived signed.
            secure=cand.wire_in and v in ranking and model.uses_security,
            wire_secure=cand.wire_in and v in signing,
            choice=choice,
            endpoint=routes[choice].endpoint,
        )
        routes[v] = info
        del candidates[v]
        relax_from(v, info)

    return RefRoutingOutcome(
        destination=destination,
        attacker=attacker,
        deployment=deployment,
        model=model,
        routes=routes,
        total_ases=len(context.asns),
    )


def ref_normal_conditions(
    topology: ASGraph | RefRoutingContext,
    destination: int,
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
) -> RefRoutingOutcome:
    """Routing to ``destination`` when nobody attacks (m = ∅)."""
    return ref_compute_routing_outcome(
        topology, destination, attacker=None, deployment=deployment, model=model
    )
