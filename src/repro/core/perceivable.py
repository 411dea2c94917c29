"""Perceivable-route closures (Definition B.1 of the paper).

A route is *perceivable* at an AS if it could propagate there under the
export rule ``Ex`` — independent of anybody's route *selection*.  The
partition framework of Section 4.3 classifies ASes by which endpoints
(the legitimate destination ``d`` or the attacker ``m``) they have
perceivable routes of each LP class to:

* ``v`` has a perceivable **customer** route to ``x`` iff some customer
  of ``v`` is ``x`` or itself has a perceivable customer route to ``x``;
* ``v`` has a perceivable **peer** route to ``x`` iff some peer of ``v``
  is ``x`` or has a perceivable customer route to ``x`` (``Ex``: only
  customer routes cross a peering edge);
* ``v`` has a perceivable **provider** route to ``x`` iff some provider
  of ``v`` is ``x`` or has a perceivable route of *any* class to ``x``
  (providers export everything to customers).

Legitimate closures avoid the attacker (it never forwards legitimate
routes while attacking) and attacked closures avoid the destination (it
never forwards the bogus route), matching Observations E.3/E.4.

The closures do not track per-AS loop freedom: an AS whose only
downward path from the customer cone passes through itself is still
included in the provider closure.  This makes the closures a slight
*over*-approximation of Definition B.1's simple-route sets — harmless
for their one consumer, the security-1st classifier, which already
treats nearly everything as protectable (Appendix E.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from .context import RoutingContext, _as_context


@dataclass(frozen=True)
class ClassReach:
    """ASes with a perceivable route of each class to a fixed endpoint."""

    endpoint: int
    customer: frozenset[int]
    peer: frozenset[int]
    provider: frozenset[int]

    def by_class(self, route_class: RouteClass) -> frozenset[int]:
        if route_class is RouteClass.CUSTOMER:
            return self.customer
        if route_class is RouteClass.PEER:
            return self.peer
        return self.provider

    def any(self) -> frozenset[int]:
        """ASes with a perceivable route of any class."""
        return self.customer | self.peer | self.provider

    def __contains__(self, asn: int) -> bool:
        return (
            asn in self.customer or asn in self.peer or asn in self.provider
        )


def perceivable_closures(
    topology: ASGraph | RoutingContext,
    endpoint: int,
    avoid: int | None = None,
) -> ClassReach:
    """Compute the per-class perceivable-route closures toward ``endpoint``.

    Runs in the routing context's dense index space: membership flags
    live in flat bytearrays (one byte per AS) rather than hash sets, and
    the per-relationship index adjacency replaces dict lookups, which
    makes the closures cheap enough to evaluate per attack pair at
    scale.  ASNs only reappear in the returned frozensets.

    Args:
        topology: the AS graph or a prebuilt routing context.
        endpoint: the root the routes lead to (``d`` or ``m``).
        avoid: an AS routes may never pass through (the other root).

    Returns:
        A :class:`ClassReach`; the roots themselves are excluded.
    """
    ctx = _as_context(topology)
    end_i = ctx.index_of.get(endpoint)
    if end_i is None:
        raise ValueError(f"endpoint AS {endpoint} not in graph")
    n = ctx.n
    avoid_i = ctx.index_of.get(avoid, -1) if avoid is not None else -1
    excluded = bytearray(n)
    excluded[end_i] = 1
    if avoid_i >= 0:
        excluded[avoid_i] = 1
    providers_idx = ctx.providers_idx
    peers_idx = ctx.peers_idx
    customers_idx = ctx.customers_idx

    # Customer closure: BFS upward from the endpoint along c2p edges.
    in_customer = bytearray(n)
    customer: list[int] = []
    queue = deque((end_i,))
    while queue:
        u = queue.popleft()
        for p in providers_idx[u]:
            if not in_customer[p] and not excluded[p]:
                in_customer[p] = 1
                customer.append(p)
                queue.append(p)

    # Peer closure: one peering hop off the customer closure (or endpoint).
    in_peer = bytearray(n)
    peer: list[int] = []
    for u in customer + [end_i]:
        for q in peers_idx[u]:
            if not in_peer[q] and not excluded[q]:
                in_peer[q] = 1
                peer.append(q)

    # Provider closure: downward propagation from any reachable AS.
    in_provider = bytearray(n)
    provider: list[int] = []
    queue = deque(customer)
    queue.extend(peer)
    queue.append(end_i)
    while queue:
        u = queue.popleft()
        for c in customers_idx[u]:
            if not in_provider[c] and not excluded[c]:
                in_provider[c] = 1
                provider.append(c)
                queue.append(c)
    asn_of = ctx.asns
    return ClassReach(
        endpoint=endpoint,
        customer=frozenset(asn_of[i] for i in customer),
        peer=frozenset(asn_of[i] for i in peer),
        provider=frozenset(asn_of[i] for i in provider),
    )


@dataclass(frozen=True)
class AttackClosures:
    """Both closures for one attacker/destination pair."""

    legitimate: ClassReach
    attacked: ClassReach


def attack_closures(
    topology: ASGraph | RoutingContext, attacker: int, destination: int
) -> AttackClosures:
    """Legitimate (to ``d``, avoiding ``m``) and attacked closures."""
    ctx = _as_context(topology)
    return AttackClosures(
        legitimate=perceivable_closures(ctx, destination, avoid=attacker),
        attacked=perceivable_closures(ctx, attacker, avoid=destination),
    )
