"""Perceivable routes (Definition B.1), one attack pair at a time, on
dense indices: the closure every partition of :mod:`repro.core.partitions`
reads.

A route is *perceivable* at an AS if the export rule ``Ex`` lets it
propagate there, whatever anybody selects.  For one pair ``(m, d)``,
:func:`perceivable_closure` seeds both roots and walks the context's
relationship rows in three phases, one per LP class:

* **customer** routes, bottom-up in peel order (every AS after its
  customers): from a customer that is a root or has a customer route;
* **peer** routes, one hop: from a peer that is a root or has a
  customer route (only customer routes cross a peering edge);
* **provider** routes, top-down: from a provider that is a root or has
  a route of any class.

Each phase records per AS which roots its routes of that class lead to
(bit 1: ``d``, bit 2: ``m``).  A root forwards only its own route: the
attacker drops legitimate routes, ``d`` the bogus one.  Unfiltered, a
class row over-approximates Definition B.1's simple routes (a provider
route may come back down through the AS itself), but the union of the
rows does not: a valley-free walk to a root shortcuts to a path.

With ``route_class`` (each AS's ``S = ∅`` class, which security 2nd
keeps for every ``S``), an AS joins its own class's phase only, so its
row holds just the routes it may use under some ``S``.  In walk order
the closure then carries, per AS, the most hops of any route to ``d``
and the fewest of any route to ``m`` it may hold, and marks it *safe*
when some offer is ``d`` itself, or comes from a safe AS whose longest
route to ``d``, one hop on, is shorter than every offer of a route to
``m``.  A safe AS routes only to ``d`` for every ``S``: a secure route
never leads to ``m``, and without one it takes its shortest route,
which is that offer or shorter, and all its offers of that length come
from ASes with no route to ``m`` that short.  The same holds under
``LPk``, whose buckets never rank a longer route of a class above a
shorter one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..topology.graph import ASGraph
from .context import RoutingContext, _as_context

#: more hops than any route has
_FAR = 1 << 30


class Closure(NamedTuple):
    """One pair's perceivable routes over dense indices."""

    #: ``(3, n)`` uint8, one row per :class:`~repro.topology.
    #: relationships.RouteClass`: bit 1 if the AS has a route of that
    #: class to ``d``, bit 2 if to ``m``; the roots' columns are 0.
    reach: np.ndarray
    #: bool per AS, with ``route_class`` only: routes only to ``d``
    #: for every ``S`` (the roots are False).
    safe: np.ndarray | None


def _walk(ctx: RoutingContext) -> tuple:
    """Per phase, its steps in walk order: ``(nodes, offerers,
    starts)``, the ASes one step computes at once, the concatenation of
    their relationship row slices and where each AS's slice starts.  A
    step is a peel layer (customer phase bottom-up, provider phase
    top-down: every AS is in a higher layer than its customers) or, for
    the peer phase, every AS; an AS with an empty slice is left out."""
    walk = ctx._walk
    if walk is None:
        g = ctx.graph
        layers = g.peel_layers()
        if sum(map(len, layers)) < ctx.n:
            g.validate()
        head, peer, cust, end = g.adj_start[:-1], g.peer_start, g.cust_start, g.adj_start[1:]

        def step(nodes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
            nodes = nodes[hi[nodes] > lo[nodes]]
            size = hi[nodes] - lo[nodes]
            starts = np.cumsum(size) - size
            slots = np.repeat(lo[nodes] - starts, size) + np.arange(size.sum())
            return nodes, g.adj_node[slots], starts

        phases = (
            [step(layer, cust, end) for layer in layers],
            [step(np.arange(ctx.n), peer, cust)],
            [step(layer, head, peer) for layer in reversed(layers)],
        )
        walk = ctx._walk = tuple([s for s in steps if len(s[0])] for steps in phases)
    return walk


def perceivable_closure(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    route_class: np.ndarray | None = None,
) -> Closure:
    """The perceivable routes of every AS to ``d`` and to ``m``.

    Args:
        topology: the AS graph or a prebuilt routing context.
        attacker: the attacking AS ``m``.
        destination: the victim AS ``d``.
        route_class: per dense index, the class of the AS's ``S = ∅``
            route (any other value: it has none), to admit each AS to
            that class's phase only; None admits every AS to all three.

    Raises:
        ValueError: for a pair outside the graph or ``m == d``.
        TopologyError: if the customer-provider hierarchy has a cycle.
    """
    ctx = _as_context(topology)
    dest_i, att_i = ctx._check_pair(destination, attacker)
    n = ctx.n
    roots = [dest_i, att_i]
    if route_class is None:
        admit = np.ones((3, n), np.bool_)
    else:
        admit = np.asarray(route_class) == np.arange(3)[:, None]
    admit[:, roots] = False
    # rows 0-2 per class; row 3 every class: what an AS offers customers
    reach = np.zeros((4, n), np.uint8)
    reach[0, roots] = reach[3, roots] = (1, 2)
    dmax = np.full(n, -1, np.int64)
    mmin = np.full(n, _FAR, np.int64)
    dsafe = np.full(n, _FAR, np.int64)  # dmax of the safe ASes
    dmax[dest_i] = dsafe[dest_i] = 0
    mmin[att_i] = 1  # "m d": one hop beyond m
    for c, steps in enumerate(_walk(ctx)):
        offered = reach[3 if c == 2 else 0]
        for nodes, offerers, starts in steps:
            sel = admit[c, nodes]
            if not sel.any():
                continue
            r = offered[offerers]
            none = r == 0
            dl = np.maximum.reduceat(np.where(none, -1, dmax[offerers]), starts)[sel]
            ml = np.minimum.reduceat(np.where(none, _FAR, mmin[offerers]), starts)[sel]
            sl = np.minimum.reduceat(np.where(none, _FAR, dsafe[offerers]), starts)[sel]
            v = nodes[sel]
            reach[c, v] = np.bitwise_or.reduceat(r, starts)[sel]
            reach[3, v] |= reach[c, v]
            dmax[v] = np.where(dl >= 0, dl + 1, -1)
            mmin[v] = np.minimum(ml + 1, _FAR)
            dsafe[v] = np.where(sl < ml, dl + 1, _FAR)
    reach[0, roots] = 0
    safe = None
    if route_class is not None:
        safe = dsafe < _FAR
        safe[dest_i] = False
    return Closure(reach[:3], safe)
