"""The annotated AS-level topology graph.

``ASGraph`` is ``G = (V, E)`` of Section 2.2 of the paper, every edge
annotated customer-to-provider or peer-to-peer: CSR arrays over dense
indices ``0..n-1`` in sorted-ASN order (index tiebreaks are ASN
tiebreaks), built once by :func:`graph_from_edges` and never changed.
The routing context (:class:`repro.core.context.RoutingContext`)
adopts the arrays as they are; everything else reads the same object.

Example:
    >>> g = graph_from_edges(customer_provider=[(2, 1), (3, 1)], peerings=[(2, 3)])
    >>> g
    ASGraph(|V|=3, c2p=2, p2p=1)
    >>> sorted(g.customers(1)), sorted(g.peers(2)), g.is_stub(2)
    ([2, 3], [3], True)
    >>> g.relationship(1, 2), g.has_edge(2, 3), g.component_count()
    (<Relationship.CUSTOMER: 'customer'>, True, 1)
    >>> g.index(3), g.indices([3, 7, 1]).tolist()  # -1: not in the graph
    (2, [2, -1, 0])
    >>> g.adj_start.tolist(), g.adj_node.tolist()  # rows: providers, peers, customers
    ([0, 2, 4, 6], [1, 2, 0, 2, 0, 1])
    >>> graph_from_edges(customer_provider=[(2, 1)], peerings=[(1, 2)])
    Traceback (most recent call last):
    ...
    repro.topology.graph.TopologyError: edge 1-2 already exists with some annotation
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

import numpy as np

from .relationships import Relationship, RouteClass

#: Per row group (providers, peers, customers): the LP class the
#: neighbor assigns to a route learned from the row's AS.
_GROUP_CLASS = np.array(
    [RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER], np.uint8
)
#: The arrays a graph is, in its constructor's order.
_ARRAYS = ("asn_of", "adj_start", "peer_start", "cust_start", "adj_node", "adj_class")
#: Per slot class (``RouteClass`` value): the neighbor's relationship
#: seen from the row's AS.
_CLASS_RELATIONSHIP = (Relationship.PROVIDER, Relationship.PEER, Relationship.CUSTOMER)


class TopologyError(ValueError):
    """Raised when edge lists would make a graph break its invariants."""


class ASGraph:
    """Frozen AS graph with business-relationship edge annotations.

    Built by :func:`graph_from_edges`, from its arrays in
    :data:`_ARRAYS` order.  They are read-only:

    * ``asn_of`` — int64, the sorted ASNs: an AS's dense index is its
      position here (:meth:`index`, :meth:`indices`);
    * ``adj_start`` — int64, length ``n + 1``; row ``u`` is the slots
      ``adj_start[u]:adj_start[u + 1]``;
    * ``peer_start`` / ``cust_start`` — int64, length ``n``; where row
      ``u``'s peers and customers begin;
    * ``adj_node`` — int64 neighbor index of each slot;
    * ``adj_class`` — uint8 LP class the neighbor assigns to a route
      learned from ``u`` (``CUSTOMER`` on a provider slot, ``PEER``,
      ``PROVIDER`` on a customer slot).
    """

    __slots__ = (*_ARRAYS, "_views")

    def __init__(self, *arrays: np.ndarray) -> None:
        for name, array in zip(_ARRAYS, arrays, strict=True):
            array.flags.writeable = False
            setattr(self, name, array)
        #: memoryviews of the arrays, for the per-AS reads: indexing one
        #: gives a python int, a third of a numpy scalar read's cost.
        self._views = tuple(map(memoryview, arrays))

    def __reduce__(self):
        return ASGraph, tuple(getattr(self, name) for name in _ARRAYS)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def index(self, asn: int) -> int:
        """The dense index of ``asn``; -1 if it is not in the graph.  A
        bisection of :attr:`asn_of`, for per-pair callers: a per-AS loop
        takes :meth:`indices` or iterates dense indices instead."""
        asn_of = self._views[0]
        try:
            i = bisect_left(asn_of, asn)
            return i if i < len(asn_of) and asn_of[i] == asn else -1
        except TypeError:  # not a number: no AS has it
            return -1

    def indices(self, asns: Iterable[int]) -> np.ndarray:
        """The dense index of each of ``asns`` (int64; -1 for an ASN not
        in the graph)."""
        asns = np.asarray(asns if isinstance(asns, np.ndarray) else list(asns), np.int64)
        asn_of = self.asn_of
        at = np.searchsorted(asn_of, asns)
        found = at < len(asn_of)
        found[found] = asn_of[at[found]] == asns[found]
        return np.where(found, at, -1)

    def _at(self, asn: int) -> int:
        """:meth:`index`, with ``KeyError`` for an AS not in the graph."""
        i = self.index(asn)
        if i < 0:
            raise KeyError(asn)
        return i

    def __contains__(self, asn: int) -> bool:
        return self.index(asn) >= 0

    def __len__(self) -> int:
        return len(self.asn_of)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)

    @property
    def asns(self) -> list[int]:
        """All ASNs, sorted (a fresh list)."""
        return self.asn_of.tolist()

    @property
    def asn_view(self) -> memoryview:
        """:attr:`asn_of` as a memoryview, for per-AS reads: indexing it
        gives the ASN at a dense index as a python int."""
        return self._views[0]

    def _row(self, asn: int) -> tuple[int, int, int, int]:
        """Row bounds of ``asn``: start, peers' start, customers' start,
        end (``KeyError`` for an AS not in the graph)."""
        i = self._at(asn)
        _, start, peers, customers, _, _ = self._views
        return start[i], peers[i], customers[i], start[i + 1]

    def _asns_at(self, lo: int, hi: int) -> frozenset[int]:
        asn_of, _, _, _, node, _ = self._views
        return frozenset(map(asn_of.__getitem__, node[lo:hi]))

    def providers(self, asn: int) -> frozenset[int]:
        """ASes that ``asn`` buys transit from."""
        start, peers, _, _ = self._row(asn)
        return self._asns_at(start, peers)

    def customers(self, asn: int) -> frozenset[int]:
        """ASes that buy transit from ``asn``."""
        _, _, customers, end = self._row(asn)
        return self._asns_at(customers, end)

    def peers(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        _, peers, customers, _ = self._row(asn)
        return self._asns_at(peers, customers)

    def neighbors(self, asn: int) -> frozenset[int]:
        """All neighbors of ``asn`` regardless of relationship."""
        i = self._at(asn)
        asn_of, start, _, _, node, _ = self._views
        return frozenset(map(asn_of.__getitem__, node[start[i] : start[i + 1]]))

    def _class_of(self, asn: int, neighbor: int) -> int | None:
        """The ``adj_class`` of ``neighbor``'s slot in ``asn``'s row; None
        if no edge joins them (``KeyError`` for an ``asn`` not in the
        graph)."""
        i = self._at(asn)
        _, start, _, _, node, cls = self._views
        lo = start[i]
        row = node[lo : start[i + 1]].tolist()
        j = self.index(neighbor)
        return cls[lo + row.index(j)] if j in row else None

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """Relationship of ``neighbor`` from ``asn``'s point of view."""
        route_class = self._class_of(asn, neighbor)
        if route_class is None:
            raise TopologyError(f"AS {neighbor} is not a neighbor of AS {asn}")
        return _CLASS_RELATIONSHIP[route_class]

    def has_edge(self, a: int, b: int) -> bool:
        """True if any edge (of any annotation) connects ``a`` and ``b``."""
        return a in self and self._class_of(a, b) is not None

    # Degree helpers --------------------------------------------------
    def customer_degree(self, asn: int) -> int:
        _, _, customers, end = self._row(asn)
        return end - customers

    def provider_degree(self, asn: int) -> int:
        start, peers, _, _ = self._row(asn)
        return peers - start

    def peer_degree(self, asn: int) -> int:
        _, peers, customers, _ = self._row(asn)
        return customers - peers

    def degree(self, asn: int) -> int:
        start, _, _, end = self._row(asn)
        return end - start

    def is_stub(self, asn: int) -> bool:
        """True if the AS has no customers (it never transits traffic)."""
        i = self._at(asn)
        _, start, _, customers, _, _ = self._views
        return customers[i] == start[i + 1]

    # Edge counts -----------------------------------------------------
    @property
    def num_customer_provider_links(self) -> int:
        return int((self.peer_start - self.adj_start[:-1]).sum())

    @property
    def num_peer_links(self) -> int:
        return int((self.cust_start - self.peer_start).sum()) // 2

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Iterate ``(a, b, relationship-of-b-seen-from-a)`` once per edge,
        by ``a``, then ``b``: customer-provider edges as ``(customer,
        provider, PROVIDER)``, peerings as ``(min, max, PEER)``."""
        src = self.slot_rows()
        cls = self.adj_class
        once = (cls == RouteClass.CUSTOMER) | (
            (cls == RouteClass.PEER) & (self.adj_node > src)
        )
        asn_of = self.asn_of
        return zip(
            asn_of[src[once]].tolist(),
            asn_of[self.adj_node[once]].tolist(),
            map(_CLASS_RELATIONSHIP.__getitem__, cls[once].tolist()),
        )

    def edge_lists(self) -> tuple[np.ndarray, np.ndarray]:
        """``(customer_provider, peerings)`` as :func:`graph_from_edges`
        takes them: ``(m, 2)`` int64 ASN arrays, the ``(customer,
        provider)`` pairs and the ``(min, max)`` peer pairs, each sorted."""
        src = self.slot_rows()
        cls, node = self.adj_class, self.adj_node
        c2p = cls == RouteClass.CUSTOMER
        p2p = (cls == RouteClass.PEER) & (node > src)
        return tuple(
            self.asn_of[np.stack([src[sel], node[sel]], axis=1)] for sel in (c2p, p2p)
        )

    def slot_rows(self) -> np.ndarray:
        """The row (dense index) of every slot."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.adj_start))

    # ------------------------------------------------------------------
    # Structure checks
    # ------------------------------------------------------------------
    def _component_labels(self) -> np.ndarray:
        """Per AS, the lowest index in its connected component (edge
        annotations ignored)."""
        n = len(self)
        start, node = self.adj_start, self.adj_node
        rows = np.flatnonzero(np.diff(start))
        # Every AS takes its neighbors' lowest label, then follows
        # labels to a fixed point; labels only fall, and stop once each
        # component carries the lowest index in it.
        label = np.arange(n, dtype=np.int64)
        while True:
            low = label.copy()
            if len(node):
                nearest = np.minimum.reduceat(label[node], start[rows])
                low[rows] = np.minimum(low[rows], nearest)
            while not np.array_equal(jumped := low[low], low):
                low = jumped
            if np.array_equal(low, label):
                return label
            label = low

    def component_count(self) -> int:
        """The number of connected components: the ASes that are the
        lowest index in theirs."""
        label = self._component_labels()
        return int(np.count_nonzero(label == np.arange(len(label))))

    def connected_components(self) -> list[set[int]]:
        """Connected components (ignoring edge annotations), largest
        first; equal sizes in order of their lowest ASN."""
        label = self._component_labels()
        roots, sizes = np.unique(label, return_counts=True)
        by_label = self.asn_of[np.argsort(label, kind="stable")]
        members = np.split(by_label, np.cumsum(sizes)[:-1])
        order = np.lexsort((roots, -sizes))
        return [set(members[k].tolist()) for k in order.tolist()]

    def peel_layers(self) -> list[np.ndarray]:
        """Kahn's count, a layer at a time: the dense indices of the ASes
        with no customer, then of those whose customers have all peeled,
        and on, so every AS sits in a higher layer than its customers.
        Each AS left out has a customer left: they are exactly the
        customer→provider cycles and the ASes above them."""
        provider_slot = self.adj_class == RouteClass.CUSTOMER
        customer = self.slot_rows()[provider_slot]
        provider = self.adj_node[provider_slot]
        left = np.bincount(provider, minlength=len(self))
        layer = left == 0
        peeled = layer.copy()
        layers = []
        while layer.any():
            layers.append(np.flatnonzero(layer))
            left -= np.bincount(provider[layer[customer]], minlength=len(self))
            layer = (left == 0) & ~peeled
            peeled |= layer
        return layers

    def find_customer_provider_cycle(self) -> list[int] | None:
        """A cycle in the customer→provider digraph, if any.

        A sane AS-level topology is acyclic in its customer-provider
        hierarchy (nobody is transitively their own provider).  Returns a
        cycle as a list of ASNs, each a customer of the next and the
        last of the first, from its lowest ASN; None if the hierarchy is
        a DAG.  The cycle is the one met walking from the lowest
        unpeeled AS (:meth:`peel_layers`) to its lowest unpeeled
        customer, and on.
        """
        unpeeled = np.ones(len(self), np.bool_)
        for layer in self.peel_layers():
            unpeeled[layer] = False
        if not unpeeled.any():
            return None
        node, cust_start, end = self.adj_node, self.cust_start, self.adj_start[1:]
        walk = [int(np.argmax(unpeeled))]
        seen = {walk[0]: 0}
        while True:
            u = walk[-1]
            nxt = next(c for c in node[cust_start[u] : end[u]].tolist() if unpeeled[c])
            if nxt in seen:
                cycle = self.asn_of[walk[seen[nxt]:][::-1]].tolist()
                low = cycle.index(min(cycle))
                return cycle[low:] + cycle[:low]
            seen[nxt] = len(walk)
            walk.append(nxt)

    def validate(self) -> None:
        """Raise :class:`TopologyError` if the customer-provider
        hierarchy has a cycle."""
        cycle = self.find_customer_provider_cycle()
        if cycle is not None:
            raise TopologyError(f"customer-provider cycle: {cycle}")

    def __repr__(self) -> str:
        return (
            f"ASGraph(|V|={len(self)}, "
            f"c2p={self.num_customer_provider_links}, "
            f"p2p={self.num_peer_links})"
        )


def _asn_array(values: Iterable, width: int) -> np.ndarray:
    """``values`` — rows of ``width`` ASNs, or bare ASNs if ``width``
    is 1 — as an int64 array; ``TopologyError`` naming the first value
    with an ASN that is not a non-negative int."""
    values = values if isinstance(values, np.ndarray) else list(values)
    shape = (len(values), width) if width > 1 else (len(values),)
    array = np.asarray(values)
    if array.dtype.kind == "i" and array.shape == shape:
        negative = array < 0
        bad = np.flatnonzero(negative.any(axis=1) if width > 1 else negative)
        if not len(bad):
            return array.astype(np.int64, copy=False)
        values = array[bad[:1]].tolist()
    for value in values:
        row = tuple(value) if width > 1 else (value,)
        if len(row) != width or not all(isinstance(x, int) and x >= 0 for x in row):
            raise TopologyError(
                f"ASN must be a non-negative int, got {row if width > 1 else value!r}"
            )
    return np.array(values, np.int64).reshape(shape)


def graph_from_edges(
    customer_provider: Iterable[tuple[int, int]] = (),
    peerings: Iterable[tuple[int, int]] = (),
    asns: Iterable[int] = (),
) -> ASGraph:
    """Build the graph of these edges.

    Args:
        customer_provider: ``(customer, provider)`` pairs.
        peerings: ``(a, b)`` peer pairs.
        asns: ASes to include beyond the edges' endpoints (ASes with no
            edge at all).

    Raises:
        TopologyError: naming the first offending pair — an ASN that is
            not a non-negative int, a self-loop, or a second edge
            between two ASes (either orientation, any annotation;
            customer-provider pairs come before peerings).
    """
    c2p = _asn_array(customer_provider, 2)
    p2p = _asn_array(peerings, 2)
    extra = _asn_array(asns, 1)
    for pairs in (c2p, p2p):
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if len(loops):
            a, b = pairs[loops[0]].tolist()
            raise TopologyError(f"self-loop {a}-{b}")

    m, e = len(c2p), len(c2p) + len(p2p)
    parts = (c2p.ravel(), p2p.ravel(), extra)
    top = max(part.max(initial=0) for part in parts)
    # ASNs are 32-bit (RFC 6793): as uint32, the sorted copy takes half
    # the bytes.  A bisection finds each endpoint's index in a fraction
    # of what ``np.unique``'s inverse allocates (and ``np.unique`` alone
    # imports ``numpy.ma``, 0.7 MB, to ask whether the array is masked).
    ends = np.concatenate(
        parts, dtype=np.uint32 if top < 2**32 else np.int64, casting="unsafe"
    )
    asn_of = np.sort(ends)
    first = np.ones(len(asn_of), np.bool_)  # an ASN's first sorted copy
    np.not_equal(asn_of[1:], asn_of[:-1], out=first[1:])
    asn_of = asn_of[first]
    del first
    index = np.searchsorted(asn_of, ends)
    del ends
    asn_of = asn_of.astype(np.int64)
    n = len(asn_of)
    # Every edge's endpoints (c2p rows first), as views of ``index``.
    u, v = index[0 : 2 * e : 2], index[1 : 2 * e : 2]
    cust, prov, left, right = u[:m], v[:m], u[m:], v[m:]
    # Per slot group: the rows, g = 0/1/2 for providers/peers/customers,
    # and the neighbors, one slot per edge.
    groups = ((cust, 0, prov), (left, 1, right), (right, 1, left), (prov, 2, cust))
    slot = np.empty(sum(len(rows) for rows, _, _ in groups), np.int64)
    # Until the edges are known distinct, the slots' first part holds
    # each edge's pair key min·n + max = min·(n - 1) + u + v.
    key = slot[:e]
    np.minimum(u, v, out=key)
    key *= n - 1
    key += u
    key += v
    key.sort()
    if (key[1:] == key[:-1]).any():
        key = np.minimum(u, v) * n + np.maximum(u, v)
        # Stable-sorted, the later of two equal pairs is the duplicate.
        order = np.argsort(key, kind="stable")
        first = order[1:][key[order[1:]] == key[order[:-1]]].min()
        a, b = (c2p[first] if first < m else p2p[first - m]).tolist()
        raise TopologyError(f"edge {a}-{b} already exists with some annotation")

    # One sort of the packed keys (row·3 + g)·n + neighbor, written in
    # place, lays every row out; a bincount a group counts its slots.
    counts = np.zeros((n, 3), np.int64)
    at = 0
    for rows, group, cols in groups:
        packed = slot[at : at + len(rows)]
        np.multiply(rows, 3 * n, out=packed)
        packed += cols
        packed += group * n
        counts[:, group] += np.bincount(rows, minlength=n)
        at += len(rows)
    slot.sort()
    np.remainder(slot, max(n, 1), out=slot)
    adj_start = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
    peer_start = adj_start[:-1] + counts[:, 0]
    return ASGraph(
        asn_of,
        adj_start,
        peer_start,
        peer_start + counts[:, 1],
        slot,
        np.repeat(np.tile(_GROUP_CLASS, n), counts.ravel()),
    )
