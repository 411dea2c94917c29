"""The annotated AS-level topology graph.

``ASGraph`` stores, for every AS, the sets of its providers, customers and
peers.  It is the substrate every other module operates on: the routing
algorithms of :mod:`repro.core.routing`, the perceivable-route closures,
the tier classifier and the message-passing simulator all read (never
write) this structure.

The graph corresponds to ``G = (V, E)`` of Section 2.2 of the paper, with
every edge annotated customer-to-provider or peer-to-peer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .relationships import Relationship

#: The neighbor set of every AS with no neighbors of a kind: one shared
#: immutable object instead of an empty ``set`` per AS and kind (most
#: ASes are stubs, with no customers and often no peers).
_NO_NEIGHBORS: frozenset[int] = frozenset()


def _own(table: dict, asn: int) -> set[int]:
    """``asn``'s neighbor set in ``table``, made a real ``set`` of its
    own on the AS's first edge of that kind."""
    nbrs = table[asn]
    if not nbrs:
        nbrs = table[asn] = set()
    return nbrs


class TopologyError(ValueError):
    """Raised when an operation would corrupt the topology invariants."""


class ASGraph:
    """Undirected AS graph with business-relationship edge annotations.

    The three adjacency maps are exposed through read-only accessors;
    mutation goes through :meth:`add_as`, :meth:`add_customer_provider`,
    :meth:`add_peering` and :meth:`remove_edge` which maintain symmetry
    and reject conflicting or duplicate edges.  Every AS is a key of all
    three maps; one without neighbors of a kind maps to a shared empty
    ``frozenset``, so a stray in-place update raises instead of reaching
    every such AS.
    """

    __slots__ = ("_providers", "_customers", "_peers", "_index_cache")

    def __init__(self) -> None:
        self._providers: dict[int, set[int] | frozenset[int]] = {}
        self._customers: dict[int, set[int] | frozenset[int]] = {}
        self._peers: dict[int, set[int] | frozenset[int]] = {}
        self._index_cache: tuple[list[int], dict[int, int]] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_as(self, asn: int) -> None:
        """Add an AS with no links yet.  Adding twice is a no-op."""
        if not isinstance(asn, int) or asn < 0:
            raise TopologyError(f"ASN must be a non-negative int, got {asn!r}")
        if asn not in self._providers:
            self._providers[asn] = _NO_NEIGHBORS
            self._customers[asn] = _NO_NEIGHBORS
            self._peers[asn] = _NO_NEIGHBORS
            self._index_cache = None

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Add a customer-to-provider edge (``customer`` pays ``provider``)."""
        if customer == provider:
            raise TopologyError(f"self-loop on AS {customer}")
        providers, customers = self._providers, self._customers
        if customer not in providers:
            self.add_as(customer)
        if provider not in providers:
            self.add_as(provider)
        provs = providers[customer]
        if (
            provider in provs
            or provider in customers[customer]
            or provider in self._peers[customer]
        ):
            raise TopologyError(
                f"edge {customer}-{provider} already exists with some annotation"
            )
        # An AS's first edge of a kind replaces the shared empty set.
        if not provs:
            provs = providers[customer] = set()
        provs.add(provider)
        custs = customers[provider]
        if not custs:
            custs = customers[provider] = set()
        custs.add(customer)

    def add_peering(self, a: int, b: int) -> None:
        """Add a peer-to-peer edge between ``a`` and ``b``."""
        if a == b:
            raise TopologyError(f"self-loop on AS {a}")
        providers, peers = self._providers, self._peers
        if a not in providers:
            self.add_as(a)
        if b not in providers:
            self.add_as(b)
        peers_a = peers[a]
        if b in peers_a or b in providers[a] or b in self._customers[a]:
            raise TopologyError(f"edge {a}-{b} already exists with some annotation")
        if not peers_a:
            peers_a = peers[a] = set()
        peers_a.add(b)
        peers_b = peers[b]
        if not peers_b:
            peers_b = peers[b] = set()
        peers_b.add(a)

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the (unique) edge between ``a`` and ``b``."""
        if b in self._providers.get(a, ()):
            self._providers[a].discard(b)
            self._customers[b].discard(a)
        elif b in self._customers.get(a, ()):
            self._customers[a].discard(b)
            self._providers[b].discard(a)
        elif b in self._peers.get(a, ()):
            self._peers[a].discard(b)
            self._peers[b].discard(a)
        else:
            raise TopologyError(f"no edge {a}-{b} to remove")

    def remove_as(self, asn: int) -> None:
        """Remove an AS and all its edges."""
        if asn not in self._providers:
            raise TopologyError(f"AS {asn} not in graph")
        for p in list(self._providers[asn]):
            self.remove_edge(asn, p)
        for c in list(self._customers[asn]):
            self.remove_edge(asn, c)
        for q in list(self._peers[asn]):
            self.remove_edge(asn, q)
        del self._providers[asn]
        del self._customers[asn]
        del self._peers[asn]
        self._index_cache = None

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._providers

    def __len__(self) -> int:
        return len(self._providers)

    def __iter__(self) -> Iterator[int]:
        return iter(self._providers)

    @property
    def asns(self) -> list[int]:
        """All ASNs, sorted (deterministic iteration order)."""
        return list(self.dense_index()[0])

    def dense_index(self) -> tuple[list[int], dict[int, int]]:
        """Map ASNs onto contiguous indices ``0..n-1`` (sorted-ASN order).

        Returns ``(asn_of, index_of)`` where ``asn_of[i]`` is the ASN at
        dense index ``i`` and ``index_of`` is its inverse.  The tables
        are cached and invalidated when ASes are added or removed (edge
        changes leave the AS set — and hence the index — intact).  Flat
        per-AS buffers throughout the codebase (the routing engine's
        scratch arrays, the perceivable-closure masks) are addressed by
        these indices; because the order is sorted-ASN, ``min`` over
        indices and ``min`` over ASNs agree, which the deterministic
        lowest-ASN tiebreak relies on.

        Callers must not mutate the returned lists/dicts.
        """
        cache = self._index_cache
        if cache is None:
            asn_of = sorted(self._providers)
            index_of = {asn: i for i, asn in enumerate(asn_of)}
            cache = self._index_cache = (asn_of, index_of)
        return cache

    def adjacency(self) -> tuple[dict, dict, dict]:
        """The three adjacency maps ``(providers, customers, peers)``,
        ASN → neighbor set, for whole-graph passes that would otherwise
        copy a frozenset per AS.  Callers must not mutate them."""
        return self._providers, self._customers, self._peers

    def providers(self, asn: int) -> frozenset[int]:
        """ASes that ``asn`` buys transit from."""
        return frozenset(self._providers[asn])

    def customers(self, asn: int) -> frozenset[int]:
        """ASes that buy transit from ``asn``."""
        return frozenset(self._customers[asn])

    def peers(self, asn: int) -> frozenset[int]:
        """Settlement-free peers of ``asn``."""
        return frozenset(self._peers[asn])

    def neighbors(self, asn: int) -> frozenset[int]:
        """All neighbors of ``asn`` regardless of relationship."""
        return frozenset(
            self._providers[asn] | self._customers[asn] | self._peers[asn]
        )

    def relationship(self, asn: int, neighbor: int) -> Relationship:
        """Relationship of ``neighbor`` from ``asn``'s point of view."""
        if neighbor in self._customers[asn]:
            return Relationship.CUSTOMER
        if neighbor in self._peers[asn]:
            return Relationship.PEER
        if neighbor in self._providers[asn]:
            return Relationship.PROVIDER
        raise TopologyError(f"AS {neighbor} is not a neighbor of AS {asn}")

    def has_edge(self, a: int, b: int) -> bool:
        """True if any edge (of any annotation) connects ``a`` and ``b``."""
        providers = self._providers
        return (
            a in providers
            and b in providers
            and (b in providers[a] or b in self._customers[a] or b in self._peers[a])
        )

    # Degree helpers --------------------------------------------------
    def customer_degree(self, asn: int) -> int:
        return len(self._customers[asn])

    def provider_degree(self, asn: int) -> int:
        return len(self._providers[asn])

    def peer_degree(self, asn: int) -> int:
        return len(self._peers[asn])

    def degree(self, asn: int) -> int:
        return (
            len(self._customers[asn])
            + len(self._providers[asn])
            + len(self._peers[asn])
        )

    def is_stub(self, asn: int) -> bool:
        """True if the AS has no customers (it never transits traffic)."""
        return not self._customers[asn]

    # Edge counts -----------------------------------------------------
    @property
    def num_customer_provider_links(self) -> int:
        return sum(len(s) for s in self._providers.values())

    @property
    def num_peer_links(self) -> int:
        return sum(len(s) for s in self._peers.values()) // 2

    def edges(self) -> Iterator[tuple[int, int, Relationship]]:
        """Iterate ``(a, b, relationship-of-b-seen-from-a)`` once per edge.

        Customer-provider edges are yielded as ``(customer, provider,
        PROVIDER)``; peerings as ``(min, max, PEER)``.
        """
        for asn in sorted(self._providers):
            for p in sorted(self._providers[asn]):
                yield asn, p, Relationship.PROVIDER
            for q in sorted(self._peers[asn]):
                if asn < q:
                    yield asn, q, Relationship.PEER

    # ------------------------------------------------------------------
    # Structure checks & utilities
    # ------------------------------------------------------------------
    def copy(self) -> "ASGraph":
        """Deep copy of the graph."""
        g = ASGraph()
        for asn in self._providers:
            g.add_as(asn)
        for asn, provs in self._providers.items():
            for p in provs:
                _own(g._providers, asn).add(p)
                _own(g._customers, p).add(asn)
        for asn, prs in self._peers.items():
            for q in prs:
                _own(g._peers, asn).add(q)
        return g

    def connected_components(self) -> list[set[int]]:
        """Connected components (ignoring edge annotations), largest first."""
        providers, customers, peers = self.adjacency()
        seen: set[int] = set()
        components: list[set[int]] = []
        for start in providers:
            if start in seen:
                continue
            component = {start}
            frontier = {start}
            while frontier:
                reached: set[int] = set()
                for u in frontier:
                    reached |= providers[u]
                    reached |= customers[u]
                    reached |= peers[u]
                reached -= component
                component |= reached
                frontier = reached
            seen |= component
            components.append(component)
        components.sort(key=len, reverse=True)
        return components

    def find_customer_provider_cycle(self) -> list[int] | None:
        """Find a cycle in the customer→provider digraph, if any.

        A sane AS-level topology is acyclic in its customer-provider
        hierarchy (nobody is transitively their own provider).  Returns a
        cycle as a list of ASNs, or None if the hierarchy is a DAG.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(self._providers, WHITE)
        parent: dict[int, int] = {}
        for root in self._providers:
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, Iterator[int]]] = [
                (root, iter(sorted(self._providers[root])))
            ]
            color[root] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append((nxt, iter(sorted(self._providers[nxt]))))
                        advanced = True
                        break
                    if color[nxt] == GRAY:
                        # Unwind the DFS stack from `node` back to `nxt`;
                        # the cycle is nxt -> ... -> node -> nxt.
                        cycle = [node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def validate(self) -> None:
        """Raise :class:`TopologyError` if structural invariants are broken."""
        for asn, provs in self._providers.items():
            for p in provs:
                if asn not in self._customers.get(p, ()):  # pragma: no cover
                    raise TopologyError(f"asymmetric c2p edge {asn}->{p}")
        for asn, prs in self._peers.items():
            for q in prs:
                if asn not in self._peers.get(q, ()):  # pragma: no cover
                    raise TopologyError(f"asymmetric p2p edge {asn}-{q}")
        # Kahn's count: a DAG iff every AS peels once its customers have;
        # the DFS runs only to name a cycle known to exist.
        left = dict(zip(self._customers, map(len, self._customers.values())))
        peeled = [asn for asn, count in left.items() if not count]
        for u in peeled:  # grows as it is walked
            for p in self._providers[u]:
                count = left[p] - 1
                left[p] = count
                if not count:
                    peeled.append(p)
        if len(peeled) < len(left):
            cycle = self.find_customer_provider_cycle()
            raise TopologyError(f"customer-provider cycle: {cycle}")

    def __repr__(self) -> str:
        return (
            f"ASGraph(|V|={len(self)}, "
            f"c2p={self.num_customer_provider_links}, "
            f"p2p={self.num_peer_links})"
        )


def graph_from_edges(
    customer_provider: Iterable[tuple[int, int]] = (),
    peerings: Iterable[tuple[int, int]] = (),
) -> ASGraph:
    """Convenience constructor from edge lists.

    Args:
        customer_provider: iterable of ``(customer, provider)`` pairs.
        peerings: iterable of ``(a, b)`` peer pairs.
    """
    g = ASGraph()
    for customer, provider in customer_provider:
        g.add_customer_provider(customer, provider)
    for a, b in peerings:
        g.add_peering(a, b)
    return g
