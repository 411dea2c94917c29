"""Topology preprocessing, following Section 2.2 of the paper.

The paper preprocesses the raw UCLA graph by "recursively removing all
ASes that had no providers that had low degree (and were not Tier 1
ISPs)".  Raw relationship inferences also occasionally contain
customer-provider cycles and disconnected fragments; this module cleans
all of that up and reports what it did; each step returns a new graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .graph import ASGraph, graph_from_edges


@dataclass
class PreprocessReport:
    """What :func:`preprocess_graph` changed."""

    removed_providerless: list[int] = field(default_factory=list)
    removed_disconnected: list[int] = field(default_factory=list)
    broken_cycle_edges: list[tuple[int, int]] = field(default_factory=list)

    @property
    def total_removed(self) -> int:
        return len(self.removed_providerless) + len(self.removed_disconnected)


def _without(
    graph: ASGraph, ases: Iterable[int] = (), edge: tuple[int, int] = (-1, -1)
) -> ASGraph:
    """``graph`` less the ASes ``ases`` (with their edges) and the
    customer-provider ``edge`` (by default none: no ASN is negative)."""
    gone = np.fromiter(ases, np.int64)
    c2p, p2p = graph.edge_lists()
    c2p = c2p[(c2p != edge).any(axis=1)]
    return graph_from_edges(
        c2p[~np.isin(c2p, gone).any(axis=1)],
        p2p[~np.isin(p2p, gone).any(axis=1)],
        graph.asn_of[~np.isin(graph.asn_of, gone)],
    )


def prune_providerless(
    graph: ASGraph,
    keep: frozenset[int] = frozenset(),
    degree_threshold: int = 25,
) -> tuple[ASGraph, list[int]]:
    """Recursively remove low-degree provider-less ASes (Section 2.2).

    An AS with no providers and degree below ``degree_threshold`` is
    almost always an inference artifact (a leaf wrongly promoted to the
    top of the hierarchy).  Removal can orphan further ASes, hence the
    rounds.  ASes in ``keep`` (e.g. the Tier 1 clique) are never
    removed.  Returns the pruned graph and the removed ASNs, round by
    round, each round's in ASN order.
    """
    removed: list[int] = []
    kept = np.fromiter(keep, np.int64)
    while True:
        start = graph.adj_start
        doomed = (
            (graph.peer_start == start[:-1])
            & (np.diff(start) < degree_threshold)
            & ~np.isin(graph.asn_of, kept)
        )
        if not doomed.any():
            return graph, removed
        ases = graph.asn_of[doomed].tolist()
        graph = _without(graph, ases)
        removed += ases


def keep_largest_component(graph: ASGraph) -> tuple[ASGraph, list[int]]:
    """Remove every AS outside the largest connected component (the one
    with the lowest ASN of those tied for largest).  Returns the
    component's graph and the removed ASNs, by component, each sorted."""
    components = graph.connected_components()
    removed = [asn for component in components[1:] for asn in sorted(component)]
    return (_without(graph, removed) if removed else graph), removed


def break_customer_provider_cycles(
    graph: ASGraph,
) -> tuple[ASGraph, list[tuple[int, int]]]:
    """Remove edges until the customer→provider digraph is acyclic.

    Within each detected cycle the edge whose provider has the *smallest*
    customer degree is dropped (it is the least plausible inference).
    Returns the acyclic graph and the removed ``(customer, provider)``
    edges.
    """
    removed: list[tuple[int, int]] = []
    while True:
        cycle = graph.find_customer_provider_cycle()
        if cycle is None:
            return graph, removed
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        edge = min(edges, key=lambda e: (graph.customer_degree(e[1]), e))
        graph = _without(graph, edge=edge)
        removed.append(edge)


def preprocess_graph(
    graph: ASGraph,
    keep: frozenset[int] = frozenset(),
    degree_threshold: int = 25,
) -> tuple[ASGraph, PreprocessReport]:
    """Run the full Section 2.2 cleanup pipeline.

    Order matters: cycles are broken first (so the provider-less check is
    meaningful), then provider-less fragments are pruned, then everything
    outside the largest component is dropped.

    Args:
        graph: the raw topology.
        keep: ASNs never to remove (e.g. known Tier 1s).
        degree_threshold: "low degree" cutoff for provider-less pruning.

    Returns:
        The cleaned graph and a :class:`PreprocessReport`.
    """
    report = PreprocessReport()
    graph, report.broken_cycle_edges = break_customer_provider_cycles(graph)
    graph, report.removed_providerless = prune_providerless(
        graph, keep=keep, degree_threshold=degree_threshold
    )
    graph, report.removed_disconnected = keep_largest_component(graph)
    return graph, report
