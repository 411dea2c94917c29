"""IXP peering augmentation (Section 2.2 / Appendix J).

Empirical AS graphs miss many peer-to-peer links established at Internet
eXchange Points.  The paper therefore builds a second graph in which every
pair of ASes that are members of the same IXP — and are not already
connected — is joined by a peer-to-peer edge, and reruns every experiment
on it.  As the paper notes, full meshing is an *upper bound* on the
missing links, since not all co-located ASes actually peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .graph import ASGraph, graph_from_edges


@dataclass(frozen=True)
class IxpAugmentation:
    """Result of :func:`augment_with_ixp_peering`."""

    graph: ASGraph
    added_edges: tuple[tuple[int, int], ...]
    #: member pairs skipped because an edge (of any kind) already existed.
    skipped_existing: int
    #: members listed at an IXP but absent from the graph.
    unknown_members: tuple[int, ...]

    @property
    def added_count(self) -> int:
        return len(self.added_edges)


def augment_with_ixp_peering(
    graph: ASGraph,
    ixp_members: Mapping[str, Sequence[int]],
) -> IxpAugmentation:
    """Fully mesh each IXP's members with p2p edges in a new graph.

    Args:
        graph: base topology.
        ixp_members: IXP name -> member ASNs.

    Returns:
        An :class:`IxpAugmentation` with the augmented graph and an edge
        report.
    """
    added: dict[tuple[int, int], None] = {}
    skipped = 0
    unknown: set[int] = set()

    for ixp in sorted(ixp_members):
        members = sorted(set(ixp_members[ixp]))
        present = []
        for asn in members:
            if asn in graph:
                present.append(asn)
            else:
                unknown.add(asn)
        for i, a in enumerate(present):
            neighbors = graph.neighbors(a)
            for c in present[i + 1 :]:
                if (a, c) in added or c in neighbors:
                    skipped += 1
                    continue
                added[a, c] = None

    customer_provider, peerings = graph.edge_lists()
    new_peerings = np.array(list(added), np.int64).reshape(-1, 2)
    return IxpAugmentation(
        graph=graph_from_edges(
            customer_provider, np.concatenate([peerings, new_peerings]), graph.asn_of
        ),
        added_edges=tuple(added),
        skipped_existing=skipped,
        unknown_members=tuple(sorted(unknown)),
    )
