"""Max-k-Security: NP-hardness gadget and solvers (§5.1, Appendix I).

``Max-k-Security``: given a graph, an attack pair ``(m, d)`` and ``k``,
choose a secure set ``S`` of size ``k`` maximizing the number of happy
ASes.  Theorem 5.1 proves this NP-hard in all three security models by
reduction from Set Cover (Figure 18); this module makes the reduction
executable, and provides an exact brute-force solver for small instances
plus a greedy heuristic for picking early adopters on real graphs.

Happiness here is the metric's lower bound (tiebreak-adversarial),
matching the reduction's requirement that the element ASes' tiebreak
"prefers the route through m".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from ..topology.graph import ASGraph, graph_from_edges
from .deployment import Deployment
from .rank import RankModel
from .routing import RoutingContext, compute_routing_outcome


@dataclass(frozen=True)
class ReductionInstance:
    """The Figure 18 gadget for a Set Cover instance.

    Securing ``{d} ∪ elements ∪ (a γ-subfamily covering all elements)``
    — i.e. ``k = n + γ + 1`` ASes — makes every source happy iff the
    subfamily is a set cover (Theorem I.1).
    """

    graph: ASGraph
    attacker: int
    destination: int
    element_as: dict[str, int]
    set_as: dict[str, int]
    universe: tuple[str, ...]
    family: dict[str, frozenset[str]]

    @property
    def num_sources(self) -> int:
        return len(self.element_as) + len(self.set_as)

    def deployment_for_cover(self, cover: Sequence[str]) -> Deployment:
        """The secure set induced by a candidate subfamily."""
        members = {self.destination}
        members.update(self.element_as.values())
        members.update(self.set_as[name] for name in cover)
        return Deployment.of(members)

    def k_for_gamma(self, gamma: int) -> int:
        """Secure-set size corresponding to a γ-subfamily."""
        return len(self.element_as) + gamma + 1


def build_set_cover_reduction(
    universe: Sequence[str],
    family: dict[str, Sequence[str]],
    attacker_asn: int = 1,
    destination_asn: int = 2,
) -> ReductionInstance:
    """Build the Figure 18 gadget from a Set Cover instance.

    * each element AS is a provider of the attacker (so it perceives a
      2-hop bogus customer route ``(m, d)``);
    * each set AS is a provider of the destination (1-hop customer route);
    * element ``e`` is a provider of set ``s`` iff ``e ∈ s`` (giving
      ``e`` a 2-hop legitimate customer route ``(s, d)``).

    The attacker gets the smallest ASN so that the deterministic
    lowest-next-hop tiebreak "prefers the route through m", as the
    reduction requires.
    """
    if attacker_asn >= destination_asn:
        raise ValueError("attacker ASN must be smallest (tiebreak prefers m)")
    universe = tuple(universe)
    family_sets = {name: frozenset(members) for name, members in family.items()}
    for name, members in family_sets.items():
        unknown = members - set(universe)
        if unknown:
            raise ValueError(f"set {name!r} contains unknown elements {sorted(unknown)}")

    set_as = {
        name: destination_asn + 1 + i for i, name in enumerate(sorted(family_sets))
    }
    base = destination_asn + 1 + len(set_as) + 100
    element_as = {name: base + i for i, name in enumerate(universe)}

    c2p: list[tuple[int, int]] = []
    for element, asn in element_as.items():
        c2p.append((attacker_asn, asn))  # attacker is a customer of e
    for name, asn in set_as.items():
        c2p.append((destination_asn, asn))  # destination is a customer of s
        for element in family_sets[name]:
            c2p.append((asn, element_as[element]))  # s is a customer of e
    graph = graph_from_edges(customer_provider=c2p)
    return ReductionInstance(
        graph=graph,
        attacker=attacker_asn,
        destination=destination_asn,
        element_as=element_as,
        set_as=set_as,
        universe=universe,
        family=family_sets,
    )


def count_happy_lower(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    deployment: Deployment,
    model: RankModel,
) -> int:
    """Lower-bound happy-source count for one attack (the DkℓSP objective)."""
    outcome = compute_routing_outcome(
        topology, destination, attacker=attacker, deployment=deployment, model=model
    )
    lower, _ = outcome.count_happy()
    return lower


def max_k_security_bruteforce(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    k: int,
    model: RankModel,
    candidates: Sequence[int] | None = None,
) -> tuple[int, frozenset[int]]:
    """Exact Max-k-Security by exhaustive search (exponential — tiny inputs).

    Args:
        candidates: the pool to draw ``S`` from; defaults to all ASes.

    Returns:
        ``(best happy count, best secure set)``.
    """
    ctx = topology if isinstance(topology, RoutingContext) else RoutingContext(topology)
    pool = list(candidates) if candidates is not None else list(ctx.asns)
    if len(pool) > 25:
        raise ValueError(
            f"brute force over {len(pool)} candidates is infeasible; "
            "restrict the candidate pool"
        )
    best_count = -1
    best_set: frozenset[int] = frozenset()
    for combo in itertools.combinations(sorted(pool), min(k, len(pool))):
        deployment = Deployment.of(combo)
        happy = count_happy_lower(ctx, attacker, destination, deployment, model)
        if happy > best_count:
            best_count = happy
            best_set = frozenset(combo)
    return best_count, best_set


def greedy_max_k_security(
    topology: ASGraph | RoutingContext,
    attacker: int,
    destination: int,
    k: int,
    model: RankModel,
    candidates: Sequence[int] | None = None,
) -> tuple[int, frozenset[int]]:
    """Greedy heuristic: repeatedly secure the AS with the best marginal gain.

    NP-hardness (Theorem 5.1) justifies a heuristic; this is the natural
    greedy early-adopter picker that the ``hardness`` experiment ablates
    against brute force (docs/ARCHITECTURE.md, "Max-k-Security").
    Ties are broken toward the smallest ASN for determinism.
    """
    ctx = topology if isinstance(topology, RoutingContext) else RoutingContext(topology)
    pool = sorted(candidates) if candidates is not None else list(ctx.asns)
    chosen: set[int] = set()
    current = count_happy_lower(
        ctx, attacker, destination, Deployment.empty(), model
    )
    for _ in range(min(k, len(pool))):
        best_gain = -1
        best_asn: int | None = None
        for asn in pool:
            if asn in chosen:
                continue
            happy = count_happy_lower(
                ctx, attacker, destination, Deployment.of(chosen | {asn}), model
            )
            gain = happy - current
            if gain > best_gain:
                best_gain = gain
                best_asn = asn
        if best_asn is None:
            break
        chosen.add(best_asn)
        current += best_gain
    return current, frozenset(chosen)
