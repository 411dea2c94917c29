"""Seeded synthetic Internet-like AS topology generator.

The paper runs on the UCLA AS-level topology of 2012-09-24 (39,056 ASes,
73,442 customer-provider links, 62,129 peer-to-peer links).  That dataset
is not redistributable here, so this module builds a synthetic graph that
reproduces the structural properties the paper's results depend on:

* a small clique of provider-free Tier-1 ASes at the top of a
  customer-provider DAG (the paper's 13 Tier 1s);
* a layered ISP hierarchy with preferential attachment, giving power-law
  customer degrees (so "top by customer degree" is meaningful);
* a large stub fringe (~85 % of ASes have no customers, per Section 5.3.2),
  a fraction of which peer (the paper's "Stubs-x");
* content providers embedded with the paper's 17 real ASNs, multihomed to
  large ISPs and peering widely (so they are reachable over short peer
  routes, per Appendix K's discussion);
* synthetic IXP membership lists for the Appendix J augmentation.

Everything is driven by a single ``random.Random(seed)`` so topologies are
reproducible bit-for-bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .graph import ASGraph
from .tiers import PAPER_CONTENT_PROVIDERS

#: Topologies at or above this many ASes default to the O(1)-per-draw
#: preferential-attachment tables (:class:`_PATable`).  Below it the
#: historical per-call weight recomputation is kept so existing seeded
#: scales stay bit-identical.
FAST_ATTACHMENT_MIN_N = 20_000


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the synthetic generator.

    The defaults produce, at ``n ≈ 4000``, a graph whose c2p:p2p:AS ratios
    are close to the UCLA graph's 1.9 : 1.6 : 1.
    """

    n: int = 4000
    seed: int = 2013
    tier1_count: int = 13
    #: fraction of ASes in the "large ISP" layer (future Tier 2s).
    large_isp_frac: float = 0.025
    #: fraction in the "mid ISP" layer (future Tier 3s / transit SMDG).
    mid_isp_frac: float = 0.06
    #: fraction in the "small ISP" layer (regional transit).
    small_isp_frac: float = 0.07
    #: whether to embed the paper's 17 CP ASNs.
    include_content_providers: bool = True
    #: fraction of stubs that get peering links (Stubs-x).
    stub_peering_frac: float = 0.12
    #: expected peer-to-peer links per AS added outside the Tier-1 clique.
    p2p_density: float = 1.4
    #: providers per content provider (multihoming).
    cp_provider_count: int = 4
    #: peers per content provider, as a fraction of the ISP population.
    cp_peering_frac: float = 0.25
    #: number of synthetic IXPs (0 disables membership generation).
    ixp_count: int | None = None
    #: use O(1)-per-draw preferential-attachment tables instead of
    #: recomputing O(|pool|) weight lists per AS; None = auto (on at
    #: ``n >= FAST_ATTACHMENT_MIN_N``).  Same attachment distribution,
    #: different RNG consumption — existing seeded scales stay below
    #: the threshold and are bit-identical to the historical generator.
    fast_attachment: bool | None = None

    def __post_init__(self) -> None:
        if self.n < 50:
            raise ValueError("need at least 50 ASes for a meaningful topology")
        if self.tier1_count < 2:
            raise ValueError("need at least 2 Tier-1 ASes")


@dataclass
class SyntheticTopology:
    """A generated topology plus the metadata the experiments need."""

    graph: ASGraph
    params: TopologyParams
    content_providers: tuple[int, ...]
    #: IXP name -> member ASNs (input to :mod:`repro.topology.ixp`).
    ixp_members: dict[str, tuple[int, ...]] = field(default_factory=dict)
    #: generator layer of each AS ("t1", "large", "mid", "small", "cp",
    #: "stub") — useful for tests; tier classification should be done with
    #: :func:`repro.topology.tiers.classify_tiers`.
    layer_of: dict[int, str] = field(default_factory=dict)


def _pick_distinct(
    rng: random.Random,
    population: list[int],
    weights: list[float] | None,
    k: int,
    cum_weights: list[float] | None = None,
) -> list[int]:
    """Sample up to ``k`` distinct elements, weighted, by rejection.

    Pass ``cum_weights`` (``itertools.accumulate`` of the weights) when
    drawing repeatedly from one population: ``random.choices`` converts
    ``weights`` to exactly that prefix-sum internally, so the draws are
    bit-identical while the per-draw cost falls from O(|population|)
    to O(log |population|).
    """
    if not population:
        return []
    k = min(k, len(population))
    chosen: list[int] = []
    seen: set[int] = set()
    attempts = 0
    while len(chosen) < k and attempts < 50 * k:
        (candidate,) = rng.choices(
            population, weights=weights, cum_weights=cum_weights, k=1
        )
        attempts += 1
        if candidate not in seen:
            seen.add(candidate)
            chosen.append(candidate)
    return chosen


class _Builder:
    """Stateful helper that assembles the synthetic graph."""

    def __init__(self, params: TopologyParams) -> None:
        self.params = params
        self.rng = random.Random(params.seed)
        self.graph = ASGraph()
        self.layer_of: dict[int, str] = {}
        self._next_asn = 1
        self._reserved = (
            set(PAPER_CONTENT_PROVIDERS)
            if params.include_content_providers
            else set()
        )
        fast = params.fast_attachment
        if fast is None:
            fast = params.n >= FAST_ATTACHMENT_MIN_N
        self.fast = fast
        #: provider ASN -> its layer's PA table (fast mode only).
        self._pa_of: dict[int, list[int]] = {}

    def fresh_asn(self) -> int:
        while self._next_asn in self._reserved:
            self._next_asn += 1
        asn = self._next_asn
        self._next_asn += 1
        return asn

    def make_layer(self, name: str, count: int) -> list[int]:
        members = []
        for _ in range(count):
            asn = self.fresh_asn()
            self.graph.add_as(asn)
            self.layer_of[asn] = name
            members.append(asn)
        return members

    def pa_table(self, members: list[int]) -> "list[int] | None":
        """A layer's O(1)-per-draw preferential-attachment table (fast
        mode): each member once per unit of weight, ``1 + customer_degree``
        (a uniform index draw is a weighted draw); kept exact by :meth:`add_c2p`."""
        if not self.fast:
            return None
        table: list[int] = []
        for m in members:
            table.extend([m] * (1 + self.graph.customer_degree(m)))
            self._pa_of[m] = table
        return table

    def add_c2p(self, customer: int, providers: list[int]) -> None:
        """Add customer-provider edges, keeping PA tables exact."""
        add = self.graph.add_customer_provider
        pa_of = self._pa_of
        for provider in providers:
            add(customer, provider)
            table = pa_of.get(provider)
            if table is not None:
                table.append(provider)

    def attach_providers(
        self,
        asn: int,
        candidates: list[int],
        count: int,
        tables: "list[list[int] | None] | None" = None,
    ) -> None:
        """Attach ``count`` providers with preferential attachment.

        ``tables`` (fast mode) replaces the per-call O(|candidates|)
        weight recomputation with O(1) draws from the layers' PA
        tables; the attachment distribution is identical, only the RNG
        consumption differs (see :class:`TopologyParams.fast_attachment`).
        """
        if self.fast and tables:
            chosen = self._pick_pa(tables, count)
        else:
            weights = [1.0 + self.graph.customer_degree(c) for c in candidates]
            chosen = _pick_distinct(self.rng, candidates, weights, count)
        self.add_c2p(asn, chosen)

    def _pick_pa(self, tables: "list[list[int] | None]", k: int) -> list[int]:
        """Up to ``k`` distinct providers drawn across PA tables."""
        tables = [t for t in tables if t is not None]
        total = sum(map(len, tables))
        if not total:
            return []
        randrange = self.rng.randrange
        chosen: list[int] = []
        attempts = 0
        while len(chosen) < k and attempts < 50 * k:
            attempts += 1
            r = randrange(total)
            for table in tables:
                if r < len(table):
                    candidate = table[r]
                    break
                r -= len(table)
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen

    def add_random_peerings(self, pool_a: list[int], pool_b: list[int], count: int) -> int:
        """Add up to ``count`` p2p edges between the two pools."""
        if not pool_a or not pool_b:
            return 0
        choice = self.rng.choice
        providers, customers, peers = self.graph.adjacency()
        added = 0
        attempts = 0
        while added < count and attempts < 30 * count + 100:
            attempts += 1
            a = choice(pool_a)
            b = choice(pool_b)
            if a == b or b in peers[a] or b in providers[a] or b in customers[a]:
                continue
            self.graph.add_peering(a, b)
            added += 1
        return added


def generate_topology(params: TopologyParams | None = None) -> SyntheticTopology:
    """Generate a synthetic AS-level topology.

    Args:
        params: generator knobs; defaults to :class:`TopologyParams`.

    Returns:
        A :class:`SyntheticTopology` whose graph passes
        :meth:`ASGraph.validate` and is connected.
    """
    params = params or TopologyParams()
    b = _Builder(params)
    rng = b.rng
    n = params.n

    # --- transit hierarchy -------------------------------------------
    tier1 = b.make_layer("t1", params.tier1_count)
    large = b.make_layer("large", max(8, round(n * params.large_isp_frac)))
    mid = b.make_layer("mid", max(12, round(n * params.mid_isp_frac)))
    small = b.make_layer("small", max(16, round(n * params.small_isp_frac)))

    for a in tier1:
        for c in tier1:
            if a < c:
                b.graph.add_peering(a, c)

    t_t1 = b.pa_table(tier1)
    for asn in large:
        b.attach_providers(asn, tier1, rng.choice((1, 2, 2, 3)), tables=[t_t1])
    # Every Tier 1 must have at least one customer or it would drop out
    # of the Table 1 Tier-1 bucket ("high customer degree & no providers").
    for t1 in tier1:
        if not b.graph.customers(t1):
            b.add_c2p(rng.choice(large), [t1])
    # Mid ISPs buy from the large (Tier-2-like) layer — real regional
    # ISPs rarely buy straight from a Tier 1.  Keeping the attacker's
    # provider chain inside the densely-peering large layer is what lets
    # bogus routes spread as peer routes (the §4.6 mechanism).
    t_large = b.pa_table(large)
    for asn in mid:
        extra = rng.random() < 0.10
        pool = [] if b.fast else large + (tier1 if extra else [])
        b.attach_providers(
            asn, pool, rng.choice((2, 2, 3, 3, 4)),
            tables=[t_large] + ([t_t1] if extra else []),
        )
    t_mid = b.pa_table(mid)
    for asn in small:
        extra = rng.random() < 0.30
        pool = [] if b.fast else mid + (large if extra else [])
        b.attach_providers(
            asn, pool, rng.choice((1, 2, 2, 2, 3)),
            tables=[t_mid] + ([t_large] if extra else []),
        )

    # --- content providers -------------------------------------------
    cps: list[int] = []
    if params.include_content_providers:
        for asn in sorted(PAPER_CONTENT_PROVIDERS):
            b.graph.add_as(asn)
            b.layer_of[asn] = "cp"
            cps.append(asn)
            b.attach_providers(asn, tier1 + large, params.cp_provider_count)

    # --- stub fringe ---------------------------------------------------
    # Stubs multihome to transit providers by preferential attachment
    # over *all* transit layers.  On the real graph the top-100
    # customer-degree ASes (the paper's Tier 2s) hold the bulk of the
    # stub attachments, which keeps the hierarchy shallow — a property
    # the Section 4.6 Tier-1 results depend on.
    stub_count = n - len(b.graph)
    stubs = b.make_layer("stub", max(0, stub_count))
    t_small = b.pa_table(small)
    transit_pool = tier1 + large + mid + small
    transit_tables = [t_t1, t_large, t_mid, t_small]
    for asn in stubs:
        count = rng.choice((1, 1, 1, 2, 2, 3))
        b.attach_providers(asn, transit_pool, count, tables=transit_tables)

    # --- peering fabric -------------------------------------------------
    isps = large + mid + small
    peer_budget = round(n * params.p2p_density)

    for cp in cps:
        degree = max(4, round(len(isps) * params.cp_peering_frac))
        degree = min(degree, peer_budget // max(1, len(cps)) + 4)
        added = b.add_random_peerings([cp], isps, degree)
        peer_budget -= added
    # CPs also peer among themselves (content "hyper-giants" interconnect).
    for i, a in enumerate(cps):
        for c in cps[i + 1 :]:
            if rng.random() < 0.35 and not b.graph.has_edge(a, c):
                b.graph.add_peering(a, c)

    stub_x = [s for s in stubs if rng.random() < params.stub_peering_frac]
    sx_budget = min(peer_budget // 5, len(stub_x) * 2)
    peer_budget -= b.add_random_peerings(stub_x, stub_x + small, max(0, sx_budget))

    # Remaining budget among the transit layers, densest at the top:
    # large (Tier-2-like) ISPs interconnect heavily in reality, and that
    # peering mesh is what lets bogus routes arrive as peer routes.
    for pool_a, pool_b, share in (
        (large, large, 0.24),
        (large, mid, 0.32),
        (mid, mid, 0.20),
        (mid, small, 0.14),
        (small, small, 0.10),
    ):
        peer_budget -= b.add_random_peerings(
            pool_a, pool_b, max(0, round(peer_budget * share))
        )

    # --- IXP membership lists (Appendix J input) ------------------------
    ixp_members: dict[str, tuple[int, ...]] = {}
    ixp_count = params.ixp_count
    if ixp_count is None:
        ixp_count = max(3, n // 130)
    if ixp_count:
        eligible = isps + cps + stub_x
        # Prefix-summed weights: random.choices builds exactly this
        # accumulation internally, so pre-computing it once keeps the
        # draws bit-identical while dropping the per-draw cost from
        # O(|eligible|) to O(log |eligible|).
        cum_weights = list(
            itertools.accumulate(1.0 + b.graph.peer_degree(a) for a in eligible)
        )
        for i in range(ixp_count):
            size = min(len(eligible), 3 + int(rng.expovariate(1 / 8.0)))
            members = _pick_distinct(
                rng, eligible, None, size, cum_weights=cum_weights
            )
            if len(members) >= 2:
                ixp_members[f"IXP{i}"] = tuple(sorted(members))

    b.graph.validate()
    components = b.graph.connected_components()
    if len(components) > 1:  # pragma: no cover - generator guarantees this
        raise AssertionError("generator produced a disconnected graph")

    return SyntheticTopology(
        graph=b.graph,
        params=params,
        content_providers=tuple(cps),
        ixp_members=ixp_members,
        layer_of=b.layer_of,
    )
