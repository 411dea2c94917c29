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

import random
from dataclasses import dataclass, field
from itertools import accumulate, chain

from .graph import ASGraph
from .tiers import PAPER_CONTENT_PROVIDERS

#: Topologies at or above this many ASes draw transit providers from
#: preferential-attachment tables, one uniform index per draw (the
#: ``getrandbits`` rejection loop of ``randrange``, run inline); smaller
#: ones draw by ``random.choices`` over the candidates' weights (``1 +``
#: customer degree).  Both give the same attachment distribution but
#: consume the RNG differently, and each stream pins its own scales'
#: bytes (``tests/test_generate.py``), which is why both modes stay.
FAST_ATTACHMENT_MIN_N = 20_000


@dataclass(frozen=True)
class TopologyParams:
    """Knobs for the synthetic generator.

    The defaults produce, at ``n ≈ 4000``, a graph whose c2p:p2p:AS ratios
    are close to the UCLA graph's 1.9 : 1.6 : 1.  ``n`` alone picks how
    transit providers are drawn (:data:`FAST_ATTACHMENT_MIN_N`).
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
    rng: random.Random, population: list[int], cum_weights: list[float], k: int
) -> list[int]:
    """Sample up to ``k`` distinct elements, weighted, by rejection.

    ``cum_weights`` is ``itertools.accumulate`` of the weights: passing
    ``weights`` instead makes ``random.choices`` build exactly that
    prefix-sum on every draw, so the draws are the same either way while
    each one costs O(log |population|) instead of O(|population|).
    """
    if not population:
        return []
    k = min(k, len(population))
    chosen: list[int] = []
    seen: set[int] = set()
    attempts = 0
    while len(chosen) < k and attempts < 50 * k:
        (candidate,) = rng.choices(
            population, cum_weights=cum_weights, k=1
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
        self.fast = params.n >= FAST_ATTACHMENT_MIN_N
        #: provider ASN -> its layer's PA table (fast mode only).
        self._pa_of: dict[int, list[int]] = {}
        #: provider ASN -> its layer's weight list and its index in it
        #: (weighted mode only).
        self._weight_of: dict[int, tuple[list[float], int]] = {}

    def make_layer(self, name: str, count: int) -> list[int]:
        """``count`` fresh ASNs, skipping the reserved content-provider
        ones, added to the graph as layer ``name``."""
        members = []
        asn = self._next_asn
        reserved = self._reserved
        add_as = self.graph.add_as
        for _ in range(count):
            while asn in reserved:
                asn += 1
            add_as(asn)
            members.append(asn)
            asn += 1
        self._next_asn = asn
        self.layer_of.update(dict.fromkeys(members, name))
        return members

    def track(self, members: list[int]) -> None:
        """Start keeping a transit layer's attachment weights, ``1 +
        customer_degree`` per member, in the form its mode draws from: a
        PA table holding each member once per unit of weight (fast mode:
        a uniform index draw is a weighted draw), or one weight per
        member; :meth:`add_c2p` keeps either exact."""
        if self.fast:
            table: list[int] = []
            for m in members:
                table.extend([m] * (1 + self.graph.customer_degree(m)))
                self._pa_of[m] = table
        else:
            weights = [1.0 + self.graph.customer_degree(m) for m in members]
            for i, m in enumerate(members):
                self._weight_of[m] = (weights, i)

    def add_c2p(self, customer: int, providers: list[int]) -> None:
        """Add customer-provider edges, keeping tracked weights exact."""
        add = self.graph.add_customer_provider
        for provider in providers:
            add(customer, provider)
            if self.fast:
                self._pa_of[provider].append(provider)
            else:
                weights, i = self._weight_of[provider]
                weights[i] += 1.0

    def attach_providers(self, asn: int, layers: list[list[int]], count: int) -> None:
        """Attach ``count`` providers drawn from the tracked ``layers``
        (candidates in layer order) with preferential attachment: from
        the layers' PA tables in fast mode, else by :meth:`pick_weighted`."""
        if self.fast:
            tables = [self._pa_of[layer[0]] for layer in layers]
            chosen = self._pick_pa(tables, sum(map(len, tables)), count)
        else:
            chosen = self.pick_weighted(layers, count)
        self.add_c2p(asn, chosen)

    def pick_weighted(self, layers: list[list[int]], k: int) -> list[int]:
        """Up to ``k`` distinct members of ``layers`` drawn by ``1 +
        customer_degree``: the kept weight lists in weighted mode, weights
        read off the graph in fast mode (whose only weighted draw is a
        content provider's, 17 per graph)."""
        population = list(chain.from_iterable(layers))
        if self.fast:
            weights = [1.0 + self.graph.customer_degree(c) for c in population]
        else:
            weights = chain.from_iterable(
                self._weight_of[layer[0]][0] for layer in layers
            )
        return _pick_distinct(self.rng, population, list(accumulate(weights)), k)

    def attach_stubs(self, stubs: list[int], layers: list[list[int]]) -> None:
        """Attach each stub to ``choice((1, 1, 1, 2, 2, 3))`` providers as
        :meth:`attach_providers` would.  In fast mode the layers' PA
        tables and their running total carry across stubs, the count is
        drawn inline and the edges land without :meth:`add_c2p`: the
        same draws, without a call frame each."""
        counts = (1, 1, 1, 2, 2, 3)
        if not self.fast:
            choice = self.rng.choice
            for asn in stubs:
                self.attach_providers(asn, layers, choice(counts))
            return
        tables = [self._pa_of[layer[0]] for layer in layers]
        total = sum(map(len, tables))
        getrandbits = self.rng.getrandbits
        n_counts = len(counts)
        bits = n_counts.bit_length()
        pick = self._pick_pa
        add = self.graph.add_customer_provider
        pa_of = self._pa_of
        for asn in stubs:
            r = getrandbits(bits)  # choice(counts), as Random._randbelow
            while r >= n_counts:
                r = getrandbits(bits)
            chosen = pick(tables, total, counts[r])
            for provider in chosen:
                add(asn, provider)
                pa_of[provider].append(provider)
            total += len(chosen)

    def _pick_pa(self, tables: list[list[int]], total: int, k: int) -> list[int]:
        """Up to ``k`` distinct providers drawn across PA tables holding
        ``total`` entries.  Each draw is ``randrange(total)`` as
        ``Random._randbelow`` computes it, the ``getrandbits`` rejection
        loop inline: the same calls in the same order, one frame fewer."""
        if not total:
            return []
        getrandbits = self.rng.getrandbits
        bits = total.bit_length()
        chosen: list[int] = []
        attempts = 0
        while len(chosen) < k and attempts < 50 * k:
            attempts += 1
            r = getrandbits(bits)
            while r >= total:
                r = getrandbits(bits)
            for table in tables:
                size = len(table)
                if r < size:
                    candidate = table[r]
                    break
                r -= size
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen

    def add_random_peerings(self, pool_a: list[int], pool_b: list[int], count: int) -> int:
        """Add up to ``count`` p2p edges between the two pools."""
        if not pool_a or not pool_b:
            return 0
        # choice(pool_a), choice(pool_b) as Random._randbelow draws them.
        getrandbits = self.rng.getrandbits
        n_a, n_b = len(pool_a), len(pool_b)
        bits_a, bits_b = n_a.bit_length(), n_b.bit_length()
        add = self.graph.add_peering
        providers, customers, peers = self.graph.adjacency()
        added = 0
        attempts = 0
        while added < count and attempts < 30 * count + 100:
            attempts += 1
            r = getrandbits(bits_a)
            while r >= n_a:
                r = getrandbits(bits_a)
            a = pool_a[r]
            r = getrandbits(bits_b)
            while r >= n_b:
                r = getrandbits(bits_b)
            b = pool_b[r]
            if a == b or b in peers[a] or b in providers[a] or b in customers[a]:
                continue
            add(a, b)
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

    b.track(tier1)
    for asn in large:
        b.attach_providers(asn, [tier1], rng.choice((1, 2, 2, 3)))
    # Every Tier 1 must have at least one customer or it would drop out
    # of the Table 1 Tier-1 bucket ("high customer degree & no providers").
    for t1 in tier1:
        if not b.graph.customers(t1):
            b.add_c2p(rng.choice(large), [t1])
    # Mid ISPs buy from the large (Tier-2-like) layer — real regional
    # ISPs rarely buy straight from a Tier 1.  Keeping the attacker's
    # provider chain inside the densely-peering large layer is what lets
    # bogus routes spread as peer routes (the §4.6 mechanism).
    b.track(large)
    for asn in mid:
        extra = rng.random() < 0.10
        layers = [large, tier1] if extra else [large]
        b.attach_providers(asn, layers, rng.choice((2, 2, 3, 3, 4)))
    b.track(mid)
    for asn in small:
        extra = rng.random() < 0.30
        layers = [mid, large] if extra else [mid]
        b.attach_providers(asn, layers, rng.choice((1, 2, 2, 2, 3)))

    # --- content providers -------------------------------------------
    cps: list[int] = []
    if params.include_content_providers:
        for asn in sorted(PAPER_CONTENT_PROVIDERS):
            b.graph.add_as(asn)
            b.layer_of[asn] = "cp"
            cps.append(asn)
            # By weight in both modes: the PA-table scales' pinned bytes
            # include these draws.
            b.add_c2p(asn, b.pick_weighted([tier1, large], params.cp_provider_count))

    # --- stub fringe ---------------------------------------------------
    # Stubs multihome to transit providers by preferential attachment
    # over *all* transit layers.  On the real graph the top-100
    # customer-degree ASes (the paper's Tier 2s) hold the bulk of the
    # stub attachments, which keeps the hierarchy shallow — a property
    # the Section 4.6 Tier-1 results depend on.
    stub_count = n - len(b.graph)
    stubs = b.make_layer("stub", max(0, stub_count))
    b.track(small)
    transit = [tier1, large, mid, small]
    b.attach_stubs(stubs, transit)

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
            accumulate(1.0 + b.graph.peer_degree(a) for a in eligible)
        )
        for i in range(ixp_count):
            size = min(len(eligible), 3 + int(rng.expovariate(1 / 8.0)))
            members = _pick_distinct(rng, eligible, cum_weights, size)
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
