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
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .graph import ASGraph, graph_from_edges
from .tiers import PAPER_CONTENT_PROVIDERS

#: Topologies at or above this many ASes draw transit providers from
#: preferential-attachment tables, one uniform index per draw (the
#: ``getrandbits`` rejection loop of ``randrange``, run inline); smaller
#: ones draw by weight (``1 +`` customer degree), one ``random()`` per
#: draw descending a prefix-sum tree per layer (:class:`_WeightTree`):
#: ``random.choices``' value in O(log n).  Both give the same attachment
#: distribution but consume the RNG differently, and each stream pins
#: its own scales' bytes (``tests/test_generate.py``), which is why both
#: modes stay.
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
    #: generator layer ("t1", "large", "mid", "small", "cp", "stub") ->
    #: its member ASNs, a sorted int64 array — useful for tests; tier
    #: classification should be done with
    #: :func:`repro.topology.tiers.classify_tiers`.
    layers: dict[str, np.ndarray] = field(default_factory=dict)


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


class _WeightTree:
    """A transit layer's attachment weights as a Fenwick (binary
    indexed) tree of ints: one more customer for a member, and the draw,
    each cost O(log |members|).  The weights are ints, so every prefix
    sum is exact."""

    __slots__ = ("members", "total", "_tree", "_top")

    def __init__(self, members: list[int], weights: list[int]) -> None:
        size = len(members)
        tree = [0, *weights]
        for i in range(1, size + 1):
            parent = i + (i & -i)
            if parent <= size:
                tree[parent] += tree[i]
        self.members = members
        self.total = sum(weights)
        self._tree = tree
        self._top = 1 << (size.bit_length() - 1)

    def add(self, i: int) -> None:
        """Add 1 to member ``i``'s weight."""
        tree = self._tree
        end = len(tree)
        i += 1
        while i < end:
            tree[i] += 1
            i += i & -i
        self.total += 1

    def find(self, x: float, below: int) -> int:
        """The first member whose prefix sum plus ``below`` exceeds ``x``
        (which ``below + total`` does): ``bisect_right`` over the layer's
        cumulative weights, as ``random.choices`` takes it.  Python
        compares an int with a float exactly."""
        tree = self._tree
        size = len(tree) - 1
        pos, step = 0, self._top
        while step:
            nxt = pos + step
            if nxt <= size and below + tree[nxt] <= x:
                pos = nxt
                below += tree[nxt]
            step >>= 1
        return self.members[pos]


def _pair(a: int, b: int) -> int:
    """The unordered pair ``{a, b}`` of 32-bit ASNs as one int."""
    return a << 32 | b if a < b else b << 32 | a


class _Builder:
    """Stateful helper that draws the synthetic graph's edges; its
    :meth:`finish` builds the graph."""

    def __init__(self, params: TopologyParams) -> None:
        self.params = params
        self.rng = random.Random(params.seed)
        #: what the draws read: each edge's :func:`_pair` key, and each
        #: provider's customer count (until the stubs, in fast mode)
        self.edges: set[int] = set()
        self.customers: dict[int, int] = {}
        #: the edges drawn, flat int64s: customer, provider, … / peer,
        #: peer, … (numpy reads them in place)
        self.c2p = array("q")
        self.p2p = array("q")
        #: layer name -> its members, in the order they were added
        self.layers: dict[str, list[int]] = {}
        self._next_asn = 1
        self._reserved = (
            set(PAPER_CONTENT_PROVIDERS)
            if params.include_content_providers
            else set()
        )
        self.fast = params.n >= FAST_ATTACHMENT_MIN_N
        #: provider ASN -> its layer's PA table (fast mode only).
        self._pa_of: dict[int, list[int]] = {}
        #: provider ASN -> its layer's weight tree and its index in it
        #: (weighted mode only).
        self._tree_of: dict[int, tuple[_WeightTree, int]] = {}

    def make_layer(self, name: str, count: int) -> list[int]:
        """``count`` fresh ASNs, skipping the reserved content-provider
        ones, added to the graph as layer ``name``."""
        members = []
        asn = self._next_asn
        reserved = self._reserved
        for _ in range(count):
            while asn in reserved:
                asn += 1
            members.append(asn)
            asn += 1
        self._next_asn = asn
        self.add_layer(members, name)
        return members

    def add_layer(self, members: list[int], name: str) -> None:
        """Add ``members`` (no edges yet) to layer ``name``."""
        self.layers.setdefault(name, []).extend(members)

    def add_p2p(self, a: int, b: int) -> None:
        self.p2p.append(a)
        self.p2p.append(b)
        self.edges.add(_pair(a, b))

    def finish(self) -> ASGraph:
        """The graph of the edges drawn (every AS has one).  Drawing
        ends: the edge set and the attachment weights go first, so the
        graph is not built on top of them, and the edge lists once it
        is."""
        self.edges.clear()
        self.customers.clear()
        self._pa_of.clear()
        self._tree_of.clear()
        graph = graph_from_edges(
            np.frombuffer(self.c2p, np.int64).reshape(-1, 2),
            np.frombuffer(self.p2p, np.int64).reshape(-1, 2),
        )
        self.c2p = self.p2p = None
        return graph

    def track(self, members: list[int]) -> None:
        """Start keeping a transit layer's attachment weights, ``1 +
        customer_degree`` per member, in the form its mode draws from: a
        PA table holding each member once per unit of weight (fast mode:
        a uniform index draw is a weighted draw), or a
        :class:`_WeightTree` over the members; :meth:`add_c2p` keeps
        either exact."""
        customers = self.customers
        if self.fast:
            table: list[int] = []
            for m in members:
                table.extend([m] * (1 + customers.get(m, 0)))
                self._pa_of[m] = table
        else:
            tree = _WeightTree(members, [1 + customers.get(m, 0) for m in members])
            for i, m in enumerate(members):
                self._tree_of[m] = (tree, i)

    def add_c2p(self, customer: int, providers: list[int]) -> None:
        """Add customer-provider edges, keeping tracked weights exact."""
        c2p, edges, customers = self.c2p, self.edges, self.customers
        for provider in providers:
            c2p.append(customer)
            c2p.append(provider)
            edges.add(_pair(customer, provider))
            customers[provider] = customers.get(provider, 0) + 1
            if self.fast:
                self._pa_of[provider].append(provider)
            else:
                tree, i = self._tree_of[provider]
                tree.add(i)

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
        customer_degree``: from the kept weight trees in weighted mode,
        by :func:`_pick_distinct` over weights from the customer counts in
        fast mode (whose only weighted draw is a content provider's, 17
        per graph)."""
        if not self.fast:
            trees = [self._tree_of[layer[0]][0] for layer in layers]
            k = min(k, sum(map(len, layers)))
            return self._pick_tree(trees, sum(tree.total for tree in trees), k)
        population = list(chain.from_iterable(layers))
        customers = self.customers
        weights = [1.0 + customers.get(c, 0) for c in population]
        return _pick_distinct(self.rng, population, list(accumulate(weights)), k)

    def attach_stubs(
        self, stubs: list[int], layers: list[list[int]], peering: list[int]
    ) -> None:
        """Attach each stub to ``choice((1, 1, 1, 2, 2, 3))`` providers as
        :meth:`attach_providers` would.  The layers' PA tables or weight
        trees and their running total carry across stubs, the count is
        drawn inline and the edges land without :meth:`add_c2p` (and
        without customer counts, which no later draw reads): the same
        draws, without a call frame each.

        Only the edges to ``peering`` (the ISPs the stubs later draw
        peers among, the same list the caller hands
        :meth:`add_random_peerings`) enter the edge set: no later draw
        asks about a stub and any other provider.  At 80k ASes that
        leaves 97k of the set's 238k pairs out."""
        counts = (1, 1, 1, 2, 2, 3)
        fast = self.fast
        if fast:
            sources = [self._pa_of[layer[0]] for layer in layers]
            total = sum(map(len, sources))
            pick = self._pick_pa
        else:
            sources = [self._tree_of[layer[0]][0] for layer in layers]
            total = sum(tree.total for tree in sources)
            pick = self._pick_tree
        getrandbits = self.rng.getrandbits
        n_counts = len(counts)
        bits = n_counts.bit_length()
        # An array's extend() walks its argument generically: two appends
        # are about half its cost.
        append, edges, pa_of, tree_of = (
            self.c2p.append, self.edges, self._pa_of, self._tree_of
        )
        peering = set(peering)
        for asn in stubs:
            r = getrandbits(bits)  # choice(counts), as Random._randbelow
            while r >= n_counts:
                r = getrandbits(bits)
            chosen = pick(sources, total, counts[r])
            for provider in chosen:
                append(asn)
                append(provider)
                if provider in peering:
                    edges.add(_pair(asn, provider))
                if fast:
                    pa_of[provider].append(provider)
                else:
                    tree, i = tree_of[provider]
                    tree.add(i)
            total += len(chosen)

    def _pick_tree(self, trees: list[_WeightTree], total: int, k: int) -> list[int]:
        """Up to ``k`` (at most the trees' members) distinct members drawn
        across weight trees holding ``total`` weight, with
        :func:`_pick_distinct`'s retries.  Each draw is ``random.choices``
        over the trees' cumulative weights in order: one ``random()``,
        the same value, in O(log n)."""
        random = self.rng.random
        chosen: list[int] = []
        attempts = 0
        while len(chosen) < k and attempts < 50 * k:
            attempts += 1
            # random() < 1 and total is an int, so x < total: choices'
            # clamp to the last index never fires, and a tree is found.
            x = random() * float(total)
            below = 0
            for tree in trees:
                if x < below + tree.total:
                    candidate = tree.find(x, below)
                    break
                below += tree.total
            if candidate not in chosen:
                chosen.append(candidate)
        return chosen

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
        add, edges = self.add_p2p, self.edges
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
            if a == b or _pair(a, b) in edges:
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
                b.add_p2p(a, c)

    b.track(tier1)
    for asn in large:
        b.attach_providers(asn, [tier1], rng.choice((1, 2, 2, 3)))
    # Every Tier 1 must have at least one customer or it would drop out
    # of the Table 1 Tier-1 bucket ("high customer degree & no providers").
    for t1 in tier1:
        if not b.customers.get(t1):
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
            b.add_layer([asn], "cp")
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
    stub_count = n - sum(map(len, b.layers.values()))
    stubs = b.make_layer("stub", max(0, stub_count))
    b.track(small)
    transit = [tier1, large, mid, small]
    # The ISPs the stubs that peer draw peers among (beside each other):
    # one list for both calls, since the edge set keeps a stub's
    # provider edges only to these.
    stub_peers = small
    b.attach_stubs(stubs, transit, stub_peers)

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
            if rng.random() < 0.35 and _pair(a, c) not in b.edges:
                b.add_p2p(a, c)

    stub_x = [s for s in stubs if rng.random() < params.stub_peering_frac]
    del stubs
    sx_budget = min(peer_budget // 5, len(stub_x) * 2)
    peer_budget -= b.add_random_peerings(stub_x, stub_x + stub_peers, max(0, sx_budget))

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

    graph = b.finish()
    layers = {name: np.sort(members) for name, members in b.layers.items()}
    del b
    graph.validate()
    if graph.component_count() > 1:
        raise AssertionError("generator produced a disconnected graph")

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
        peer_degree = graph.cust_start - graph.peer_start
        rows = graph.indices(eligible)
        cum_weights = list(accumulate((peer_degree[rows] + 1.0).tolist()))
        for i in range(ixp_count):
            size = min(len(eligible), 3 + int(rng.expovariate(1 / 8.0)))
            members = _pick_distinct(rng, eligible, cum_weights, size)
            if len(members) >= 2:
                ixp_members[f"IXP{i}"] = tuple(sorted(members))

    return SyntheticTopology(
        graph=graph,
        params=params,
        content_providers=tuple(cps),
        ixp_members=ixp_members,
        layers=layers,
    )
