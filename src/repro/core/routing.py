"""Partial-deployment S*BGP routing outcomes (Section 3, Appendix B).

This module computes, for one destination ``d``, an optional attacker
``m``, a deployment ``S`` and a routing-policy model, the stable
routing state that Theorem 2.1 guarantees to exist and be unique.  How
the attacker's announcement enters the computation — its claimed path
length, whether it carries valid-looking security attributes, which
neighbors hear it — is a pluggable :class:`repro.core.attacks.AttackStrategy`;
the default is the paper's Section 3.1 one-hop bogus path ``"m d"``
announced via legacy BGP to everyone.

Appendix B describes the computation as a family of staged breadth-first
searches (FSCR / FCR / FSPeeR / FPeeR / FSPrvR / FPrvR, one ordering per
security model).  We implement all of them with a single Dijkstra-style
*fixing* pass over the model's rank key (:mod:`repro.core.rank`):

* the key of a route is strictly larger than the key of the route it
  extends (monotonicity, proven in ``tests/test_rank.py``), so fixing
  ASes in global key order is exactly the staged-BFS order;
* the export rule ``Ex`` is applied on every relaxation;
* all equally-best routes are retained, so each AS ends with its ``BPR``
  set: the routes preferred before the tiebreak step ``TB``.

Following Section 4.1 we do not guess tiebreaks.  Each AS records which
endpoints its BPR set can reach (``DEST``, ``ATTACKER`` or both); the
``BOTH`` state is the "knife's edge" population that the metric's upper
and lower bounds disagree on.  A deterministic tiebreak (lowest next-hop
ASN) is also tracked so outcomes can be cross-validated against the
message-passing simulator in :mod:`repro.bgpsim`.

**Engine layout.**  The paper's headline metric averages one such
computation per (attacker, destination) pair over ``O(|V|²)`` pairs
(Appendix H ran them on supercomputers), so the per-pair constant factor
governs the cost of every figure.  :class:`RoutingContext` therefore
maps ASNs onto dense indices ``0..n-1`` once per graph and stores the
adjacency as flat CSR buffers (``adj_start``/``adj_node`` arrays plus
``adj_class``/``adj_custflag`` bytearrays; on a numpy context int64 and
uint8 ndarrays built by one sort, with the per-relationship index tuples
derived only if a scalar reader asks); the fixing pass runs
entirely in index space over *reusable scratch buffers* owned by the
context — key/length/reach/secure arrays are reset between pairs
instead of reallocated, rank keys are packed machine-word ints
(:func:`repro.core.rank.pack_key`) instead of tuples, and heap entries
pack ``(key, index)`` into a single int.  :class:`RouteInfo` and the
per-AS mapping :attr:`RoutingOutcome.routes` are preserved as a thin
lazily-materialized view over the flat result arrays, so callers keep
the seed API.  :func:`batch_outcomes` and the count-only fast paths
amortize deployment-mask construction across whole pair sweeps, and
on a scalar context :class:`DestinationSweep` goes one step further
for the metric's destination-major workloads: the attacker-free fixing
pass runs once per destination and each attacker is evaluated by
*delta re-fixing* only the region of the graph whose routing record
actually changes.
On a numpy context (``ctx.vectorized``: by default every graph of
:data:`VECTORIZED_MIN_N` ASes or more) the same passes
run as bucket kernels over int64 arrays, and there *the arrays are the
state*: a numpy kernel never writes the python scratch buffers, a
sweep's snapshot is a dict of arrays, and the single crossing to python
objects is :func:`_decode`, which builds the flat fields of a
:class:`RoutingOutcome` for the callers that ask for full state.
There the pass is also the one unit of the count-only entry point
(:func:`jobs_happiness_counts`): every ``(m, d, S)`` it is asked for
is an independent pass, run as a row of one bucket loop, K to a numpy
call, whatever the size or strategy of its destination group.
The original dict-based engine survives verbatim in
:mod:`repro.core.refimpl` for differential testing.

The context's scratch buffers make routing computations *not*
thread-safe per context; fork-based multiprocessing (the experiment
runner's strategy) is safe because each worker gets its own
copy-on-write context.
"""

from __future__ import annotations

import enum
import functools
import heapq
import itertools
import weakref
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass

try:  # numpy backs the optional vectorized kernel, which degrades to
    # the pure-python paths when it is unavailable.
    import numpy as _np
except ImportError:  # pragma: no cover - the toolchain bakes numpy in
    _np = None

#: Version of the routing *semantics* (not the implementation).  Bump
#: whenever a change alters any routing outcome — tiebreak handling,
#: export rules, security attribution — so content-addressed caches of
#: evaluated scenarios (:mod:`repro.experiments.store`) invalidate
#: instead of silently serving pre-change results.  Pure performance
#: rewrites that reproduce the golden fixtures bit-for-bit must NOT
#: bump it.
ENGINE_VERSION = 1
from .attacks import (
    DEFAULT_ATTACK,
    DEFAULT_RESOLVED,
    AttackStrategy,
    AttackerBaseline,
    ResolvedAttack,
)
from .deployment import Deployment
from .rank import (
    BASELINE,
    PACK_SHIFT,
    RankKey,
    RankModel,
    SecurityModel,
)

_IDX_MASK = (1 << PACK_SHIFT) - 1
#: Larger than any packed rank key (keys use 3 * PACK_SHIFT = 63 bits).
_INF = 1 << 66

#: int64-safe "no key" sentinel for the numpy scratch arrays.  ``_INF``
#: needs 67 bits and cannot live in an int64; real packed keys use at
#: most 3 * PACK_SHIFT = 63 bits but stay far below ``1 << 62`` (the
#: top component is a small LP bucket or 0/1 security bit), so this
#: sentinel is still strictly larger than every real key.
_NP_INF = 1 << 62

#: Contexts at or above this many ASes default to the numpy kernels:
#: the crossover ``tools/kernel_crossover.py`` (``make crossover``)
#: measured on 2026-10-04 — scalar ahead up to ≈ 400 ASes on sweeps and
#: ≈ 500 on the per-pair path, numpy 1.2–1.4x ahead at 600 and 3x at
#: 2 200 (table in docs/ARCHITECTURE.md).  Re-run it before moving this.
VECTORIZED_MIN_N = 500

#: Element budget of one :meth:`RoutingContext._run_np` call: it takes
#: ``max(1, NP_ROWS_BUDGET // n)`` fixing passes as the rows of one
#: bucket loop (:attr:`RoutingContext.batch_rows` — 109 at 300 ASes, 36
#: at 900, 14 at 2 200, 8 at 4 000, 1 from 32 768 up, so an 80k context
#: allocates what a one-row pass does).  ``tools/kernel_crossover.py
#: --rows`` (``make crossover``) is its measurement, 2026-10-04: a row
#: costs 1.25 ms alone and 0.69–0.71 ms at K = 4 … 16 at 2 200, 1.82 →
#: 1.12 ms at K = 8 at 4 000 and more again beyond (the working set
#: leaves the cache), so the budget sits where the gain has flattened at
#: the sizes in use and not above.  A count call keeps ``12·K·n`` bytes
#: of state and peaks near ``47·K·n`` with its temporaries in every pool
#: worker (``tracemalloc``, K = 14 at 2 200, 2026-10-15; 81 and 150
#: while count rows kept the state call's layout, when 1 << 17 read
#: ``sweep_pool_medium``'s ``peak_rss_mb`` 51 → 60).  Re-run it before
#: moving this.
NP_ROWS_BUDGET = 1 << 15


def _u8(buf):
    """A uint8 ndarray view of a bytes-like CSR buffer (zero-copy)."""
    return _np.frombuffer(buf, dtype=_np.uint8)


def _np_key_fn(model: RankModel):
    """Vectorized twin of ``model.key`` + ``pack_key``.

    Returns ``f(vcls, ln, sec) -> int64 packed keys`` over aligned
    arrays: ``vcls`` the receiver's route class, ``ln`` the route
    length, ``sec`` the receiver's effective security bit.  Mirrors
    :meth:`RankModel.key` component order and
    :meth:`LocalPreference.bucket` exactly so packed values are
    bit-identical to the pure kernel's.
    """
    np = _np
    mid = 1 << PACK_SHIFT
    hi = 1 << (2 * PACK_SHIFT)
    k = model.local_preference.peer_window

    if k is None:

        def bucket_of(vcls, ln):
            return vcls

    else:

        def bucket_of(vcls, ln):
            capped = np.minimum(ln, k + 1)
            return np.where(vcls == 2, 2 * (k + 1), 2 * (capped - 1) + (vcls == 1))

    placement = model.model
    if placement is SecurityModel.FIRST:
        return lambda vcls, ln, sec: (1 - sec) * hi + bucket_of(vcls, ln) * mid + ln
    if placement is SecurityModel.SECOND:
        return lambda vcls, ln, sec: bucket_of(vcls, ln) * hi + (1 - sec) * mid + ln
    if placement is SecurityModel.THIRD:
        return lambda vcls, ln, sec: bucket_of(vcls, ln) * hi + ln * mid + (1 - sec)
    return lambda vcls, ln, sec: bucket_of(vcls, ln) * hi + ln * mid

#: Shared empty deployment so default-argument calls hit the mask cache.
_EMPTY_DEPLOYMENT = Deployment.empty()


class Reach(enum.IntFlag):
    """Which endpoints an AS's equally-best routes lead to."""

    NONE = 0
    DEST = 1
    ATTACKER = 2
    BOTH = 3


@dataclass(frozen=True)
class RouteInfo:
    """The fixed routing state of one AS for one (m, d, S) computation.

    Attributes:
        route_class: LP class of the best routes (None for d and m).
        length: AS-path length of the best routes (0 for d, 1 for m —
            the attacker claims a direct link to the destination).
        key: the model's rank key of the best routes (None for roots).
        next_hops: every neighbor realizing a best route (the BPR set).
        reaches: union of endpoints over the BPR set; ``BOTH`` means the
            AS's fate rests on its intradomain tiebreak (Section 4.1).
        secure: True if the best routes are secure *for this AS* — it
            runs full S*BGP and the routes were signed end-to-end.
        wire_secure: True if the announcement this AS propagates is
            fully signed (used when its neighbors rank the route).
        choice: next hop under the deterministic lowest-ASN tiebreak.
        endpoint: traffic destination under that tiebreak.
    """

    route_class: RouteClass | None
    length: int
    key: RankKey | None
    next_hops: tuple[int, ...]
    reaches: Reach
    secure: bool
    wire_secure: bool
    choice: int | None
    endpoint: Reach


class RoutingContext:
    """Dense-indexed adjacency plus reusable scratch for routing passes.

    Build once per graph.  ASNs are mapped onto contiguous indices
    ``0..n-1`` via :meth:`ASGraph.dense_index` (sorted-ASN order, so
    index tiebreaks equal ASN tiebreaks).  The adjacency is stored as
    flat CSR buffers:

    * ``adj_start`` — ``array('l')`` of length ``n + 1``; node ``u``'s
      out-edges occupy slots ``adj_start[u]:adj_start[u+1]``;
    * ``adj_node`` — ``array('l')`` of neighbor indices;
    * ``adj_class`` — bytearray; the LP class the *neighbor* assigns to
      a route learned from ``u``;
    * ``adj_custflag`` — bytearray; 1 iff the neighbor is a customer of
      ``u`` (the export rule lets non-customer routes flow only there).

    A numpy context holds them as ndarrays (int64 ``adj_start``/
    ``adj_node``, uint8 ``adj_class``/``adj_custflag``) that its kernels
    share without a copy (:meth:`_np_adjacency`).

    **Row layout.**  Each row lists ``u``'s providers, then its peers,
    then its customers (each group in index order), so ``adj_custflag``
    reads ``0…0 1…1`` along a row and the edges a non-customer route
    may be exported on are the row's last ``len(customers_idx[u])``
    slots.  :meth:`_run_np` expands only that tail for a source that
    does not export to everyone.

    Per-relationship index adjacency (``providers_idx`` etc.) serves
    the perceivable-closure and partition computations; a numpy context
    derives it lazily, as its kernels never read it.  The context
    never mutates the graph; it also owns the scratch buffers of the
    fixing pass, which makes a single context not thread-safe (fork
    workers each get a copy-on-write clone, which is safe).

    Args:
        graph: the topology to index.
        vectorized: True runs fixing passes on the numpy kernels,
            False on the scalar ones; None (the default)
            picks numpy where it was measured to win — a graph of
            :data:`VECTORIZED_MIN_N` ASes or more, numpy installed.

    Example:
        Build one context per graph and reuse it for every computation
        on that graph — the adjacency indexing is paid once:

        >>> from repro.topology.graph import ASGraph
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 1), (4, 2)]:
        ...     g.add_customer_provider(customer, provider)
        >>> ctx = RoutingContext(g)
        >>> ctx.n
        4
        >>> sorted(ctx.index_of)  # dense indices in sorted-ASN order
        [1, 2, 3, 4]
        >>> compute_routing_outcome(ctx, 4, attacker=3).count_happy()
        (1, 2)
    """

    __slots__ = (
        "graph",
        "asns",
        "index_of",
        "n",
        "adj_start",
        "adj_node",
        "adj_class",
        "adj_custflag",
        "_rel_idx",
        "vectorized",
        "_edges_cache",
        "_has_customers",
        "_np_adj",
        "_np_scratch",
        "_np_rows",
        "_np_post",
        "_neighbor_dicts",
        "_out_edges",
        "_mask_cache",
        "_stub_simplex_ok",
        "_zero_mask",
        "_fixed",
        "_key",
        "_cls",
        "_len",
        "_reach",
        "_wire",
        "_sec",
        "_choice",
        "_endpoint",
        "_nhops",
        "_key_init",
        "_zeros",
        "_choice_init",
        "_nhops_init",
        "_last_counts",
        "_sweep_owner",
    )

    def __init__(
        self,
        graph: ASGraph,
        *,
        vectorized: bool | None = None,
    ) -> None:
        self.graph = graph
        asn_of, index_of = graph.dense_index()
        n = len(asn_of)
        if n >= 1 << PACK_SHIFT:
            raise ValueError(
                f"graph has {n} ASes; the packed-key engine supports up to "
                f"{(1 << PACK_SHIFT) - 1}"
            )
        if vectorized is None:
            vectorized = _np is not None and n >= VECTORIZED_MIN_N
        elif vectorized and _np is None:  # pragma: no cover - numpy baked in
            raise RuntimeError("vectorized routing requires numpy")
        #: True when fixing passes run the numpy bucket kernel
        #: (:meth:`_run_np`) instead of the pure-python heap loop.
        self.vectorized = bool(vectorized)
        # Copy: dense_index's lists are shared graph-wide caches, and
        # ctx.asns has always been safe for callers to mutate.
        self.asns: list[int] = list(asn_of)
        self.index_of: dict[int, int] = index_of
        self.n = n

        self._rel_idx: tuple | None = None  # see _relationship_idx
        if self.vectorized:
            self._build_csr_np(graph)
        else:
            self._build_csr(graph)
        # Hot-loop adjacency for the pure kernel: per-node lists of
        # ``(v << 3)|(class << 1)|cust``.  Derived from the CSR; built
        # lazily on vectorized contexts, whose kernels never read it.
        self._edges_cache: list[list[int]] | None = (
            None if self.vectorized else self._build_edges()
        )
        self._np_adj: tuple | None = None
        #: where :meth:`_run_np` leaves its result; a numpy kernel
        #: never writes the python scratch below
        self._np_scratch: dict | None = None
        #: the flat state arrays of :meth:`_run_np`'s K-row calls
        self._np_rows: dict | None = None
        #: what :meth:`_np_nhop_pairs` needs of the most recent pass if
        #: :meth:`_run_np` ran it, None after a heap pass — so also
        #: which of the two scratch forms holds that pass's state
        self._np_post: tuple | None = None
        self._neighbor_dicts: tuple[dict, dict, dict] | None = None
        self._out_edges: dict | None = None
        self._mask_cache: dict = {}
        #: id → deployment that passed :meth:`require_stub_simplex`
        #: (weak: a dead deployment drops out, so ids cannot be recycled).
        self._stub_simplex_ok: "weakref.WeakValueDictionary[int, Deployment]" = (
            weakref.WeakValueDictionary()
        )
        self._zero_mask = bytearray(n)
        #: the heap loop's scratch (``_fixed`` … ``_nhops_init``): this
        #: None and the rest unset until the first heap pass allocates
        #: them (:meth:`_heap_scratch`)
        self._fixed: bytearray | None = None
        self._last_counts: tuple[int, int, int, int, int, int] = (0,) * 6
        #: Weak reference to the scalar :class:`DestinationSweep` whose
        #: baseline currently lives in the scratch buffers (None after a
        #: whole-graph heap pass).  Lets a sweep detect that someone else
        #: used the scratch in between and resynchronize from its
        #: snapshot instead of delta-fixing garbage; weak so a finished
        #: sweep's O(V+E) snapshot is not pinned alive by the context.
        self._sweep_owner: "weakref.ref[DestinationSweep] | None" = None

    # ------------------------------------------------------------------
    # Adjacency representations
    # ------------------------------------------------------------------
    def _build_csr(self, graph: ASGraph) -> None:
        """The scalar context's CSR and index tuples, one AS at a time."""
        index_of = self.index_of
        providers_idx: list[tuple[int, ...]] = []
        customers_idx: list[tuple[int, ...]] = []
        peers_idx: list[tuple[int, ...]] = []
        adj_start = array("l", [0])
        adj_node = array("l")
        adj_class = bytearray()
        adj_custflag = bytearray()
        cust = int(RouteClass.CUSTOMER)
        peer = int(RouteClass.PEER)
        prov = int(RouteClass.PROVIDER)
        for asn in self.asns:
            providers = sorted(index_of[p] for p in graph.providers(asn))
            peers = sorted(index_of[q] for q in graph.peers(asn))
            customers = sorted(index_of[c] for c in graph.customers(asn))
            providers_idx.append(tuple(providers))
            peers_idx.append(tuple(peers))
            customers_idx.append(tuple(customers))
            # A provider p sees a route via its customer u as a customer
            # route; a peer sees a peer route; a customer a provider route.
            for p in providers:
                adj_node.append(p)
                adj_class.append(cust)
                adj_custflag.append(0)
            for q in peers:
                adj_node.append(q)
                adj_class.append(peer)
                adj_custflag.append(0)
            for c in customers:
                adj_node.append(c)
                adj_class.append(prov)
                adj_custflag.append(1)
            adj_start.append(len(adj_node))
        self.adj_start = adj_start
        self.adj_node = adj_node
        self.adj_class = adj_class
        self.adj_custflag = adj_custflag
        self._rel_idx = (providers_idx, customers_idx, peers_idx)
        #: 1 per node that has a customer (:meth:`_run`'s selector)
        self._has_customers = bytes(map(bool, customers_idx))

    def _build_csr_np(self, graph: ASGraph) -> None:
        """:meth:`_build_csr`'s layout as ndarrays (int64 ``adj_start``/
        ``adj_node``, uint8 ``adj_class``/``adj_custflag``), from one
        pass over the graph's adjacency maps: one sort of the packed
        keys ``(u·3 + g)·n + v``, ``g`` = 0/1/2 for providers/peers/
        customers, lays every row out in the scalar loop's order."""
        np = _np
        n = self.n
        asns = self.asns
        # ASN → dense index: a direct table where the ASN space is compact
        # (ten times faster), else a binary search over the sorted ASNs.
        if n and asns[-1] < 8 * n:
            table = np.empty(asns[-1] + 1, np.int64)
            table[asns] = np.arange(n)
            index = table.take
        else:
            index = functools.partial(np.searchsorted, np.array(asns, np.int64))
        providers, customers, peers = graph.adjacency()
        groups = [list(map(m.__getitem__, asns)) for m in (providers, peers, customers)]
        counts = np.stack([np.fromiter(map(len, g), np.int64, n) for g in groups], 1)
        key = np.empty(int(counts.sum()), np.int64)
        end = 0
        for g, sets in enumerate(groups):
            seg = key[end : end + int(counts[:, g].sum())]
            end += len(seg)
            seg[:] = np.repeat(np.arange(g, 3 * n, 3), counts[:, g])
            seg *= n
            nbrs = itertools.chain.from_iterable(sets)
            seg += index(np.fromiter(nbrs, np.int64, len(seg)))
        del groups
        key.sort()
        np.remainder(key, max(n, 1), out=key)
        classes = np.array(
            [RouteClass.CUSTOMER, RouteClass.PEER, RouteClass.PROVIDER], np.uint8
        )
        self.adj_start = np.concatenate(([0], np.cumsum(counts.sum(axis=1))))
        self.adj_node = key
        self.adj_class = np.repeat(np.tile(classes, n), counts.ravel())
        self.adj_custflag = (self.adj_class == RouteClass.PROVIDER).view(np.uint8)
        self._has_customers = (counts[:, 2] > 0).tobytes()

    def _relationship_idx(self) -> tuple:
        """``(providers_idx, customers_idx, peers_idx)``, per node the
        sorted indices of each relationship; a numpy context derives them
        from the CSR the first time a scalar reader asks."""
        rel = self._rel_idx
        if rel is None:
            np = _np
            groups = []
            # A neighbor assigns a route via its customer u the class
            # CUSTOMER, so those are u's providers; peers, then customers.
            for cls in (RouteClass.CUSTOMER, RouteClass.PROVIDER, RouteClass.PEER):
                sel = self.adj_class == cls
                nodes = self.adj_node[sel].tolist()
                bounds = np.concatenate(([0], np.cumsum(sel)))[self.adj_start].tolist()
                groups.append([tuple(nodes[i:j]) for i, j in zip(bounds, bounds[1:])])
            rel = self._rel_idx = tuple(groups)
        return rel

    providers_idx = property(lambda self: self._relationship_idx()[0])
    customers_idx = property(lambda self: self._relationship_idx()[1])
    peers_idx = property(lambda self: self._relationship_idx()[2])

    def _build_edges(self) -> list[list[int]]:
        """Per-node packed-edge lists, derived from the CSR buffers."""
        n = self.n
        if _np is not None:
            np = _np
            node = np.asarray(self.adj_node, dtype=np.int64)
            cls_e = _u8(self.adj_class).astype(np.int64)
            cf = _u8(self.adj_custflag).astype(np.int64)
            packed = ((node << 3) | (cls_e << 1) | cf).tolist()
            starts = np.asarray(self.adj_start, dtype=np.int64).tolist()
            return [packed[starts[u] : starts[u + 1]] for u in range(n)]
        start = self.adj_start
        node = self.adj_node
        cls_e = self.adj_class
        cf = self.adj_custflag
        return [
            [
                (node[j] << 3) | (cls_e[j] << 1) | cf[j]
                for j in range(start[u], start[u + 1])
            ]
            for u in range(n)
        ]

    @property
    def _edges(self) -> list[list[int]]:
        """Hot-loop adjacency of the pure kernel (lazy on vectorized
        contexts: only a transit-simplex pass and :attr:`out_edges`)."""
        edges = self._edges_cache
        if edges is None:
            edges = self._edges_cache = self._build_edges()
        return edges

    # Called by perfbench/layers.py (close) and service_load.py (with).
    def close(self) -> None:
        """No-op: a context owns no OS resource."""

    def __enter__(self) -> "RoutingContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _np_adjacency(self):
        """Int64/bool CSR views for the vectorized kernel (cached):
        ``(start, node, cls_e, cf_b, esrc, cust_start)``, where row
        ``u``'s customer edges are ``cust_start[u]:start[u + 1]``."""
        adj = self._np_adj
        if adj is None:
            np = _np
            start = np.ascontiguousarray(self.adj_start, dtype=np.int64)
            node = np.ascontiguousarray(self.adj_node, dtype=np.int64)
            cls_e = _u8(self.adj_class).astype(np.int64)
            cf_b = _u8(self.adj_custflag).view(np.bool_)
            esrc = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(start)
            )
            cust_start = start[1:] - np.bincount(esrc[cf_b], minlength=self.n)
            adj = self._np_adj = (start, node, cls_e, cf_b, esrc, cust_start)
        return adj

    @property
    def batch_rows(self) -> int:
        """How many fixing passes one :meth:`_run_np` call takes as
        rows: what fits :data:`NP_ROWS_BUDGET`, at least one."""
        return max(1, NP_ROWS_BUDGET // self.n)

    def _np_ensure_scratch(self, rows: int, state: bool) -> dict:
        """The arrays a :meth:`_run_np` call computes in, reused.  A state
        call's are :attr:`_np_scratch`: int64 ``keyq`` (tentative keys;
        ``_NP_INF`` once fixed), ``key`` (final; ``_NP_INF`` for ``_INF``),
        ``cls``, ``len``, ``reach``, ``reach_hi``, ``wire``, ``sec``,
        ``choice``, ``endp``, ``chacc`` (the lowest tying offerer so far),
        bool ``fixed``.  A count call's are the first ``rows·n`` elements
        of :attr:`_np_rows` (``keyq``, int8 ``reach``/``reach_hi``/
        ``wire``/``sec``, ``fixed``), grown whenever a call needs more."""
        np = _np
        n = self.n
        if state:
            if self._np_scratch is None:
                self._np_scratch = {
                    name: np.zeros(n, np.int64)
                    for name in (
                        "keyq", "key", "cls", "len", "reach", "reach_hi",
                        "wire", "sec", "choice", "chacc", "endp",
                    )
                }
                self._np_scratch["fixed"] = np.zeros(n, np.bool_)
            return self._np_scratch
        st = self._np_rows
        if st is None or len(st["fixed"]) < rows * n:
            size = max(rows, self.batch_rows) * n
            st = self._np_rows = {
                name: np.zeros(size, np.int8)
                for name in ("reach", "reach_hi", "wire", "sec")
            }
            st["keyq"] = np.zeros(size, np.int64)
            st["fixed"] = np.zeros(size, np.bool_)
        return {name: arr[: rows * n] for name, arr in st.items()}

    # ------------------------------------------------------------------
    # ASN-keyed compatibility views (built lazily; the engine itself
    # works in index space)
    # ------------------------------------------------------------------
    def _relationship_dicts(self) -> tuple[dict, dict, dict]:
        built = self._neighbor_dicts
        if built is None:
            asn_of = self.asns
            providers_of = {}
            customers_of = {}
            peers_of = {}
            for u, asn in enumerate(asn_of):
                providers_of[asn] = tuple(asn_of[i] for i in self.providers_idx[u])
                customers_of[asn] = tuple(asn_of[i] for i in self.customers_idx[u])
                peers_of[asn] = tuple(asn_of[i] for i in self.peers_idx[u])
            built = self._neighbor_dicts = (providers_of, customers_of, peers_of)
        return built

    @property
    def providers_of(self) -> dict[int, tuple[int, ...]]:
        """ASN → sorted provider ASNs (compatibility view)."""
        return self._relationship_dicts()[0]

    @property
    def customers_of(self) -> dict[int, tuple[int, ...]]:
        """ASN → sorted customer ASNs (compatibility view)."""
        return self._relationship_dicts()[1]

    @property
    def peers_of(self) -> dict[int, tuple[int, ...]]:
        """ASN → sorted peer ASNs (compatibility view)."""
        return self._relationship_dicts()[2]

    @property
    def out_edges(self) -> dict[int, tuple[tuple[int, int, bool], ...]]:
        """ASN-keyed adjacency ``(v, class_for_v, v_is_customer)`` view."""
        built = self._out_edges
        if built is None:
            asn_of = self.asns
            built = {}
            for u, asn in enumerate(asn_of):
                built[asn] = tuple(
                    (asn_of[e >> 3], (e >> 1) & 3, bool(e & 1))
                    for e in self._edges[u]
                )
            self._out_edges = built
        return built

    # ------------------------------------------------------------------
    # Deployment masks
    # ------------------------------------------------------------------
    def deployment_masks(self, deployment: Deployment) -> tuple[bytearray, bytearray]:
        """``(signing, ranking)`` membership masks over dense indices.

        Cached per deployment object (identity-keyed with a strong
        reference, so ids cannot be recycled) because mask construction
        is O(n) while a batched sweep reuses the same deployment for
        thousands of pairs.  Deployment members absent from the graph
        are ignored, matching the seed engine's set-membership checks.
        """
        if deployment.size == 0:
            zero = self._zero_mask
            return zero, zero
        cache = self._mask_cache
        entry = cache.get(id(deployment))
        if entry is not None and entry[0] is deployment:
            return entry[1], entry[2]
        index_of = self.index_of
        signing = bytearray(self.n)
        ranking = bytearray(self.n)
        get = index_of.get
        for asn in deployment.full:
            i = get(asn)
            if i is not None:
                signing[i] = 1
                ranking[i] = 1
        for asn in deployment.simplex:
            i = get(asn)
            if i is not None:
                signing[i] = 1
        if len(cache) >= 8:
            cache.clear()
        cache[id(deployment)] = (deployment, signing, ranking)
        return signing, ranking

    def require_stub_simplex(self, deployment: Deployment) -> None:
        """Raise ``ValueError`` if a simplex member has customers.

        Section 5.3.2 defines simplex S*BGP for stubs, and the sweeps'
        delta re-fix is exact only there: with a *transit* simplex
        member (it signs what it re-announces but never ranks on
        security) a sweep can return counts that differ from the
        per-pair engine and :mod:`repro.core.refimpl`, which agree with
        each other.  Every sweep-backed entry point
        (:func:`jobs_happiness_counts` and its one-job calls
        :func:`batch_happiness_counts` and
        :func:`rollout_happiness_counts`, :class:`DestinationSweep`,
        :meth:`RolloutSweep.advance`) therefore rejects such a
        deployment; :func:`compute_routing_outcome` evaluates it per
        pair.  A deployment object that passed is remembered while it
        lives, so a batch pays the O(|simplex|) check once.
        """
        if not deployment.simplex:
            return
        checked = self._stub_simplex_ok
        if checked.get(id(deployment)) is deployment:
            return
        get = self.index_of.get
        has_customers = self._has_customers
        transit = sorted(
            asn
            for asn in deployment.simplex
            if (i := get(asn)) is not None and has_customers[i]
        )
        if transit:
            shown = ", ".join(map(str, transit[:10]))
            more = f" and {len(transit) - 10} more" if len(transit) > 10 else ""
            raise ValueError(
                f"simplex S*BGP is for stubs, but simplex member(s) "
                f"{shown}{more} have customers; the sweep-backed entry "
                f"points do not evaluate that — use "
                f"compute_routing_outcome per pair"
            )
        checked[id(deployment)] = deployment

    # ------------------------------------------------------------------
    # The fixing pass
    # ------------------------------------------------------------------
    def _check_pair(self, destination: int, attacker: int | None) -> tuple[int, int]:
        dest_i = self.index_of.get(destination)
        if dest_i is None:
            raise ValueError(f"destination AS {destination} not in graph")
        if attacker is None:
            return dest_i, -1
        att_i = self.index_of.get(attacker)
        if att_i is None:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if att_i == dest_i:
            raise ValueError("attacker and destination must differ")
        return dest_i, att_i

    def _resolve_attack(
        self,
        dest_i: int,
        att_i: int,
        signing: bytearray,
        ranking: bytearray,
        model: RankModel,
        attack: AttackStrategy,
    ) -> ResolvedAttack:
        """Resolve ``attack`` for one pair (running the attacker-free
        pass first when the strategy needs the attacker's baseline).

        On the per-pair paths a ``needs_baseline`` strategy therefore
        costs two full fixing passes per pair; the count path shares the
        baseline instead — a scalar sweep's snapshot, or one
        attacker-free pass per ``(d, S)`` for a numpy context's rows —
        so per-pair stays the simple oracle.
        """
        if att_i < 0:
            return DEFAULT_RESOLVED
        baseline = None
        if attack.needs_baseline:
            self._run(dest_i, -1, signing, ranking, model)
            if self._np_post is not None:
                st = self._np_scratch
                baseline = _attacker_baseline(
                    st["fixed"], st["len"], st["wire"], att_i
                )
            else:
                baseline = _attacker_baseline(
                    self._fixed, self._len, self._wire, att_i
                )
        return attack.resolve(dest_signed=bool(signing[dest_i]), baseline=baseline)

    def _heap_scratch(self) -> None:
        """Allocate the heap loop's scratch buffers, reset (not
        reallocated) by every later heap pass; a context whose passes
        all run :meth:`_run_np` never holds them."""
        n = self.n
        self._fixed = bytearray(n)
        self._key: list[int] = [_INF] * n
        self._cls = bytearray(n)
        self._len: list[int] = [0] * n
        self._reach = bytearray(n)
        self._wire = bytearray(n)
        self._sec = bytearray(n)
        self._choice: list[int] = [-1] * n
        self._endpoint = bytearray(n)
        self._nhops: list[list[int] | None] = [None] * n
        self._key_init = [_INF] * n
        self._zeros = bytes(n)
        self._choice_init = [-1] * n
        self._nhops_init: list[None] = [None] * n

    def _run(
        self,
        dest_i: int,
        att_i: int,
        signing: bytearray,
        ranking: bytearray,
        model: RankModel,
        attack: ResolvedAttack = DEFAULT_RESOLVED,
    ) -> None:
        """Run one fixing pass over the scratch buffers (``att_i = -1``
        for normal conditions; ``attack`` parameterizes how the attacker
        root announces).  Results live in the scratch of the kernel that
        ran (:attr:`_np_post` tells which) and :attr:`_last_counts`
        until the next run.

        A numpy context runs :meth:`_run_np` unless a node signs, does
        not rank and has a customer (transit simplex): its signed offer
        of a route it ranked insecure can get a key below its own, so
        fixing order is not key order — the heap loop below handles it."""
        if self.vectorized and not (
            (_u8(signing) > _u8(ranking)) & _u8(self._has_customers)
        ).any():
            self._run_np(
                [(dest_i, att_i, signing, ranking, attack)], model, state=True
            )
            return
        self._sweep_owner = None
        self._np_post = None
        n = self.n
        if self._fixed is None:
            self._heap_scratch()
        fixed = self._fixed
        key_l = self._key
        cls_b = self._cls
        len_l = self._len
        reach_b = self._reach
        wire_b = self._wire
        sec_b = self._sec
        choice_l = self._choice
        endp_b = self._endpoint
        nhops = self._nhops
        # Zero-fill / re-init between pairs instead of reallocating.
        fixed[:] = self._zeros
        key_l[:] = self._key_init
        reach_b[:] = self._zeros
        wire_b[:] = self._zeros
        sec_b[:] = self._zeros
        endp_b[:] = self._zeros
        choice_l[:] = self._choice_init
        nhops[:] = self._nhops_init

        coeffs = model.packed_coeffs()
        if coeffs is not None:
            cm, lm, sm = coeffs
            key_fn = None
        else:
            cm = lm = sm = 0
            key_fn = model.packed_key
        uses_sec = model.uses_security

        edges = self._edges
        heap: list[int] = []
        push = heapq.heappush
        pop = heapq.heappop

        def relax(u: int, exports_all: bool, ln: int, wire_u: int, reach_u: int) -> None:
            for e in edges[u]:
                v = e >> 3
                if fixed[v] or not (exports_all or (e & 1)):
                    continue
                vcls = (e >> 1) & 3
                if key_fn is None:
                    k = vcls * cm + ln * lm + (0 if (wire_u and ranking[v]) else sm)
                else:
                    k = key_fn(RouteClass(vcls), ln, bool(wire_u and ranking[v]))
                cur = key_l[v]
                if k < cur:
                    key_l[v] = k
                    cls_b[v] = vcls
                    len_l[v] = ln
                    reach_b[v] = reach_u
                    wire_b[v] = wire_u
                    nhops[v] = [u]
                    push(heap, (k << PACK_SHIFT) | v)
                elif k == cur:
                    nhops[v].append(u)  # type: ignore[union-attr]
                    reach_b[v] |= reach_u
                    if not wire_u:
                        wire_b[v] = 0

        # Roots: the destination originates the prefix; the attacker
        # originates its claimed path as the strategy resolved it (the
        # paper default: the bogus one-hop-longer "m d" via legacy BGP).
        dest_signed = 1 if signing[dest_i] else 0
        fixed[dest_i] = 1
        len_l[dest_i] = 0
        reach_b[dest_i] = 1
        endp_b[dest_i] = 1
        wire_b[dest_i] = dest_signed
        sec_b[dest_i] = dest_signed
        remaining = n - 1
        att_active = attack.active
        if att_i >= 0:
            fixed[att_i] = 1
            len_l[att_i] = attack.length
            if att_active:
                reach_b[att_i] = 2
                endp_b[att_i] = 2
            wire_b[att_i] = 1 if attack.wire else 0
            remaining -= 1
        relax(dest_i, True, 1, dest_signed, 1)
        if att_i >= 0 and att_active:
            relax(
                att_i,
                attack.export_all,
                attack.length + 1,
                1 if attack.wire else 0,
                2,
            )

        happy_lo = happy_up = att_lo = att_up = secure_n = nfixed = 0
        while heap:
            entry = pop(heap)
            v = entry & _IDX_MASK
            if fixed[v] or (entry >> PACK_SHIFT) != key_l[v]:
                continue  # already fixed, or a stale heap entry
            nh = nhops[v]
            ch = nh[0] if len(nh) == 1 else min(nh)  # type: ignore[index, arg-type]
            choice_l[v] = ch
            endp_b[v] = endp_b[ch]
            w = wire_b[v]
            s = 0
            if w:
                # "uses a secure route" is only meaningful when the model
                # ranks security: a baseline-model AS treats every route
                # as insecure even if the announcement arrived signed.
                if uses_sec and ranking[v]:
                    sec_b[v] = s = 1
                if not signing[v]:
                    wire_b[v] = 0  # v re-announces without a signature
            fixed[v] = 1
            nfixed += 1
            secure_n += s
            r = reach_b[v]
            if r == 1:
                happy_lo += 1
                happy_up += 1
            elif r == 2:
                att_lo += 1
                att_up += 1
            else:  # BOTH: the knife's edge population
                happy_up += 1
                att_up += 1
            remaining -= 1
            if remaining == 0:
                break
            relax(v, cls_b[v] == 0, len_l[v] + 1, wire_b[v], r)

        self._last_counts = (happy_lo, happy_up, att_lo, att_up, secure_n, nfixed)

    def _run_np(
        self, rows: Sequence[tuple], model: RankModel, *, state: bool = False
    ) -> list[tuple[int, int, int, int, int, int]]:
        """Vectorized twin of :meth:`_run`: K independent fixing passes
        — ``rows`` of ``(dest_i, att_i, signing, ranking, attack)``
        under one ``model`` — as one bucket-Dijkstra sweep; returns
        each row's counts (:attr:`_last_counts`' six).

        Rank keys are strictly monotone on every input this kernel
        takes (LP buckets never shrink along an export-legal edge,
        length always grows, and the one sender whose offer could be
        more secure than its own route, a simplex AS, is a stub here
        and exports nothing), so every node holding the current *global
        minimum* tentative key is final and each round can fix the
        whole minimum-key bucket at once, relaxing the edges it
        exports on in one batch of numpy gathers/scatters — the whole
        CSR row of a node holding a customer route (and of the
        destination), the customer tail of the row for everyone else,
        so an edge the export rule forbids is never expanded.  The
        number of such rounds is bounded by the number of *distinct*
        packed keys — a few dozen ``(class, length, security)``
        combinations at any graph size — so per-node python overhead
        vanishes, and what is left is numpy call overhead per round:
        K rows share it.  The packed key is injective in ``(class,
        length[, security])``, so a bucket's class (whether it exports
        to everyone) and length are scalars of the round, recorded with
        each key as it is minted: an edge offers ``table[2·receiver_class
        + (wire & ranking[v])]``, six keys a length (customer tail: 2).

        **Rows.**  The state arrays are flat, ``K·n`` long: node ``v``
        of row ``r`` is element ``r·n + v``, the CSR is the graph's own
        with the row's offset added to its targets, and roots, masks
        and resolved attack are per row.  Rows never touch, and the
        global minimum visits each row's buckets in that row's own
        ascending order, so every row is bit-identical to the pass it
        would be alone (``tools/kernel_crossover.py --rows`` times K
        against one at a time; :data:`NP_ROWS_BUDGET` caps ``K·n``).

        A call computes only what its counts read, in a scratch of its
        own, and leaves the last state call's result alone.  A ``state``
        call — one row, from :meth:`_run` and a numpy sweep's delta — also
        tracks the lowest tying offerer and fixes key, class, length,
        choice and endpoint per bucket; its result stays in place: nine
        int64/bool arrays in :attr:`_np_scratch` (the pure kernel's
        values, ``_NP_INF`` for ``_INF``), :attr:`_last_counts`, and
        :attr:`_np_post`, what :meth:`_np_nhop_pairs` needs besides them
        to derive next-hop membership, on demand.  The python scratch is
        never written; python objects per AS exist only in a
        :class:`RoutingOutcome` (:func:`_decode`).
        """
        np = _np
        n = self.n
        K = len(rows)
        int64, arange = np.int64, np.arange
        start, node, cls_e, _cf_b, _esrc, cust_start = self._np_adjacency()
        st = self._np_ensure_scratch(K, state)
        fills = {"keyq": _NP_INF, "key": _NP_INF, "choice": -1, "chacc": n}
        for name, arr in st.items():
            arr.fill(fills.get(name, 0))
        # The two reach bits accumulate apart, each by np.maximum.at
        # (numpy has no fast bitwise_or.at): ``reach`` holds the
        # destination's bit, ``reach_hi`` the attacker's, until the end.
        keyq, reach_s, reach_hi, wire_s, sec_s, fixed_s = (
            st[name]
            for name in ("keyq", "reach", "reach_hi", "wire", "sec", "fixed")
        )
        if state:
            # int64 copies: _np_post keeps the ranking mask, and a sweep
            # mutates its bytearrays after the pass
            ((dest_i, att_i, signing, ranking, attack),) = rows
            sign_np = _u8(signing).astype(int64)
            rank_np = _u8(ranking).astype(int64)
            chacc = st["chacc"]
        else:  # zero-copy int8 views of the rows' masks, end to end
            sign_np, rank_np = (
                np.concatenate([np.frombuffer(row[c], np.int8) for row in rows])
                if K > 1 else np.frombuffer(rows[0][c], np.int8)
                for c in (2, 3)
            )
        key_of = _np_key_fn(model)
        uses_sec = model.uses_security
        table_cls = np.repeat(arange(3, dtype=int64), 2)
        table_sec = np.tile(arange(2, dtype=int64), 3)
        tables: dict[int, object] = {}
        decode: dict[int, tuple[int, int]] = {}  # key → (class, length)

        def relax(F, exports_all: bool, ln: int) -> None:
            """Offer length-``ln`` routes on every edge the just-fixed
            sources F export on: whole CSR rows if they export to
            everyone, else the customer tails (the class's row layout)."""
            u = F if K == 1 else F % n
            s = start[u] if exports_all else cust_start[u]
            cnt = start[u + 1] - s
            tot = int(cnt.sum())
            if not tot:
                return
            # Edge indices, F-order: for each source its CSR slice,
            # concatenated.
            cend = np.cumsum(cnt)
            eidx = np.repeat(s - (cend - cnt), cnt) + arange(tot)
            rep = np.repeat(arange(len(F)), cnt)
            v = node[eidx]
            if K > 1:
                v += (F - u)[rep]
            ok = ~fixed_s[v]
            if not ok.any():
                return
            v = v[ok]
            rep = rep[ok]
            table = tables.get(ln)
            if table is None:
                table = tables[ln] = key_of(table_cls, ln, table_sec)
                for k, c in zip(table.tolist(), table_cls.tolist()):
                    decode[k] = (c, ln)
            wi = wire_s[F][rep]
            offer = wi & rank_np[v]
            # (a customer tail offers provider routes, class 2)
            k = table[((cls_e[eidx[ok]] << 1) if exports_all else 4) | offer]
            old = keyq[v]  # gather (a copy): pre-round tentative keys
            np.minimum.at(keyq, v, k)
            new = keyq[v]  # post-round tentative keys, per edge
            improved = new < old
            if improved.any():
                # Strict improvement resets the accumulators of the
                # *target*, exactly like the pure kernel's k < cur arm
                # (reach/wire/chacc re-accumulate from the identity).
                iv = v[improved]
                reach_s[iv] = 0
                reach_hi[iv] = 0
                wire_s[iv] = 1
                if state:
                    chacc[iv] = n
            tie = k == new
            tv = v[tie]
            rep = rep[tie]
            np.maximum.at(reach_s, tv, reach_s[F][rep])
            np.maximum.at(reach_hi, tv, reach_hi[F][rep])
            np.minimum.at(wire_s, tv, wi[tie])
            if state:
                np.minimum.at(chacc, tv, F[rep])

        # Roots (same semantics as the pure kernel's init block), every
        # row's at once; the attackers relax in groups of one export
        # scope and claimed length.
        base = arange(K, dtype=int64) * n
        dest = base + np.array([row[0] for row in rows], dtype=int64)
        fixed_s[dest] = True
        reach_s[dest] = 1
        wire_s[dest] = sec_s[dest] = sign_np[dest]
        attacked = [r for r, row in enumerate(rows) if row[1] >= 0]
        att = base[attacked] + np.array(
            [rows[r][1] for r in attacked], dtype=int64
        )
        fixed_s[att] = True
        groups: dict[tuple[bool, int], list[int]] = {}
        for r, a in zip(att.tolist(), (rows[r][4] for r in attacked)):
            wire_s[r] = a.wire
            if a.active:
                reach_hi[r] = 1
                groups.setdefault((a.export_all, a.length), []).append(r)
        if state:
            st["endp"][dest_i] = 1
            if att_i >= 0:
                st["len"][att_i] = attack.length
                st["endp"][att_i] = 2 if attack.active else 0
        relax(dest, True, 1)
        for (exports_all, length), announcing in groups.items():
            relax(np.array(announcing, dtype=int64), exports_all, length + 1)

        while True:
            gmin = int(keyq.min())
            if gmin >= _NP_INF:
                break
            B = np.flatnonzero(keyq == gmin)
            keyq[B] = _NP_INF
            fixed_s[B] = True
            cls_b, ln_b = decode[gmin]
            w = wire_s[B]
            if uses_sec:
                sec_s[B] = w & rank_np[B]
            wire_s[B] = w & sign_np[B]
            if state:
                st["key"][B] = gmin
                st["cls"][B] = cls_b
                st["len"][B] = ln_b
                ch = st["choice"][B] = chacc[B]  # the lowest tying offerer
                st["endp"][B] = st["endp"][ch]
            relax(B, cls_b == 0, ln_b + 1)

        reach_s |= reach_hi << 1
        counted = fixed_s.copy()
        counted[dest] = counted[att] = False
        counted = counted.reshape(K, n)
        r = np.where(counted, reach_s.reshape(K, n), 0)
        sec = counted & (sec_s.reshape(K, n) != 0)
        counts = [
            (lo, lo + b, alo, alo + b, s, nfx)
            for lo, alo, b, s, nfx in zip(*(
                np.count_nonzero(x, axis=1).tolist()
                for x in (r == 1, r == 2, r == 3, sec, counted)
            ))
        ]
        if state:
            self._last_counts = counts[0]
            self._np_post = (
                dest_i, att_i, attack.active, attack.export_all, key_of, rank_np
            )
        return counts

    def _np_nhop_pairs(self, st: dict, post: tuple):
        """Next-hop membership ``(us, vs)`` of one :meth:`_run_np`
        pass, sorted by ``(v, u)``: ``st`` holds the pass's state arrays
        (:attr:`_np_scratch` right after it, or a sweep's snapshot of
        them at any later time) and ``post`` its :attr:`_np_post`.

        Membership is decided arithmetically instead of by accumulating
        lists during the sweep: ``u ∈ nhops[v]`` iff both are fixed,
        ``u``'s export rule admits the edge, ``v`` is not a root and
        ``u``'s offer key equals ``v``'s final key (keys are strictly
        monotone, so a tying offerer fixed before ``v``).
        One whole-CSR batch evaluates every edge at once, and only a
        reader of next-hop sets pays for it: count-only workloads never
        do.
        """
        np = _np
        dest_i, att_i, att_active, att_exp, key_of, rank_np = post
        _start, node, cls_e, cf_b, esrc, _cust = self._np_adjacency()
        fixed_s = st["fixed"]
        key_real = st["key"]
        cls_s = st["cls"]
        len_s = st["len"]
        wire_s = st["wire"]
        u = esrc
        v = node
        exp = (cls_s[u] == 0) | cf_b
        # Root overrides: the origin exports to everyone; the attacker
        # per its resolved strategy (len_s/wire_s already hold the root
        # values the pure kernel relaxes with, so ln/wire need none).
        exp |= u == dest_i
        sel = fixed_s[u] & fixed_s[v] & (v != dest_i)
        if att_i >= 0:
            au = u == att_i
            if not att_active:
                exp &= ~au
            elif not att_exp:
                exp = np.where(au, cf_b, exp)
            else:
                exp |= au
            sel &= v != att_i
        sel &= exp
        us = u[sel]
        vs = v[sel]
        k = key_of(cls_e[sel], len_s[us] + 1, wire_s[us] & rank_np[vs])
        keep = k == key_real[vs]
        us = us[keep]
        vs = vs[keep]
        order = np.argsort(vs * self.n + us)
        return us[order], vs[order]

    def _snapshot(
        self,
        destination: int,
        attacker: int | None,
        deployment: Deployment,
        model: RankModel,
        dest_i: int,
        att_i: int,
        attack: AttackStrategy = DEFAULT_ATTACK,
        resolved: ResolvedAttack = DEFAULT_RESOLVED,
    ) -> "RoutingOutcome":
        """The most recent pass as a :class:`RoutingOutcome`, read from
        the scratch of the kernel that ran it."""
        post = self._np_post
        if post is not None:
            st = self._np_scratch
            state = _decode(st, *self._np_nhop_pairs(st, post))
        else:
            state = dict(
                _fixed=bytes(self._fixed),
                _cls=bytes(self._cls),
                _len=list(self._len),
                _reach=bytes(self._reach),
                _wire=bytes(self._wire),
                _sec=bytes(self._sec),
                _choice=list(self._choice),
                _endpoint=bytes(self._endpoint),
                _nhops=list(self._nhops),
            )
        return RoutingOutcome(
            destination=destination,
            attacker=attacker,
            deployment=deployment,
            model=model,
            attack=attack,
            _resolved=resolved,
            _ctx=self,
            _dest_i=dest_i,
            _att_i=att_i,
            _counts=self._last_counts,
            **state,
        )


def _attacker_baseline(fixed, length, wire, att_i: int) -> AttackerBaseline:
    """The attacker's legitimate record, from either state form."""
    return AttackerBaseline(
        has_route=bool(fixed[att_i]),
        length=int(length[att_i]),
        wire_secure=bool(wire[att_i]),
    )


def _decode(st: dict, us, vs) -> dict:
    """The one crossing from numpy state to python objects: the flat
    state fields of a :class:`RoutingOutcome` from nine per-node arrays
    (:meth:`RoutingContext._run_np`'s scratch, or a numpy sweep's
    baseline) and their ``(v, u)``-sorted next-hop membership pairs.

    Next-hop lists come out sorted by sender index (the pure kernel's
    are in fix order, which no consumer observes: they are read as
    sets, minima, or sorted).
    """
    np = _np

    def u8(name: str) -> bytes:
        return st[name].astype(np.uint8).tobytes()

    n = len(st["fixed"])
    nhops: list[list[int] | None] = [None] * n
    us_list = us.tolist()
    size = np.bincount(vs, minlength=n)
    end = np.cumsum(size)
    heads = np.flatnonzero(size)
    for v, a, b in zip(
        heads.tolist(), (end - size)[heads].tolist(), end[heads].tolist()
    ):
        nhops[v] = us_list[a:b]
    return dict(
        _fixed=st["fixed"].tobytes(),
        _cls=u8("cls"),
        _len=st["len"].tolist(),
        _reach=u8("reach"),
        _wire=u8("wire"),
        _sec=u8("sec"),
        _choice=st["choice"].tolist(),
        _endpoint=u8("endp"),
        _nhops=nhops,
    )


def _as_context(topology: ASGraph | RoutingContext) -> RoutingContext:
    if isinstance(topology, RoutingContext):
        return topology
    return RoutingContext(topology)


class _RouteView(Mapping):
    """Lazy ``{asn: RouteInfo}`` mapping over the flat result arrays.

    RouteInfo objects are materialized (and memoized) only for the ASes
    a caller actually touches; aggregate queries on
    :class:`RoutingOutcome` never build any.
    """

    __slots__ = ("_outcome", "_cache")

    def __init__(self, outcome: "RoutingOutcome") -> None:
        self._outcome = outcome
        self._cache: dict[int, RouteInfo] = {}

    def __getitem__(self, asn: int) -> RouteInfo:
        info = self._cache.get(asn)
        if info is not None:
            return info
        o = self._outcome
        i = o._ctx.index_of.get(asn)
        if i is None or not o._fixed[i]:
            raise KeyError(asn)
        info = o._build_info(i)
        self._cache[asn] = info
        return info

    def __contains__(self, asn: object) -> bool:
        o = self._outcome
        i = o._ctx.index_of.get(asn)  # type: ignore[arg-type]
        return i is not None and bool(o._fixed[i])

    def __iter__(self) -> Iterator[int]:
        o = self._outcome
        fixed = o._fixed
        asn_of = o._ctx.asns
        for i in range(o._ctx.n):
            if fixed[i]:
                yield asn_of[i]

    def __len__(self) -> int:
        o = self._outcome
        return o._counts[5] + (2 if o._att_i >= 0 else 1)


class RoutingOutcome:
    """The stable state for one ``(destination, attacker, S, model)``.

    Backed by flat per-index arrays snapshotted from the engine's
    scratch buffers; :attr:`routes` is a lazily-materialized
    :class:`RouteInfo` view kept for API compatibility.  ASes with no
    route at all (possible on disconnected inputs) are absent from
    :attr:`routes`.
    """

    __slots__ = (
        "destination",
        "attacker",
        "deployment",
        "model",
        "attack",
        "_resolved",
        "_ctx",
        "_dest_i",
        "_att_i",
        "_fixed",
        "_cls",
        "_len",
        "_reach",
        "_wire",
        "_sec",
        "_choice",
        "_endpoint",
        "_nhops",
        "_counts",
        "_routes",
    )

    def __init__(
        self,
        destination: int,
        attacker: int | None,
        deployment: Deployment,
        model: RankModel,
        _ctx: RoutingContext,
        attack: AttackStrategy,
        _resolved: ResolvedAttack,
        _dest_i: int,
        _att_i: int,
        _fixed: bytes,
        _cls: bytes,
        _len: list[int],
        _reach: bytes,
        _wire: bytes,
        _sec: bytes,
        _choice: list[int],
        _endpoint: bytes,
        _nhops: list,
        _counts: tuple[int, int, int, int, int, int],
    ) -> None:
        self.destination = destination
        self.attacker = attacker
        self.deployment = deployment
        self.model = model
        self.attack = attack
        self._resolved = _resolved
        self._ctx = _ctx
        self._dest_i = _dest_i
        self._att_i = _att_i
        self._fixed = _fixed
        self._cls = _cls
        self._len = _len
        self._reach = _reach
        self._wire = _wire
        self._sec = _sec
        self._choice = _choice
        self._endpoint = _endpoint
        self._nhops = _nhops
        self._counts = _counts
        self._routes: _RouteView | None = None

    @property
    def total_ases(self) -> int:
        return self._ctx.n

    @property
    def routes(self) -> _RouteView:
        view = self._routes
        if view is None:
            view = self._routes = _RouteView(self)
        return view

    def _build_info(self, i: int) -> RouteInfo:
        ctx = self._ctx
        asn_of = ctx.asns
        if i == self._dest_i:
            signed = bool(self._sec[i])
            return RouteInfo(
                route_class=None,
                length=0,
                key=None,
                next_hops=(),
                reaches=Reach.DEST,
                secure=signed,
                wire_secure=signed,
                choice=None,
                endpoint=Reach.DEST,
            )
        if i == self._att_i:
            res = self._resolved
            reach = Reach.ATTACKER if res.active else Reach.NONE
            return RouteInfo(
                route_class=None,
                length=res.length,  # the claimed path (default: "m d")
                key=None,
                next_hops=(),
                reaches=reach,
                secure=False,
                # valid-*looking* attributes count as wire security for
                # receivers; a silent attacker announces nothing.
                wire_secure=res.wire,
                choice=None,
                endpoint=reach,
            )
        route_class = RouteClass(self._cls[i])
        length = self._len[i]
        secure = bool(self._sec[i])
        # The rank-time security bit equals the stored secure bit for
        # security-aware models and is ignored by the baseline key, so
        # the tuple key reconstructs exactly.
        return RouteInfo(
            route_class=route_class,
            length=length,
            key=self.model.key(route_class, length, secure),
            next_hops=tuple(asn_of[j] for j in sorted(self._nhops[i])),
            reaches=Reach(self._reach[i]),
            secure=secure,
            wire_secure=bool(self._wire[i]),
            choice=asn_of[self._choice[i]],
            endpoint=Reach(self._endpoint[i]),
        )

    # -- source enumeration ------------------------------------------------
    @property
    def num_sources(self) -> int:
        """|V| minus the destination and (if present) the attacker."""
        return self._ctx.n - (2 if self.attacker is not None else 1)

    def is_source(self, asn: int) -> bool:
        return asn != self.destination and asn != self.attacker

    def sources(self) -> Iterator[int]:
        """All fixed ASes other than the roots."""
        fixed = self._fixed
        asn_of = self._ctx.asns
        dest_i = self._dest_i
        att_i = self._att_i
        for i in range(self._ctx.n):
            if fixed[i] and i != dest_i and i != att_i:
                yield asn_of[i]

    # -- per-AS predicates -------------------------------------------------
    def _index(self, asn: int) -> int | None:
        i = self._ctx.index_of.get(asn)
        if i is None or not self._fixed[i]:
            return None
        return i

    def reaches(self, asn: int) -> Reach:
        i = self._index(asn)
        return Reach(self._reach[i]) if i is not None else Reach.NONE

    def happy_lower(self, asn: int) -> bool:
        """Happy under adversarial tiebreaking (all BPR routes legit)."""
        i = self._index(asn)
        return i is not None and self._reach[i] == 1

    def happy_upper(self, asn: int) -> bool:
        """Happy under friendly tiebreaking (some BPR route is legit)."""
        i = self._index(asn)
        return i is not None and bool(self._reach[i] & 1)

    def uses_secure_route(self, asn: int) -> bool:
        """True if the AS's best routes are secure (it validates them)."""
        i = self._index(asn)
        return i is not None and bool(self._sec[i])

    # -- aggregate counts --------------------------------------------------
    def count_happy(self) -> tuple[int, int]:
        """(lower bound, upper bound) on the number of happy sources."""
        return self._counts[0], self._counts[1]

    def count_attacked(self) -> tuple[int, int]:
        """(lower, upper) bounds on sources routing to the attacker."""
        return self._counts[2], self._counts[3]

    def count_secure_sources(self) -> int:
        """Sources whose best routes are secure."""
        return self._counts[4]

    def secure_sources(self) -> frozenset[int]:
        """The sources of :meth:`count_secure_sources`, as ASNs."""
        sec = self._sec
        asn_of = self._ctx.asns
        dest_i = self._dest_i
        att_i = self._att_i
        return frozenset(
            asn_of[i]
            for i in range(self._ctx.n)
            if sec[i] and i != dest_i and i != att_i
        )

    # -- concrete (deterministic tiebreak) view ----------------------------
    def concrete_endpoint(self, asn: int) -> Reach:
        i = self._index(asn)
        return Reach(self._endpoint[i]) if i is not None else Reach.NONE

    def concrete_path(self, asn: int) -> tuple[int, ...]:
        """The physical AS path under the deterministic tiebreak.

        For attacked routes the path ends at the attacker (where traffic
        actually terminates), not at the claimed destination.
        """
        i = self._index(asn)
        if i is None:
            return ()
        asn_of = self._ctx.asns
        choice = self._choice
        path = [asn_of[i]]
        seen = {i}
        while True:
            i = choice[i]
            if i < 0:
                return tuple(path)
            if i in seen:  # pragma: no cover - defended against, impossible
                raise RuntimeError(f"routing loop through AS {asn_of[i]}")
            seen.add(i)
            path.append(asn_of[i])


def compute_routing_outcome(
    topology: ASGraph | RoutingContext,
    destination: int,
    attacker: int | None = None,
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> RoutingOutcome:
    """Compute the unique stable routing state (Theorem 2.1).

    Args:
        topology: the AS graph, or a prebuilt :class:`RoutingContext`
            (build one when calling repeatedly on the same graph).
        destination: the victim AS ``d`` originating the prefix.
        attacker: the attacking AS ``m``; None for normal conditions.
        deployment: the secure set ``S``; defaults to ``S = ∅``.
        model: the routing-policy model; defaults to the baseline
            (origin authentication only).
        attack: the attacker strategy (:mod:`repro.core.attacks`);
            defaults to the paper's Section 3.1 one-hop hijack — ``m``
            announces the bogus path ``"m d"`` via legacy BGP to all
            its neighbors.

    Returns:
        A :class:`RoutingOutcome`.
    """
    ctx = _as_context(topology)
    deployment = deployment or _EMPTY_DEPLOYMENT
    dest_i, att_i = ctx._check_pair(destination, attacker)
    signing, ranking = ctx.deployment_masks(deployment)
    resolved = ctx._resolve_attack(dest_i, att_i, signing, ranking, model, attack)
    ctx._run(dest_i, att_i, signing, ranking, model, resolved)
    return ctx._snapshot(
        destination, attacker, deployment, model, dest_i, att_i, attack, resolved
    )


def normal_conditions(
    topology: ASGraph | RoutingContext,
    destination: int,
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
) -> RoutingOutcome:
    """Routing to ``destination`` when nobody attacks (m = ∅)."""
    return compute_routing_outcome(
        topology, destination, attacker=None, deployment=deployment, model=model
    )


# ----------------------------------------------------------------------
# Destination-major incremental sweeps
# ----------------------------------------------------------------------
class DestinationSweep:
    """Amortized attacker sweeps against one ``(d, deployment, model)``.

    The paper's metric evaluates many attackers per destination; a full
    fixing pass per ``(m, d)`` pair recomputes the attacker-free routing
    state of ``d`` from scratch every time.  This class runs that
    attacker-free pass **once**, snapshots the stable arrays, and
    computes each attacker's stable state by *delta re-fixing*: only the
    region whose record actually changes relative to normal conditions
    is reprocessed, and the touched entries are restored from the
    snapshot between attackers.  Per-attacker cost is ``O(dirty region)``
    instead of ``O(|V| + |E|)``.

    Correctness rests on two invariants of the fixing pass:

    * **Dependency closure** — a record can change only through its
      baseline next-hop set (reach/wire/choice/endpoint all flow through
      ``nhops``), so resetting the reverse-``nhops`` closure of the
      attacker invalidates every AS whose baseline state is void;
    * **Monotone frontier** — any *new* route the attack introduces
      reaches an AS through a strictly increasing rank key, so a clean
      fixed AS needs re-fixing only when a dirty neighbor's re-fixed
      route offers a key ``<=`` its baseline key (detected during the
      delta pass and handled by dynamically invalidating that AS, its
      dependency closure, and re-collecting offers for any pending node
      that had accumulated an offer from the invalidated region).

    Both invalidation channels preserve the Dijkstra order of the delta
    pass (an invalidated AS re-enters the frontier above every key
    popped so far), so the pass fixes exactly the stable state of
    Theorem 2.1 — differential tests hold it bit-identical to the
    per-pair engine and to :mod:`repro.core.refimpl`.

    On a scalar context the sweep owns the context's scratch buffers
    while it works; if another computation uses the context in between,
    the next delta detects it (via ``RoutingContext._sweep_owner``) and
    resynchronizes from the snapshot in one ``O(n)`` copy.  On a numpy
    context there is no delta: the snapshot is a dict of arrays, and
    each attacker (or advance) is one dense state pass,
    :meth:`_delta_dense` (:func:`jobs_happiness_counts` builds no sweep
    there: its groups are rows).  Like the context itself, a sweep is not thread-safe;
    fork workers each own a clone.

    Example:
        One sweep amortizes many attackers against one destination and
        is bit-identical to the per-pair engine:

        >>> from repro.topology.graph import ASGraph
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        ...     g.add_customer_provider(customer, provider)
        >>> sweep = DestinationSweep(g, destination=4)
        >>> sweep.baseline_counts()   # attacker-free happy bounds
        (4, 4)
        >>> sweep.counts([5, 3, 1])   # (lower, upper, num_sources) each
        [(2, 2, 3), (1, 2, 3), (1, 1, 3)]
        >>> [compute_routing_outcome(g, 4, attacker=m).count_happy()
        ...  for m in (5, 3, 1)]
        [(2, 2), (1, 2), (1, 1)]
    """

    __slots__ = (
        "__weakref__",
        "ctx",
        "destination",
        "deployment",
        "model",
        "attack",
        "_dest_i",
        "_root_att",
        "_dest_signed",
        "_last_res",
        "_signing",
        "_ranking",
        "_b_fixed",
        "_b_key",
        "_b_cls",
        "_b_len",
        "_b_reach",
        "_b_wire",
        "_b_sec",
        "_b_choice",
        "_b_endpoint",
        "_b_nhops",
        "_b_counts",
        "_dep",
        "_dirty",
        "last_delta_path",
        "_np_base",
    )

    def __init__(
        self,
        topology: ASGraph | RoutingContext,
        destination: int,
        deployment: Deployment | None = None,
        model: RankModel = BASELINE,
        attack: AttackStrategy = DEFAULT_ATTACK,
    ) -> None:
        ctx = _as_context(topology)
        self.ctx = ctx
        self.destination = destination
        self.deployment = deployment = deployment or _EMPTY_DEPLOYMENT
        self.model = model
        self.attack = attack
        #: the path the most recent delta ran (None before the first):
        #: ``"pure"`` on a scalar context, ``"dense"`` on a numpy one.
        self.last_delta_path: str | None = None
        self._np_base: dict | None = None
        self._last_res = DEFAULT_RESOLVED
        dest_i, _ = ctx._check_pair(destination, None)
        self._dest_i = dest_i
        try:
            self._root_att
        except AttributeError:
            #: index of an attacker rooted *in the baseline itself* (-1
            #: for the normal attacker-free baseline; ``_AttackerChain``
            #: assigns its attacker before delegating here).
            self._root_att = -1
        ctx.require_stub_simplex(deployment)
        signing, ranking = ctx.deployment_masks(deployment)
        self._signing = signing
        self._ranking = ranking
        self._dest_signed = bool(signing[dest_i])
        # The baseline fixing pass, run exactly once per sweep.
        self._run_baseline()
        self._take_baseline()
        self._dirty = bytearray(ctx.n)

    def _run_baseline(self) -> None:
        """Run the sweep's baseline fixing pass (attacker-free here; the
        rollout attacker-chain walker overrides this to root its
        attacker)."""
        self.ctx._run(
            self._dest_i, -1, self._signing, self._ranking, self.model
        )

    def _take_baseline(self) -> None:
        """Snapshot the pass that just ran as this sweep's baseline.

        A sweep holds exactly one snapshot form, chosen by
        ``ctx.vectorized``.  On a scalar context the baselines are
        python bytearrays/lists copied from the scratch buffers, which
        the sweep then owns (mutable so the rollout advance,
        :class:`RolloutSweep`, can commit a delta in place; a plain
        :class:`DestinationSweep` never mutates them) and the
        reverse-dependency lists are built on the first delta
        (:meth:`_ensure_dep`).  On a numpy context the snapshot is
        copies of the bucket kernel's nine state arrays and the pass's
        ``post`` — no python object per AS, and no next-hop membership
        either: :meth:`baseline_outcome`, its only reader, derives the
        pairs from these copies when first asked.
        """
        ctx = self.ctx
        self._b_counts = ctx._last_counts
        self._dep = None
        self._np_base = None
        if ctx.vectorized:
            st = ctx._np_scratch
            base = {
                name: st[name].copy()
                for name in (
                    "fixed", "key", "cls", "len", "reach",
                    "wire", "sec", "choice", "endp",
                )
            }
            self._b_fixed = None
            self._b_key = None
            self._b_cls = None
            self._b_len = None
            self._b_reach = None
            self._b_wire = None
            self._b_sec = None
            self._b_choice = None
            self._b_endpoint = None
            self._b_nhops = None
            self._np_base = base
            base["post"] = ctx._np_post
            return
        # Inner next-hop lists are shared with the scratch arrays; the
        # delta pass never mutates a restored list (every mutation path
        # starts with a reset to None followed by a fresh list), which is
        # the same contract _snapshot relies on.
        self._b_nhops = list(ctx._nhops)
        self._b_fixed = bytearray(ctx._fixed)
        self._b_key = list(ctx._key)
        self._b_cls = bytearray(ctx._cls)
        self._b_len = list(ctx._len)
        self._b_reach = bytearray(ctx._reach)
        self._b_wire = bytearray(ctx._wire)
        self._b_sec = bytearray(ctx._sec)
        self._b_choice = list(ctx._choice)
        self._b_endpoint = bytearray(ctx._endpoint)
        ctx._sweep_owner = weakref.ref(self)

    def _ensure_dep(self) -> list[list[int]]:
        """Reverse-dependency lists over the baseline next-hop sets:
        ``dep[u]`` holds every v whose baseline BPR set contains u.
        Built on the first pure delta, amortized over all attackers."""
        dep = self._dep
        if dep is None:
            dep = [[] for _ in range(self.ctx.n)]
            for v, h in enumerate(self._b_nhops):
                if h:
                    for u in h:
                        dep[u].append(v)
            self._dep = dep
        return dep

    # ------------------------------------------------------------------
    @property
    def num_sources(self) -> int:
        """Sources per attack: |V| minus destination and attacker."""
        return self.ctx.n - 2

    def baseline_counts(self) -> tuple[int, int]:
        """``(happy_lower, happy_upper)`` under normal conditions."""
        return self._b_counts[0], self._b_counts[1]

    def baseline_outcome(self) -> RoutingOutcome:
        """The attacker-free :class:`RoutingOutcome` (``m = None``)."""
        ctx = self.ctx
        base = self._np_base
        if base is not None:
            # next-hop pairs from the snapshot's own arrays and ``post``
            # (the context's scratch belongs to whichever pass ran last)
            if "pairs" not in base:
                base["pairs"] = ctx._np_nhop_pairs(base, base["post"])
            return RoutingOutcome(
                destination=self.destination,
                attacker=None,
                deployment=self.deployment,
                model=self.model,
                attack=self.attack,
                _resolved=DEFAULT_RESOLVED,
                _ctx=ctx,
                _dest_i=self._dest_i,
                _att_i=-1,
                _counts=self._b_counts,
                **_decode(base, *base["pairs"]),
            )
        self._ensure_scratch()
        ctx._last_counts = self._b_counts
        return ctx._snapshot(
            self.destination, None, self.deployment, self.model,
            self._dest_i, -1, self.attack, DEFAULT_RESOLVED,
        )

    def happiness_counts(self, attacker: int) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)`` for one attacker."""
        counts, touched = self._delta(self._attacker_index(attacker))
        self._restore(touched)
        return counts[0], counts[1], self.ctx.n - 2

    def counts(self, attackers: Sequence[int]) -> list[tuple[int, int, int]]:
        """:meth:`happiness_counts` for many attackers in one sweep."""
        return [self.happiness_counts(m) for m in attackers]

    def outcome(self, attacker: int) -> RoutingOutcome:
        """The full stable state for one attacker (API-compatible with
        :func:`compute_routing_outcome`; computed incrementally on a
        scalar context, by one dense pass on a numpy one)."""
        att_i = self._attacker_index(attacker)
        ctx = self.ctx
        counts, touched = self._delta(att_i)
        ctx._last_counts = counts
        snap = ctx._snapshot(
            self.destination, attacker, self.deployment, self.model,
            self._dest_i, att_i, self.attack, self._last_res,
        )
        self._restore(touched)
        return snap

    # ------------------------------------------------------------------
    def _attacker_index(self, attacker: int) -> int:
        att_i = self.ctx.index_of.get(attacker)
        if att_i is None:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if att_i == self._dest_i:
            raise ValueError("attacker and destination must differ")
        self._ensure_scratch()
        return att_i

    def _ensure_scratch(self) -> None:
        """Resync the scratch buffers from the snapshot if another
        computation used the context since the last delta (a numpy
        sweep's deltas are whole passes: nothing to resync)."""
        if self._np_base is not None:
            return
        ctx = self.ctx
        owner = ctx._sweep_owner
        if owner is not None and owner() is self:
            return
        ctx._fixed[:] = self._b_fixed
        ctx._key[:] = self._b_key
        ctx._cls[:] = self._b_cls
        ctx._len[:] = self._b_len
        ctx._reach[:] = self._b_reach
        ctx._wire[:] = self._b_wire
        ctx._sec[:] = self._b_sec
        ctx._choice[:] = self._b_choice
        ctx._endpoint[:] = self._b_endpoint
        ctx._nhops[:] = self._b_nhops
        ctx._sweep_owner = weakref.ref(self)

    def _restore(self, touched: list[int] | None) -> None:
        """Return every touched scratch entry to its baseline value (a
        numpy delta never wrote one: nothing to undo)."""
        if self._np_base is not None:
            return
        ctx = self.ctx
        fixed = ctx._fixed
        key_l = ctx._key
        cls_b = ctx._cls
        len_l = ctx._len
        reach_b = ctx._reach
        wire_b = ctx._wire
        sec_b = ctx._sec
        choice_l = ctx._choice
        endp_b = ctx._endpoint
        nhops = ctx._nhops
        b_fixed = self._b_fixed
        b_key = self._b_key
        b_cls = self._b_cls
        b_len = self._b_len
        b_reach = self._b_reach
        b_wire = self._b_wire
        b_sec = self._b_sec
        b_choice = self._b_choice
        b_endp = self._b_endpoint
        b_nhops = self._b_nhops
        dirty = self._dirty
        for x in touched:
            fixed[x] = b_fixed[x]
            key_l[x] = b_key[x]
            cls_b[x] = b_cls[x]
            len_l[x] = b_len[x]
            reach_b[x] = b_reach[x]
            wire_b[x] = b_wire[x]
            sec_b[x] = b_sec[x]
            choice_l[x] = b_choice[x]
            endp_b[x] = b_endp[x]
            nhops[x] = b_nhops[x]
            dirty[x] = 0

    def _resolve_delta(self, att_i: int, advance: bool) -> ResolvedAttack | None:
        """Resolve the attacker strategy for one delta (shared by both
        kernel paths).  The snapshot holds the attacker-free state, so
        ``needs_baseline`` strategies read the attacker's legitimate
        record for free; on an advance the attacker is already rooted in
        the baseline and its resolution was fixed when the chain walker
        built it."""
        if att_i < 0:
            return None
        if advance:
            return self._last_res
        attack = self.attack
        baseline = None
        if attack.needs_baseline:
            base = self._np_base
            if base is not None:
                baseline = _attacker_baseline(
                    base["fixed"], base["len"], base["wire"], att_i
                )
            else:
                baseline = _attacker_baseline(
                    self._b_fixed, self._b_len, self._b_wire, att_i
                )
        res = attack.resolve(dest_signed=self._dest_signed, baseline=baseline)
        self._last_res = res
        return res

    def _delta(
        self,
        att_i: int,
        extra_resets: Sequence[int] | None = None,
    ) -> tuple[tuple[int, int, int, int, int, int], list[int] | None]:
        """Delta re-fix for one attacker or advance.

        The context selects the implementation, and nothing else does:

        * a scalar context (``ctx.vectorized`` false) runs the
          interpreted heap loop, :meth:`_delta_pure`, in the python
          scratch: the caller restores or commits ``touched``;
        * a numpy context runs one dense :meth:`RoutingContext._run_np`
          state pass (:meth:`_delta_dense`, ``touched=None``).

        Both compute the same bit-identical result; the one that ran is
        recorded in :attr:`last_delta_path` (``"pure"`` or ``"dense"``).
        """
        res = self._resolve_delta(att_i, extra_resets is not None)
        if not self.ctx.vectorized:
            self.last_delta_path = "pure"
            return self._delta_pure(att_i, extra_resets, res)
        self.last_delta_path = "dense"
        return self._delta_dense(att_i, res)

    def _delta_dense(
        self,
        att_i: int,
        res: ResolvedAttack | None,
    ) -> tuple[tuple[int, int, int, int, int, int], None]:
        """A numpy context's delta: recompute the attacked (or
        advanced) state from scratch in one vectorized pass (a sweep's
        masks passed ``require_stub_simplex``, so ``_run_np`` takes
        them).  Returns ``touched=None``; the state is the context's
        last pass, for :meth:`_take_baseline` (an advance) or
        :meth:`RoutingContext._snapshot` (:meth:`outcome`) to pick
        up."""
        ctx = self.ctx
        row = (
            self._dest_i, att_i, self._signing, self._ranking,
            res if res is not None else DEFAULT_RESOLVED,
        )
        return ctx._run_np([row], self.model, state=True)[0], None

    def _delta_pure(
        self,
        att_i: int,
        extra_resets: Sequence[int] | None,
        res: ResolvedAttack | None,
    ) -> tuple[tuple[int, int, int, int, int, int], list[int]]:
        """Delta re-fix for one attacker, or a deployment advance (the
        scalar-context implementation; reads the python snapshot).

        Two modes share the pass:

        * **attacker delta** (``extra_resets is None``): root ``att_i``'s
          claimed announcement into the attacker-free baseline (steps
          1-5 below);
        * **deployment advance** (``extra_resets`` given — the newly-
          secured indices, after :class:`RolloutSweep` flipped their
          bits in the signing/ranking masks): void the seeds' closures
          instead; ``att_i`` then names an attacker *already rooted in
          the baseline* (-1 for the attacker-free baseline) so the
          boundary collection keeps offering its claimed path.

        Leaves the scratch buffers holding the re-fixed stable state and
        returns ``(counts, touched)``; the caller must either
        :meth:`_restore` ``touched`` (attacker deltas) or commit it as
        the new baseline (rollout advances) before the next delta.
        """
        ctx = self.ctx
        dest_i = self._dest_i
        fixed = ctx._fixed
        key_l = ctx._key
        cls_b = ctx._cls
        len_l = ctx._len
        reach_b = ctx._reach
        wire_b = ctx._wire
        sec_b = ctx._sec
        choice_l = ctx._choice
        endp_b = ctx._endpoint
        nhops = ctx._nhops
        edges = ctx._edges
        signing = self._signing
        ranking = self._ranking
        dirty = self._dirty
        dep = self._ensure_dep()
        model = self.model
        coeffs = model.packed_coeffs()
        if coeffs is not None:
            cm, lm, sm = coeffs
            key_fn = None
        else:
            cm = lm = sm = 0
            key_fn = model.packed_key
        uses_sec = model.uses_security
        dest_signed = 1 if signing[dest_i] else 0
        advance = extra_resets is not None
        if att_i >= 0:
            att_active = res.active
            att_ln = res.length + 1  # length ranked by the attacker's neighbors
            att_wire = 1 if res.wire else 0
            att_exp = res.export_all
        else:
            att_active = False
            att_ln = att_wire = 0
            att_exp = False
        heap: list[int] = []
        push = heapq.heappush
        pop = heapq.heappop
        touched: list[int] = []
        #: clean nodes whose BPR set was *pruned* (``dirty == 2``): their
        #: key/class/length/wire are untouched, so only reach/choice/
        #: endpoint need the soft recompute at the end.
        soft_prunes: list[int] = []

        # Inner helpers bind the hot arrays as default arguments: the
        # delta pass calls them thousands of times per attacker, and the
        # LOAD_FAST locals are measurably cheaper than closure cells.
        def reset_closure(
            w: int,
            dirty=dirty,
            touched=touched,
            fixed=fixed,
            key_l=key_l,
            sec_b=sec_b,
            wire_b=wire_b,
            nhops=nhops,
            dep=dep,
            signing=signing,
            soft_prunes=soft_prunes,
        ) -> list[int]:
            """Hard-reset ``w`` and the part of its baseline dependency
            closure whose records cannot survive; returns the newly
            (hard-)reset nodes.

            A dependent that keeps at least one live BPR member does
            *not* need the hard reset: all members tie on the rank key,
            so its key/class/length/wire are intact and only its reach/
            choice/endpoint can shift — it is *pruned* instead (the dead
            members are dropped, ``dirty = 2``) and recomputed by the
            soft phase, exactly like a deferred knife-edge tie.  The one
            exception is a prune that would flip the node's wire
            security (every surviving offer signed where the old mix was
            not, at a signing node): that changes what it offers
            downstream, so it is hard-reset after all.  Mixed-wire BPR
            sets only exist where the rank key ignores the security bit,
            so the surviving-member scan is exact, not heuristic.

            Only the fields the re-fix actually relies on are reset:
            ``fixed``/``key`` drive the pass, ``nhops`` must be None for
            the stale-offer repair test, and ``sec`` because the pop
            step sets it conditionally.  The rest (cls/len/reach/wire/
            choice/endpoint) are overwritten by the first improvement or
            at pop time and are never read while unfixed.
            """
            stack = [w]
            resets: list[int] = []
            while stack:
                x = stack.pop()
                was = dirty[x]
                if was == 1:
                    continue
                dirty[x] = 1
                if not was:
                    touched.append(x)
                resets.append(x)
                fixed[x] = 0
                key_l[x] = _INF
                sec_b[x] = 0
                nhops[x] = None
                for y in dep[x]:
                    if dirty[y] == 1 or not fixed[y]:
                        continue
                    h = nhops[y]
                    if h is None:
                        continue
                    if len(h) == 1:
                        # Singleton BPR set (the common case): either
                        # its only member just died (hard reset) or this
                        # is a stale dependency entry (rollout chains).
                        if dirty[h[0]] == 1:
                            stack.append(y)
                        continue
                    live = 0
                    for u in h:
                        if dirty[u] != 1:
                            live += 1
                    if not live:
                        stack.append(y)
                        continue
                    if live == len(h):
                        continue  # stale dependency entry (rollout chains)
                    keep = [u for u in h if dirty[u] != 1]
                    if (
                        signing[y]
                        and not wire_b[y]
                        and all(wire_b[u] for u in keep)
                    ):
                        # Pruning the insecure members would flip y's
                        # wire security — a record change after all.
                        stack.append(y)
                        continue
                    if not dirty[y]:
                        dirty[y] = 2
                        touched.append(y)
                        soft_prunes.append(y)
                    # Copy-on-write: the baseline inner list is shared
                    # with the snapshot and must stay pristine.
                    nhops[y] = keep
            return resets

        def gather(
            x: int,
            edges=edges,
            fixed=fixed,
            key_l=key_l,
            cls_b=cls_b,
            len_l=len_l,
            reach_b=reach_b,
            wire_b=wire_b,
            nhops=nhops,
            ranking=ranking,
            heap=heap,
            push=push,
            dest_i=dest_i,
            att_i=att_i,
            dest_signed=dest_signed,
            att_active=att_active,
            att_ln=att_ln,
            att_wire=att_wire,
            att_exp=att_exp,
            cm=cm,
            lm=lm,
            sm=sm,
            key_fn=key_fn,
            RouteClass=RouteClass,
        ) -> None:
            """Collect offers to a freshly reset ``x`` from every fixed
            neighbor (roots included, with their root semantics)."""
            for e in edges[x]:
                u = e >> 3
                if not fixed[u]:
                    continue
                # From x's edge entry: ucls is the class u assigns to a
                # route learned from x; relationships are symmetric, so
                # the class x assigns to a route from u is 2 - ucls, and
                # u may export to x iff u's best route is a customer
                # route or u is x's provider (ucls == CUSTOMER).
                ucls = (e >> 1) & 3
                if u == dest_i:
                    ln = 1
                    wire_u = dest_signed
                    reach_u = 1
                elif u == att_i:
                    # The attacker root offers its claimed path — unless
                    # it is silent, or its export scope excludes x (x is
                    # the attacker's customer iff ucls == CUSTOMER).
                    if not (att_active and (att_exp or ucls == 0)):
                        continue
                    ln = att_ln
                    wire_u = att_wire
                    reach_u = 2
                else:
                    if cls_b[u] != 0 and ucls != 0:
                        continue
                    ln = len_l[u] + 1
                    wire_u = wire_b[u]
                    reach_u = reach_b[u]
                icls = 2 - ucls
                if key_fn is None:
                    k = icls * cm + ln * lm + (
                        0 if (wire_u and ranking[x]) else sm
                    )
                else:
                    k = key_fn(RouteClass(icls), ln, bool(wire_u and ranking[x]))
                cur = key_l[x]
                if k < cur:
                    key_l[x] = k
                    cls_b[x] = icls
                    len_l[x] = ln
                    reach_b[x] = reach_u
                    wire_b[x] = wire_u
                    nhops[x] = [u]
                    push(heap, (k << PACK_SHIFT) | x)
                elif k == cur:
                    nhops[x].append(u)  # type: ignore[union-attr]
                    reach_b[x] |= reach_u
                    if not wire_u:
                        wire_b[x] = 0

        def invalidate(
            w: int,
            edges=edges,
            fixed=fixed,
            key_l=key_l,
            cls_b=cls_b,
            len_l=len_l,
            reach_b=reach_b,
            wire_b=wire_b,
            nhops=nhops,
            ranking=ranking,
            heap=heap,
            push=push,
            dest_i=dest_i,
            att_i=att_i,
            dest_signed=dest_signed,
            att_active=att_active,
            att_ln=att_ln,
            att_wire=att_wire,
            att_exp=att_exp,
            cm=cm,
            lm=lm,
            sm=sm,
            key_fn=key_fn,
            RouteClass=RouteClass,
        ) -> None:
            """Dynamically invalidate clean fixed ``w``: reset its
            dependency closure, re-collect each reset node's offers from
            its still-fixed neighbors, and repair unfixed nodes holding
            offers from the invalidated region.  Both directions of each
            reset node's adjacency are handled in one scan."""
            resets = reset_closure(w)
            repair: list[int] | None = None
            for x in resets:
                for e in edges[x]:
                    u = e >> 3
                    if fixed[u]:
                        # Offer u -> x (x was just reset); inline gather.
                        ucls = (e >> 1) & 3
                        if u == dest_i:
                            ln = 1
                            wire_u = dest_signed
                            reach_u = 1
                        elif u == att_i:
                            if not (att_active and (att_exp or ucls == 0)):
                                continue
                            ln = att_ln
                            wire_u = att_wire
                            reach_u = 2
                        else:
                            if cls_b[u] != 0 and ucls != 0:
                                continue
                            ln = len_l[u] + 1
                            wire_u = wire_b[u]
                            reach_u = reach_b[u]
                        icls = 2 - ucls
                        if key_fn is None:
                            k = icls * cm + ln * lm + (
                                0 if (wire_u and ranking[x]) else sm
                            )
                        else:
                            k = key_fn(
                                RouteClass(icls), ln, bool(wire_u and ranking[x])
                            )
                        cur = key_l[x]
                        if k < cur:
                            key_l[x] = k
                            cls_b[x] = icls
                            len_l[x] = ln
                            reach_b[x] = reach_u
                            wire_b[x] = wire_u
                            nhops[x] = [u]
                            push(heap, (k << PACK_SHIFT) | x)
                        elif k == cur:
                            nhops[x].append(u)  # type: ignore[union-attr]
                            reach_b[x] |= reach_u
                            if not wire_u:
                                wire_b[x] = 0
                    else:
                        # u is unfixed: if it accumulated x's (now void)
                        # offer, it must be repaired below.
                        h = nhops[u]
                        if h is not None and x in h:
                            if repair is None:
                                repair = [u]
                            else:
                                repair.append(u)
            if repair is None:
                return
            for x in repair:
                if nhops[x] is None:
                    continue  # already repaired via another reset
                # The node accumulated an offer from a now-invalid
                # record.  Every live offer it has received came from a
                # still-fixed neighbor, so wiping the accumulated state
                # and re-collecting from fixed neighbors reconstructs
                # exactly the valid offers (stale heap entries are
                # skipped by the key check at pop time).
                key_l[x] = _INF
                nhops[x] = None
                gather(x)

        # Deferred knife-edge ties: a re-fixed route that exactly ties a
        # clean node's baseline key without changing its wire security
        # alters only the node's BPR membership and reach — those are
        # patched by the cheap soft phase at the end instead of hard
        # re-fixing the node's whole dependency closure.
        ties: list[tuple[int, int]] = []

        if not advance:
            # Step 1: void the attacker's own record and everything whose
            # baseline best routes pass through it.
            resets0 = reset_closure(att_i)
            # Step 2: the attacker becomes a root announcing its claimed
            # path as the strategy resolved it (the paper default: the
            # bogus one-hop path "m d" via legacy BGP).
            fixed[att_i] = 1
            len_l[att_i] = res.length
            reach_b[att_i] = 2 if att_active else 0
            endp_b[att_i] = 2 if att_active else 0
            wire_b[att_i] = att_wire
            choice_l[att_i] = -1
            # Step 3: the claimed announcement reaches every neighbor in
            # the strategy's export scope (default: all of them — legacy
            # BGP lets the lie flow everywhere, since the claimed path
            # looks like a customer route the attacker may export to
            # anyone).
            pending: list[int] = []
            if att_active:
                for e in edges[att_i]:
                    if not (att_exp or (e & 1)):
                        continue  # outside the export scope (non-customer)
                    w = e >> 3
                    if dirty[w] == 1:
                        continue  # reset in step 1; gather() delivers it
                    vcls = (e >> 1) & 3
                    if key_fn is None:
                        k = vcls * cm + att_ln * lm + (
                            0 if (att_wire and ranking[w]) else sm
                        )
                    else:
                        k = key_fn(
                            RouteClass(vcls), att_ln, bool(att_wire and ranking[w])
                        )
                    if fixed[w]:
                        if w == dest_i:
                            continue
                        cur = key_l[w]
                        if k < cur or (k == cur and not att_wire and wire_b[w]):
                            pending.append(w)
                        elif k == cur:
                            ties.append((w, att_i))
                        continue
                    # Unreachable under normal conditions: first offer.
                    cur = key_l[w]
                    if k < cur:
                        key_l[w] = k
                        cls_b[w] = vcls
                        len_l[w] = att_ln
                        reach_b[w] = 2
                        wire_b[w] = att_wire
                        nhops[w] = [att_i]
                        push(heap, (k << PACK_SHIFT) | w)
            # Step 4: boundary offers for the step-1 resets (the attacker
            # is fixed now, so the collection includes the bogus offer
            # exactly once).
            for x in resets0:
                if x != att_i:
                    gather(x)
            # Step 5: neighbors whose baseline route loses to the bogus
            # one.
            for w in pending:
                if dirty[w] != 1:
                    invalidate(w)
        else:
            # Rollout advance: the newly-secured ASes are the only nodes
            # whose rank inputs changed (their ranking bit lowers the
            # keys they assign, their signing bit what they re-announce).
            # Void them and their dependency closures first, then collect
            # boundary offers under the already-updated masks; everything
            # further out is discovered by the same boundary-invalidation
            # machinery the attacker delta uses.  Roots (the destination
            # and, on attacker chains, the rooted attacker) never seed:
            # their announcements do not depend on their secure bits
            # (the destination's own signing flip rebuilds the sweep).
            resets0 = []
            for v in extra_resets:
                if dirty[v] != 1:
                    resets0.extend(reset_closure(v))
            for x in resets0:
                gather(x)

        # Step 6: the delta fixing pass, clean fixed nodes acting as a
        # frozen boundary whose re-offers were collected above.
        while heap:
            entry = pop(heap)
            v = entry & _IDX_MASK
            if fixed[v] or (entry >> PACK_SHIFT) != key_l[v]:
                continue
            nh = nhops[v]
            ch = nh[0] if len(nh) == 1 else min(nh)  # type: ignore[index, arg-type]
            choice_l[v] = ch
            endp_b[v] = endp_b[ch]
            w_ = wire_b[v]
            if w_:
                if uses_sec and ranking[v]:
                    sec_b[v] = 1
                if not signing[v]:
                    wire_b[v] = 0
            fixed[v] = 1
            if not dirty[v]:
                dirty[v] = 1  # first touch of a baseline-unreachable node
                touched.append(v)
            exports_all = cls_b[v] == 0
            ln = len_l[v] + 1
            wire_v = wire_b[v]
            reach_v = reach_b[v]
            deferred: list[int] | None = None
            for e in edges[v]:
                if not (exports_all or (e & 1)):
                    continue
                w = e >> 3
                if fixed[w]:
                    # Boundary edge into the fixed region.  Re-fixed
                    # (dirty) targets and roots never need another look;
                    # a clean or soft-pruned target is invalidated when
                    # the re-fixed route beats its baseline key or ties
                    # it while flipping its wire security (deferred so
                    # this relaxation finishes first — the re-collection
                    # then delivers v's offer exactly once).  An exact
                    # tie that preserves wire security only widens the
                    # target's knife edge: record it for the soft phase.
                    if dirty[w] == 1 or w == dest_i or w == att_i:
                        continue
                    vcls = (e >> 1) & 3
                    if key_fn is None:
                        k = vcls * cm + ln * lm + (
                            0 if (wire_v and ranking[w]) else sm
                        )
                    else:
                        k = key_fn(
                            RouteClass(vcls), ln, bool(wire_v and ranking[w])
                        )
                    cur = key_l[w]
                    if k < cur or (k == cur and not wire_v and wire_b[w]):
                        if deferred is None:
                            deferred = [w]
                        else:
                            deferred.append(w)
                    elif k == cur:
                        ties.append((w, v))
                    continue
                vcls = (e >> 1) & 3
                if key_fn is None:
                    k = vcls * cm + ln * lm + (
                        0 if (wire_v and ranking[w]) else sm
                    )
                else:
                    k = key_fn(RouteClass(vcls), ln, bool(wire_v and ranking[w]))
                cur = key_l[w]
                if k < cur:
                    key_l[w] = k
                    cls_b[w] = vcls
                    len_l[w] = ln
                    reach_b[w] = reach_v
                    wire_b[w] = wire_v
                    nhops[w] = [v]
                    push(heap, (k << PACK_SHIFT) | w)
                elif k == cur:
                    nhops[w].append(v)  # type: ignore[union-attr]
                    reach_b[w] |= reach_v
                    if not wire_v:
                        wire_b[w] = 0
            if deferred is not None:
                for w in deferred:
                    if dirty[w] != 1:
                        invalidate(w)

        # Step 7 (soft phase): apply the deferred knife-edge ties and
        # recompute the pruned nodes.  Each tie adds one member to a
        # clean node's BPR set, each prune removed members whose records
        # were voided — either way the node's key, class, length and
        # wire security are untouched, so nothing it offers changes;
        # only reach, choice and endpoint can shift, and those flow
        # strictly upward in rank key through BPR membership.  The
        # worklist recomputes affected nodes in increasing key order:
        # clean consumers come from the baseline dependency lists,
        # re-fixed consumers from the new BPR sets of this pass.
        if ties or soft_prunes:
            cons: dict[int, list[int]] = {}
            for v in touched:
                if fixed[v] and dirty[v] == 1 and v != att_i:
                    for u in nhops[v]:  # type: ignore[union-attr]
                        lst = cons.get(u)
                        if lst is None:
                            cons[u] = [v]
                        else:
                            lst.append(v)
            work: list[int] = []
            for w in soft_prunes:
                if dirty[w] == 2:  # not promoted to a hard reset later
                    push(work, (key_l[w] << PACK_SHIFT) | w)
            for w, u in ties:
                if dirty[w] == 1:
                    continue  # hard-invalidated later; tie re-collected
                if dirty[w]:
                    nhops[w].append(u)  # type: ignore[union-attr]
                else:
                    dirty[w] = 2
                    touched.append(w)
                    # Copy-on-write: the baseline inner list is shared
                    # with the snapshot and must stay pristine.
                    nhops[w] = nhops[w] + [u]  # type: ignore[operator]
                push(work, (key_l[w] << PACK_SHIFT) | w)
            while work:
                x = pop(work) & _IDX_MASK
                nh = nhops[x]
                if nh is None:
                    continue  # promoted to a hard reset after enqueue
                r = 0
                for u in nh:
                    r |= reach_b[u]
                ch = nh[0] if len(nh) == 1 else min(nh)
                ep = endp_b[ch]
                if (
                    r == reach_b[x]
                    and ep == endp_b[x]
                    and ch == choice_l[x]
                ):
                    continue
                if not dirty[x]:
                    dirty[x] = 2
                    touched.append(x)
                reach_b[x] = r
                choice_l[x] = ch
                endp_b[x] = ep
                for y in dep[x]:
                    if dirty[y] != 1 and fixed[y]:
                        push(work, (key_l[y] << PACK_SHIFT) | y)
                lst = cons.get(x)
                if lst is not None:
                    for y in lst:
                        push(work, (key_l[y] << PACK_SHIFT) | y)

        # O(touched) count update: start from the baseline counts, swap
        # out each touched node's baseline contribution for its new one.
        # Roots never count: the attacker-delta's root *was* a source in
        # the attacker-free baseline (its contribution is swapped out),
        # while a chain baseline's rooted attacker never contributed.
        lo, up, alo, aup, sec_n, nfx = self._b_counts
        b_fixed = self._b_fixed
        b_reach = self._b_reach
        b_sec = self._b_sec
        root_att = self._root_att
        for x in touched:
            if x != root_att and b_fixed[x]:
                r = b_reach[x]
                if r == 1:
                    lo -= 1
                    up -= 1
                elif r == 2:
                    alo -= 1
                    aup -= 1
                else:
                    up -= 1
                    aup -= 1
                sec_n -= b_sec[x]
                nfx -= 1
            if x != att_i and fixed[x]:
                r = reach_b[x]
                if r == 1:
                    lo += 1
                    up += 1
                elif r == 2:
                    alo += 1
                    aup += 1
                else:
                    up += 1
                    aup += 1
                sec_n += sec_b[x]
                nfx += 1
        return (lo, up, alo, aup, sec_n, nfx), touched


# ----------------------------------------------------------------------
# Rollout-major sweeps over nested-deployment chains
# ----------------------------------------------------------------------
def _check_nested(old: Deployment, new: Deployment) -> None:
    """Raise ``ValueError`` unless ``old → new`` is a chain step: both
    the full set and the signing set (full ∪ simplex) may only grow."""
    if not (old.full <= new.full and old.simplex - new.simplex <= new.full):
        raise ValueError(
            "rollout chains must be nested: both the full set and "
            "the signing set may only grow between steps"
        )


def _chain_step(ctx: RoutingContext, old: Deployment, new: Deployment) -> tuple:
    """What the chain step ``old → new`` changes, for
    :meth:`RolloutSweep._apply`: ``(new, sign_idx, rank_idx,
    gain_idx)`` — as dense indices (members absent from the graph
    dropped) the set of ASes that start signing, the set that start
    ranking, and the sorted union of the two.  Raises ``ValueError``
    unless the step is nested (:func:`_check_nested`)."""
    _check_nested(old, new)
    get = ctx.index_of.get
    sign_idx = {
        i
        for asn in (new.full | new.simplex) - (old.full | old.simplex)
        if (i := get(asn)) is not None
    }
    rank_idx = {
        i for asn in new.full - old.full if (i := get(asn)) is not None
    }
    return new, sign_idx, rank_idx, sorted(sign_idx | rank_idx)


class RolloutSweep(DestinationSweep):
    """A :class:`DestinationSweep` that walks a *nested-deployment
    chain* ``S_0 ⊆ S_1 ⊆ … ⊆ S_T`` for one destination.

    The paper's rollout figures (7a/7b/8/11) — and the far larger
    deployment-ordering sweeps of follow-up work — evaluate the same
    attacker set against the same destination under a chain of growing
    deployments.  A fresh sweep per step pays a full attacker-free
    fixing pass, snapshot and dependency build every time, although
    adjacent steps differ by a handful of newly-secured ASes.
    :meth:`advance` instead re-fixes only the region whose routing
    records can change when those ASes flip their secure bits — their
    ranking bit lowers the keys they assign, their signing bit upgrades
    what they re-announce — using the same boundary-invalidation and
    knife-edge-tie machinery as the attacker delta, and then *commits*
    the touched entries into the baseline snapshot instead of restoring
    them.  (On a numpy context an advance, like an attacker, is one
    dense pass, whose state becomes the new snapshot.)

    Two further chain-structure savings stack on top on a scalar
    context:

    * the reverse-dependency lists are patched (append-only) for the
      committed entries instead of being rebuilt per step — stale
      entries only ever cause a harmless extra reset;
    * per-attacker results are memoized across steps: an attacker delta
      reads baseline records only inside its touched region and that
      region's neighborhood, so when an advance leaves that region
      untouched the attacker's counts simply shift with the baseline
      counts (``counts_t − baseline_t`` is invariant) and the delta is
      skipped entirely.

    Chains must be nested *per membership mode*: both the ranking set
    (``full``) and the signing set (``full ∪ simplex``) may only grow
    (a simplex→full promotion is allowed).  :meth:`advance` raises
    ``ValueError`` otherwise.  Results are bit-identical to building a
    fresh sweep per step, which is what the differential tests enforce.

    Example:
        Walking a chain reuses the converged arrays between steps and
        matches fresh per-step sweeps exactly:

        >>> from repro.topology.graph import ASGraph
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        ...     g.add_customer_provider(customer, provider)
        >>> chain = [Deployment.empty(), Deployment.of([1, 2]),
        ...          Deployment.of([1, 2, 3, 4])]
        >>> sweep = RolloutSweep(g, destination=4, deployment=chain[0])
        >>> walked = [sweep.happiness_counts(5)]
        >>> for step in chain[1:]:
        ...     sweep.advance(step)
        ...     walked.append(sweep.happiness_counts(5))
        >>> fresh = [DestinationSweep(g, 4, s).happiness_counts(5)
        ...          for s in chain]
        >>> walked == fresh
        True
    """

    __slots__ = ("_memo", "_dep_slack")

    def __init__(
        self,
        topology: ASGraph | RoutingContext,
        destination: int,
        deployment: Deployment | None = None,
        model: RankModel = BASELINE,
        attack: AttackStrategy = DEFAULT_ATTACK,
    ) -> None:
        super().__init__(topology, destination, deployment, model, attack)
        # Private mutable masks: the parent's come from the context's
        # per-deployment cache (and may even be its shared zero mask),
        # so advancing in place would poison other computations.
        self._signing = bytearray(self._signing)
        self._ranking = bytearray(self._ranking)
        #: attacker index → (read region, counts delta vs baseline).
        self._memo: dict[int, tuple[frozenset[int], tuple[int, int]]] = {}
        #: dep entries appended since the last exact (re)build; commits
        #: trigger a rebuild once this exceeds n, bounding staleness.
        self._dep_slack = 0

    def advance(self, deployment: Deployment) -> None:
        """Move the sweep's baseline to the next chain step in place
        (``ValueError``, before anything changes, if ``deployment`` does
        not nest the current one or has a transit simplex member)."""
        self.ctx.require_stub_simplex(deployment)
        self._apply(_chain_step(self.ctx, self.deployment, deployment))

    def _apply(self, step: tuple) -> None:
        """Advance by a :func:`_chain_step` from this sweep's current
        deployment (the chain walkers compute each step once and hand
        it to every sweep on the chain)."""
        deployment, sign_idx, rank_idx, gain_idx = step
        self.deployment = deployment
        dest_i = self._dest_i
        if dest_i in sign_idx:
            # The destination's own origin signing flips: the root's
            # announcement changes, so every record is suspect — rebuild
            # from a full fixing pass (rare: once per chain at most).
            self._rebuild()
            return
        root_att = self._root_att
        # Roots never seed a reset: their records ignore offers and
        # their secure bits are never read (the destination's ranking
        # bit is only consulted for offers *to* it, which roots discard;
        # a rooted attacker announces its resolved claim regardless of
        # its own membership — the paper's attacker ignores protocol).
        seeds = [i for i in gain_idx if i != dest_i and i != root_att]
        self._ensure_scratch()
        signing = self._signing
        ranking = self._ranking
        for i in sign_idx:
            signing[i] = 1
        for i in rank_idx:
            ranking[i] = 1
        if not seeds:
            return
        counts, touched = self._delta(self._root_att, extra_resets=seeds)
        if touched is None:
            # A numpy context's delta is one full pass of the advanced
            # state: adopt it wholesale as a fresh snapshot (its sweeps
            # memoize nothing and keep no dependency lists).
            self._take_baseline()
            return
        self._commit(counts, touched, seeds)

    def _rebuild(self) -> None:
        """Full re-fix fallback (destination signing flipped)."""
        ctx = self.ctx
        signing, ranking = ctx.deployment_masks(self.deployment)
        self._signing = bytearray(signing)
        self._ranking = bytearray(ranking)
        self._dest_signed = bool(signing[self._dest_i])
        self._run_baseline()
        self._take_baseline()
        self._memo.clear()
        self._dep_slack = 0

    def _commit(
        self,
        counts: tuple[int, int, int, int, int, int],
        touched: list[int],
        seeds: Sequence[int],
    ) -> None:
        """Adopt a scalar advance's re-fixed state as the new baseline:
        copy the touched entries from the scratch buffers into the
        python snapshot and patch the ``dep`` lists append-only.
        """
        ctx = self.ctx
        self._b_counts = counts
        fixed = ctx._fixed
        key_l = ctx._key
        cls_b = ctx._cls
        len_l = ctx._len
        reach_b = ctx._reach
        wire_b = ctx._wire
        sec_b = ctx._sec
        choice_l = ctx._choice
        endp_b = ctx._endpoint
        nhops = ctx._nhops
        b_nhops = self._b_nhops
        b_fixed = self._b_fixed
        b_key = self._b_key
        b_cls = self._b_cls
        b_len = self._b_len
        b_reach = self._b_reach
        b_wire = self._b_wire
        b_sec = self._b_sec
        b_choice = self._b_choice
        b_endp = self._b_endpoint
        dep = self._dep  # built by the pure delta that just ran
        dirty = self._dirty
        appended = 0
        for x in touched:
            b_fixed[x] = fixed[x]
            b_key[x] = key_l[x]
            b_cls[x] = cls_b[x]
            b_len[x] = len_l[x]
            b_reach[x] = reach_b[x]
            b_wire[x] = wire_b[x]
            b_sec[x] = sec_b[x]
            b_choice[x] = choice_l[x]
            b_endp[x] = endp_b[x]
            old = b_nhops[x]
            h = nhops[x]
            b_nhops[x] = h
            dirty[x] = 0
            if h is not None and fixed[x]:
                # Append-only dependency patch: entries for dropped
                # memberships go stale, and re-appearing memberships
                # duplicate — both at worst re-reset a node whose
                # record would have survived, never incorrect.  Only
                # genuinely new-vs-the-replaced-record memberships
                # are appended, and the periodic rebuild below bounds
                # the accumulated slack on long chains.
                for u in h:
                    if old is None or u not in old:
                        dep[u].append(x)
                        appended += 1
        self._dep_slack += appended
        if self._dep_slack > ctx.n:
            # Stale and duplicated entries only cost harmless extra
            # resets, but on a long chain they would accumulate; one
            # linear rebuild per ~n appended entries keeps every dep
            # list exact at amortized O(1) per commit.
            self._dep = None
            self._ensure_dep()
            self._dep_slack = 0
        if self._memo:
            changed = set(touched)
            changed.update(seeds)
            self._memo = {
                a: entry
                for a, entry in self._memo.items()
                if entry[0].isdisjoint(changed)
            }

    def happiness_counts(self, attacker: int) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)``, memoized across
        chain steps when the attacker's read region survived the last
        advance untouched."""
        att_i = self._attacker_index(attacker)
        b = self._b_counts
        entry = self._memo.get(att_i)
        if entry is not None:
            d_lo, d_up = entry[1]
            return b[0] + d_lo, b[1] + d_up, self.ctx.n - 2
        counts, touched = self._delta(att_i)
        # The delta read baseline records only at touched nodes and
        # their neighbors (gather sources and boundary targets), so that
        # region is the memo's validity certificate.  Tracking it only
        # pays when the region is small — which is also exactly when the
        # next advance is likely to miss it.  A numpy context's dense
        # pass (``touched is None``) read everything: nothing to memoize.
        if touched is not None and len(touched) <= self.ctx.n >> 3:
            region = set(touched)
            edges = self.ctx._edges
            for x in touched:
                for e in edges[x]:
                    region.add(e >> 3)
            self._memo[att_i] = (
                frozenset(region),
                (counts[0] - b[0], counts[1] - b[1]),
            )
        self._restore(touched)
        return counts[0], counts[1], self.ctx.n - 2


class _AttackerChain(RolloutSweep):
    """A rollout chain whose baseline *is* one attacker's stable state.

    When a destination group has only a few attackers, re-running each
    attacker's delta at every chain step costs a blast-radius-sized
    re-fix per (attacker, step) — at low deployment levels that is as
    expensive as a full fixing pass, so the shared-baseline walk saves
    nothing.  This walker instead roots the attacker *into* the chain
    baseline: one full attacked pass at ``S_0``, then each step is a
    single ``O(changed)`` advance of the attacked state, and the step's
    counts are simply the committed baseline counts.

    Only valid for strategies whose resolution is step-stable: a
    ``needs_baseline`` strategy (e.g. ``honest``) re-resolves against
    the attacker-free state of *each* deployment, which this walker does
    not maintain.  The destination's own signing flip re-resolves and
    rebuilds (via :meth:`RolloutSweep._rebuild` → :meth:`_run_baseline`).
    :func:`jobs_happiness_counts` walks these on scalar contexts only:
    on a numpy one every ``(attacker, step)`` is a kernel row.
    """

    __slots__ = ()

    def __init__(
        self,
        topology: ASGraph | RoutingContext,
        destination: int,
        attacker: int,
        deployment: Deployment | None = None,
        model: RankModel = BASELINE,
        attack: AttackStrategy = DEFAULT_ATTACK,
    ) -> None:
        if attack.needs_baseline:
            raise ValueError(
                f"attacker-chain walking needs a step-stable resolution; "
                f"strategy {attack.token!r} resolves against the "
                f"attacker-free baseline of every step"
            )
        ctx = _as_context(topology)
        _, att_i = ctx._check_pair(destination, attacker)
        self._root_att = att_i
        super().__init__(ctx, destination, deployment, model, attack)

    def _run_baseline(self) -> None:
        ctx = self.ctx
        att_i = self._root_att
        res = ctx._resolve_attack(
            self._dest_i, att_i, self._signing, self._ranking,
            self.model, self.attack,
        )
        self._last_res = res
        ctx._run(
            self._dest_i, att_i, self._signing, self._ranking,
            self.model, res,
        )

    def step_counts(self) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)`` at the current
        chain step — just the committed baseline counts."""
        b = self._b_counts
        return b[0], b[1], self.ctx.n - 2


#: On a scalar context, destination groups with at most this many
#: attackers are not walked as deltas of one shared baseline: paying the
#: attack's blast radius again at every step loses to one full attacked
#: pass plus cheap advances (an :class:`_AttackerChain` an attacker).
#: A numpy context has no such choice: every group is rows.
_ATTACKER_CHAIN_MAX = 3


def jobs_happiness_counts(
    topology: ASGraph | RoutingContext,
    jobs: Sequence[
        tuple[
            Sequence[tuple[int | None, int]],
            Sequence[Deployment | None],
            RankModel,
            AttackStrategy,
        ]
    ],
) -> list[list[list[tuple[int, int, int]]]]:
    """``(happy_lower, happy_upper, num_sources)`` per pair, per chain
    step, per job: ``result[j][t][i]`` is pair ``i`` of job ``j`` — a
    ``(pairs, deployments, model, attack)`` tuple — under its
    ``deployments[t]``.

    The count-only fast path behind the scenario scheduler, of which
    :func:`rollout_happiness_counts` and :func:`batch_happiness_counts`
    are the one-job calls.  A job's ``deployments`` must be nested
    (``S_t ⊑ S_{t+1}`` per membership mode; one deployment is a chain
    of one step, none is zero steps, ``[]``) and stub-simplex
    (:meth:`RoutingContext.require_stub_simplex`): every job is checked
    before any pass, so a bad job raises ``ValueError`` with nothing
    computed, whatever the pairs are.  Pairs are grouped by destination.
    On a numpy context every group is evaluated one way:

    * **rows**: a numpy pass costs the same whatever it shares with the
      pass before it, so every distinct pass is one independent row of
      :meth:`RoutingContext._run_np`, and the rows of *all* jobs that
      share a kernel model run :attr:`RoutingContext.batch_rows` to a
      call.  Every ``(d, m, S_t)`` resolves its attack first (a
      ``needs_baseline`` strategy resolves every attacker of a
      ``(d, S_t)`` from one attacker-free state pass), then keys the
      pass it is.  A *blind* one — the baseline placement, or no signed
      announcement (``d`` does not sign, the attacker is absent, silent
      or unsigned), so no AS holds a secure route and every placement
      orders routes by ``(LP bucket, length)`` alike — is the baseline
      placement's pass of its local preference under no deployment,
      keyed ``(d, m, resolved attack)`` and shared by every step,
      placement and job that asks for it; any other keeps its model,
      deployment and resolved attack.

    On a scalar context the group's shape picks (only a walked group
    needs what each step changes, :func:`_chain_step`, worked out once
    a job):

    * **one pass a pair** (one step, at most one attacker): plain
      fixing passes beat a sweep's snapshot and dependency index;
    * **attacker chains** (several steps, ``≤ 3`` attackers, step-stable
      strategy): one :class:`_AttackerChain` per attacker — a full
      attacked pass at ``S_0``, then a single ``O(changed)`` advance
      per step;
    * **a shared sweep** (everything else — many attackers, or a
      ``needs_baseline`` strategy): one :class:`RolloutSweep`
      (:class:`DestinationSweep` for one step) — the attacker-free
      baseline advances per step, each attacker pays an ``O(dirty)``
      delta per step, and cross-step memo hits skip attackers whose
      read region the advance missed.

    Results are in input pair order and bit-identical to one full
    fixing pass per pair and step (:func:`batch_outcomes`, the per-pair
    reference the differential tests compare against).
    """
    ctx = _as_context(topology)
    n = ctx.n
    checked = []
    for pairs, deployments, model, attack in jobs:
        deployments = [dep or _EMPTY_DEPLOYMENT for dep in deployments]
        for deployment in deployments:
            ctx.require_stub_simplex(deployment)
        for old, new in zip(deployments, deployments[1:]):
            _check_nested(old, new)
        checked.append((list(pairs), deployments, model, attack))
    results: list[list[list]] = []
    #: model → (dest_i, att_i, deployment, attack, step's out, pair
    #: indices, sources) per row, a job's rows step-major and then by
    #: destination, so that the rows of one ``(d, S_t)`` are neighbours
    rows: dict[RankModel, list[tuple]] = {}
    for pairs, deployments, model, attack in checked:
        out: list[list] = [[None] * len(pairs) for _ in deployments]
        results.append(out)
        if not deployments:
            continue
        chain = len(deployments) > 1
        steps = None
        row_groups = []
        groups: dict[int, dict[int | None, list[int]]] = {}
        for i, (m, d) in enumerate(pairs):
            groups.setdefault(d, {}).setdefault(m, []).append(i)
        for d, by_attacker in groups.items():
            attackers = len(by_attacker) - (None in by_attacker)
            if ctx.vectorized:
                for m, idxs in by_attacker.items():
                    row_groups.append(
                        (*ctx._check_pair(d, m), idxs, n - (1 if m is None else 2))
                    )
            elif not chain and attackers <= 1:
                signing, ranking = ctx.deployment_masks(deployments[0])
                for m, idxs in by_attacker.items():
                    dest_i, att_i = ctx._check_pair(d, m)
                    resolved = ctx._resolve_attack(
                        dest_i, att_i, signing, ranking, model, attack
                    )
                    ctx._run(dest_i, att_i, signing, ranking, model, resolved)
                    lo, up = ctx._last_counts[:2]
                    for i in idxs:
                        out[0][i] = (lo, up, n - (1 if m is None else 2))
            else:
                if steps is None:
                    steps = [
                        _chain_step(ctx, old, new)
                        for old, new in zip(deployments, deployments[1:])
                    ]
                few = attackers <= _ATTACKER_CHAIN_MAX and not attack.needs_baseline
                _walk_group(
                    ctx, d, by_attacker, deployments, steps, model, attack, out,
                    chains=bool(few and chain and attackers),
                )
        model_rows = rows.setdefault(model, [])
        for deployment, step_out in zip(deployments, out):
            for dest_i, att_i, idxs, sources in row_groups:
                model_rows.append(
                    (dest_i, att_i, deployment, attack, step_out, idxs, sources)
                )
    #: kernel model → pass key → [kernel row, then the ``(step's out,
    #: pair indices, sources)`` of every row that is this pass]
    passes: dict[RankModel, dict[tuple, list]] = {}
    blank = ctx.deployment_masks(_EMPTY_DEPLOYMENT)
    for model, model_rows in rows.items():
        blind_model = RankModel(SecurityModel.BASELINE, model.local_preference)
        #: the ``(dest_i, deployment)`` whose attacker-free state pass is
        #: in the context's scratch (count rows never write it)
        baseline_of = None
        for dest_i, att_i, deployment, attack, *asked in model_rows:
            signing, ranking = ctx.deployment_masks(deployment)
            if att_i < 0 or not attack.needs_baseline:
                resolved = ctx._resolve_attack(
                    dest_i, att_i, signing, ranking, model, attack
                )
            else:
                if baseline_of != (dest_i, deployment):
                    ctx._run(dest_i, -1, signing, ranking, model)
                    baseline_of = (dest_i, deployment)
                st = ctx._np_scratch
                resolved = attack.resolve(
                    dest_signed=bool(signing[dest_i]),
                    baseline=_attacker_baseline(
                        st["fixed"], st["len"], st["wire"], att_i
                    ),
                )
            if model.uses_security and (
                signing[dest_i] or (att_i >= 0 and resolved.active and resolved.wire)
            ):
                kernel_model, key = model, (deployment, dest_i, att_i, resolved)
                masks = (signing, ranking)
            else:
                # Blind: the baseline placement, or no signed
                # announcement and so no secure route, under which every
                # placement ranks as the baseline does, whatever deploys.
                kernel_model, key = blind_model, (dest_i, att_i, resolved)
                masks = blank
            passes.setdefault(kernel_model, {}).setdefault(
                key, [(dest_i, att_i, *masks, resolved)]
            ).append(asked)
    for kernel_model, by_key in passes.items():
        todo = list(by_key.values())
        for at in range(0, len(todo), ctx.batch_rows):
            batch = todo[at : at + ctx.batch_rows]
            kernel_rows = [entry[0] for entry in batch]
            for entry, counts in zip(batch, ctx._run_np(kernel_rows, kernel_model)):
                for step_out, idxs, sources in entry[1:]:
                    for i in idxs:
                        step_out[i] = (counts[0], counts[1], sources)
    return results


def _walk_group(
    ctx: RoutingContext,
    d: int,
    by_attacker: dict[int | None, list[int]],
    deployments: list[Deployment],
    steps: list[tuple],
    model: RankModel,
    attack: AttackStrategy,
    out: list[list],
    chains: bool,
) -> None:
    """One destination group of :func:`jobs_happiness_counts` on warm
    sweeps, written into ``out[t][i]``: one :class:`_AttackerChain`
    per attacker beside an attacker-free baseline sweep (``chains``),
    or every attacker as a delta of one shared sweep."""
    n = ctx.n
    sweep_cls = RolloutSweep if steps else DestinationSweep
    walkers: dict[int | None, DestinationSweep] = {}
    if chains:
        for m in by_attacker:
            if m is not None:
                walkers[m] = _AttackerChain(
                    ctx, d, m, deployments[0], model, attack=attack
                )
    if not chains or None in by_attacker:
        walkers[None] = sweep_cls(ctx, d, deployments[0], model, attack=attack)
    for t, step_out in enumerate(out):
        if t:
            for walker in walkers.values():
                walker._apply(steps[t - 1])
        for m, idxs in by_attacker.items():
            if m is None:
                lo, up = walkers[None].baseline_counts()
                counts = (lo, up, n - 1)
            elif chains:
                counts = walkers[m].step_counts()
            else:
                counts = walkers[None].happiness_counts(m)
            for i in idxs:
                step_out[i] = counts


def rollout_happiness_counts(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int | None, int]],
    deployments: Sequence[Deployment],
    model: RankModel = BASELINE,
    *,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[list[tuple[int, int, int]]]:
    """``(happy_lower, happy_upper, num_sources)`` per pair, per chain
    step: ``result[t][i]`` is pair ``i`` evaluated under
    ``deployments[t]`` — :func:`jobs_happiness_counts` for one job, a
    nested-deployment chain (``ValueError``, with nothing computed, if
    it is not nested).  Results per step are in input pair order and
    bit-identical to evaluating each step independently via
    :func:`batch_happiness_counts`.
    """
    return jobs_happiness_counts(
        topology, [(pairs, deployments, model, attack)]
    )[0]


# ----------------------------------------------------------------------
# Batched evaluation
# ----------------------------------------------------------------------
def batch_outcomes(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int | None, int]],
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[RoutingOutcome]:
    """Stable states for many ``(attacker, destination)`` pairs at once.

    Deployment masks are built once and the context's scratch buffers
    are reused across the whole sweep, which is the engine's intended
    hot path.  ``attacker`` may be None in a pair (normal conditions).
    Pair ordering matches the metric convention ``(m, d)``.
    """
    ctx = _as_context(topology)
    deployment = deployment or _EMPTY_DEPLOYMENT
    signing, ranking = ctx.deployment_masks(deployment)
    out: list[RoutingOutcome] = []
    for attacker, destination in pairs:
        dest_i, att_i = ctx._check_pair(destination, attacker)
        resolved = ctx._resolve_attack(
            dest_i, att_i, signing, ranking, model, attack
        )
        ctx._run(dest_i, att_i, signing, ranking, model, resolved)
        out.append(
            ctx._snapshot(
                destination, attacker, deployment, model, dest_i, att_i,
                attack, resolved,
            )
        )
    return out


def batch_happiness_counts(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int | None, int]],
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
    *,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[tuple[int, int, int]]:
    """``(happy_lower, happy_upper, num_sources)`` per ``(m, d)`` pair.

    The count-only fast path behind :func:`repro.core.metrics.security_metric`
    — :func:`jobs_happiness_counts` for one job of one step: no
    :class:`RoutingOutcome` is materialized, pairs are evaluated
    destination-major, and results are returned in the input pair
    order, bit-identical to one full fixing pass per pair
    (:func:`batch_outcomes`, the per-pair reference the differential
    tests compare against).
    """
    return jobs_happiness_counts(
        topology, [(pairs, [deployment], model, attack)]
    )[0][0]
