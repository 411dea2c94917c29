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
amortize deployment-mask construction across whole pair sweeps.
On a numpy context (``ctx.vectorized``: by default every graph of
:data:`VECTORIZED_MIN_N` ASes or more) the same passes
run as bucket kernels over int64 arrays, and there *the arrays are the
state*: a numpy kernel never writes the python scratch buffers, a
sweep's snapshot is a dict of arrays, and the single crossing to python
objects is :func:`_decode`, which builds the flat fields of a
:class:`RoutingOutcome` for the callers that ask for full state.
On every context the pass is the one unit of the count-only entry
point (:func:`jobs_happiness_counts`): every ``(m, d, S)`` it is asked
for is one pass, each distinct pass runs once, and only the executor
differs — a row of one bucket loop, K to a numpy call, or one heap pass.
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

        Section 5.3.2 defines simplex S*BGP for stubs, and the numpy
        count rows are exact only there: with a *transit* simplex
        member (it signs what it re-announces but never ranks on
        security) fixing order is not key order, which only the heap
        loop handles (:meth:`_run`).  Every count entry point
        (:func:`jobs_happiness_counts` and its one-job calls
        :func:`batch_happiness_counts` and
        :func:`rollout_happiness_counts`, :class:`DestinationSweep`,
        :meth:`RolloutSweep.advance`) therefore rejects such a
        deployment on every context, so no answer depends on the
        context; :func:`compute_routing_outcome` evaluates it per
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
        costs two full fixing passes per pair; the count path and a
        sweep share the baseline instead — one attacker-free pass per
        ``(d, S)`` — so per-pair stays the simple oracle.
        """
        if att_i < 0:
            return DEFAULT_RESOLVED
        baseline = None
        if attack.needs_baseline:
            self._run(dest_i, -1, signing, ranking, model)
            baseline = self._scratch_record(att_i)
        return attack.resolve(dest_signed=bool(signing[dest_i]), baseline=baseline)

    def _scratch_record(self, att_i: int) -> AttackerBaseline:
        """``att_i``'s record in the most recent pass, read from the
        scratch of the kernel that ran it (:attr:`_np_post` says which)."""
        if self._np_post is not None:
            st = self._np_scratch
            return _attacker_baseline(st["fixed"], st["len"], st["wire"], att_i)
        return _attacker_baseline(self._fixed, self._len, self._wire, att_i)

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
        call — one row, from :meth:`_run` — also
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
            # int64 copies: _np_post keeps the ranking mask past the pass
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
# Destination-major sweeps
# ----------------------------------------------------------------------
class DestinationSweep:
    """Many attackers against one ``(d, deployment, model)``.

    The sweep runs the attacker-free fixing pass **once** and keeps it
    as its baseline: :meth:`baseline_counts` and :meth:`baseline_outcome`
    read it, and so does a ``needs_baseline`` strategy (``honest``),
    which resolves each attacker from the attacker's record there
    instead of a second pass per attacker.  Each attacker is then one
    fixing pass, :meth:`RoutingContext._run`, on the kernel the context
    picks: the heap loop on a scalar context (:attr:`last_delta_path`
    ``"pure"``), one numpy state pass on a numpy one (``"dense"``).  The
    count path, :func:`jobs_happiness_counts`, builds no sweep: it
    shares passes across whole batches instead.

    The baseline has one form per context: the :class:`RoutingOutcome`
    of the heap pass on a scalar context; copies of the bucket kernel's
    state arrays on a numpy one, decoded into a :class:`RoutingOutcome`
    when :meth:`baseline_outcome` first asks.  Like the context itself,
    a sweep is not thread-safe; fork workers each own a clone.

    Example:
        One sweep answers many attackers against one destination and
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
        "ctx",
        "destination",
        "deployment",
        "model",
        "attack",
        "_dest_i",
        "_signing",
        "_ranking",
        "_b_counts",
        "_base",
        "_np_base",
        "last_delta_path",
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
        #: the kernel the most recent attacker pass or advance ran (None
        #: before the first): ``"pure"`` on a scalar context, ``"dense"``
        #: on a numpy one.
        self.last_delta_path: str | None = None
        self._dest_i, _ = ctx._check_pair(destination, None)
        ctx.require_stub_simplex(deployment)
        self._signing, self._ranking = ctx.deployment_masks(deployment)
        # The baseline fixing pass, run once per deployment.
        ctx._run(self._dest_i, -1, self._signing, self._ranking, model)
        self._take_baseline()

    def _take_baseline(self) -> None:
        """Keep the attacker-free pass that just ran as this sweep's
        baseline, in the form of the kernel that ran it (numpy arrays
        are copied, not decoded: no python object per AS until
        :meth:`baseline_outcome` asks)."""
        ctx = self.ctx
        self._b_counts = ctx._last_counts
        if ctx._np_post is None:
            self._np_base = None
            self._base = ctx._snapshot(
                self.destination, None, self.deployment, self.model,
                self._dest_i, -1, self.attack,
            )
            return
        st = ctx._np_scratch
        base = {
            name: st[name].copy()
            for name in (
                "fixed", "key", "cls", "len", "reach",
                "wire", "sec", "choice", "endp",
            )
        }
        base["post"] = ctx._np_post
        self._np_base = base
        self._base = None

    def _pass(self, att_i: int, resolved: ResolvedAttack = DEFAULT_RESOLVED) -> None:
        """One fixing pass under the sweep's deployment (``att_i = -1``
        for the baseline), recording which kernel ran it."""
        ctx = self.ctx
        ctx._run(
            self._dest_i, att_i, self._signing, self._ranking, self.model,
            resolved,
        )
        self.last_delta_path = "pure" if ctx._np_post is None else "dense"

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
        base = self._base
        if base is None:
            # next-hop pairs from the snapshot's own arrays and ``post``
            # (the context's scratch belongs to whichever pass ran last)
            st = self._np_base
            base = self._base = RoutingOutcome(
                destination=self.destination,
                attacker=None,
                deployment=self.deployment,
                model=self.model,
                attack=self.attack,
                _resolved=DEFAULT_RESOLVED,
                _ctx=self.ctx,
                _dest_i=self._dest_i,
                _att_i=-1,
                _counts=self._b_counts,
                **_decode(st, *self.ctx._np_nhop_pairs(st, st["post"])),
            )
        return base

    def happiness_counts(self, attacker: int) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)`` for one attacker."""
        self._attack(attacker)
        counts = self.ctx._last_counts
        return counts[0], counts[1], self.ctx.n - 2

    def counts(self, attackers: Sequence[int]) -> list[tuple[int, int, int]]:
        """:meth:`happiness_counts` for many attackers in one sweep."""
        return [self.happiness_counts(m) for m in attackers]

    def outcome(self, attacker: int) -> RoutingOutcome:
        """The full stable state for one attacker (API-compatible with
        :func:`compute_routing_outcome`)."""
        att_i, resolved = self._attack(attacker)
        return self.ctx._snapshot(
            self.destination, attacker, self.deployment, self.model,
            self._dest_i, att_i, self.attack, resolved,
        )

    # ------------------------------------------------------------------
    def _attack(self, attacker: int) -> tuple[int, ResolvedAttack]:
        """Run ``attacker``'s pass; returns its index and the resolved
        attack.  A ``needs_baseline`` strategy reads the attacker's
        record in the sweep's baseline."""
        att_i = self.ctx.index_of.get(attacker)
        if att_i is None:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if att_i == self._dest_i:
            raise ValueError("attacker and destination must differ")
        attack = self.attack
        baseline = None
        if attack.needs_baseline:
            st = self._np_base
            if st is None:
                b = self._base
                baseline = _attacker_baseline(b._fixed, b._len, b._wire, att_i)
            else:
                baseline = _attacker_baseline(
                    st["fixed"], st["len"], st["wire"], att_i
                )
        resolved = attack.resolve(
            dest_signed=bool(self._signing[self._dest_i]), baseline=baseline
        )
        self._pass(att_i, resolved)
        return att_i, resolved


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


class RolloutSweep(DestinationSweep):
    """A :class:`DestinationSweep` that walks a *nested-deployment
    chain* ``S_0 ⊆ S_1 ⊆ … ⊆ S_T`` for one destination.

    The paper's rollout figures (7a/7b/8/11) evaluate the same attackers
    against the same destination under a chain of growing deployments.
    :meth:`advance` moves the sweep to the next step in place: the new
    deployment's masks, then its attacker-free pass, which becomes the
    baseline every later attacker reads.

    Chains must be nested *per membership mode*: both the ranking set
    (``full``) and the signing set (``full ∪ simplex``) may only grow
    (a simplex→full promotion is allowed).  :meth:`advance` raises
    ``ValueError`` otherwise.  Results are bit-identical to building a
    fresh sweep per step, which is what the differential tests enforce.

    Example:
        Walking a chain matches fresh per-step sweeps exactly:

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

    __slots__ = ()

    def advance(self, deployment: Deployment) -> None:
        """Move the sweep's baseline to the next chain step in place
        (``ValueError``, before anything changes, if ``deployment`` does
        not nest the current one or has a transit simplex member)."""
        ctx = self.ctx
        ctx.require_stub_simplex(deployment)
        _check_nested(self.deployment, deployment)
        self.deployment = deployment
        self._signing, self._ranking = ctx.deployment_masks(deployment)
        self._pass(-1)
        self._take_baseline()


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
    computed, whatever the pairs are.

    Every pair-step is one fixing pass, and the call runs each
    *distinct* pass once.  Every ``(d, m, S_t)`` resolves its attack
    first (a ``needs_baseline`` strategy resolves every attacker of a
    ``(d, S_t)`` from one attacker-free pass), then keys the pass it
    is.  A *blind* one — the baseline placement, or no signed
    announcement (``d`` does not sign, the attacker is absent, silent
    or unsigned), so no AS holds a secure route and every placement
    orders routes by ``(LP bucket, length)`` alike — is the baseline
    placement's pass of its local preference under no deployment, keyed
    ``(d, m, resolved attack)`` and shared by every step, placement and
    job that asks for it; any other keeps its model, deployment and
    resolved attack.  Only the executor depends on the context: a numpy
    one runs the distinct passes as the rows of
    :meth:`RoutingContext._run_np`, :attr:`RoutingContext.batch_rows` to
    a call, a scalar one each as one :meth:`RoutingContext._run`.

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
        groups: dict[int, dict[int | None, list[int]]] = {}
        for i, (m, d) in enumerate(pairs):
            groups.setdefault(d, {}).setdefault(m, []).append(i)
        row_groups = [
            (*ctx._check_pair(d, m), idxs, n - (1 if m is None else 2))
            for d, by_attacker in groups.items()
            for m, idxs in by_attacker.items()
        ]
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
        #: the ``(dest_i, deployment)`` whose attacker-free pass is in
        #: the context's scratch (no other pass runs while planning)
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
                resolved = attack.resolve(
                    dest_signed=bool(signing[dest_i]),
                    baseline=ctx._scratch_record(att_i),
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
    size = ctx.batch_rows if ctx.vectorized else 1
    for kernel_model, by_key in passes.items():
        todo = list(by_key.values())
        for at in range(0, len(todo), size):
            batch = todo[at : at + size]
            if ctx.vectorized:
                counted = ctx._run_np([entry[0] for entry in batch], kernel_model)
            else:
                dest_i, att_i, signing, ranking, resolved = batch[0][0]
                ctx._run(dest_i, att_i, signing, ranking, kernel_model, resolved)
                counted = [ctx._last_counts]
            for entry, counts in zip(batch, counted):
                for step_out, idxs, sources in entry[1:]:
                    for i in idxs:
                        step_out[i] = (counts[0], counts[1], sources)
    return results


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
