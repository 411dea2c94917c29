"""The routing context: one graph's dense-indexed adjacency, its
deployment masks and the scratch the fixing pass computes in.

:class:`RoutingContext` maps ASNs onto dense indices ``0..n-1`` once
per graph and stores the adjacency as flat CSR ndarrays built by one
sort (the per-relationship index tuples are derived only if a reader
asks).  Everything that runs a pass takes one: the kernel
(:mod:`repro.core.fixing`), the full-state entry points
(:mod:`repro.core.outcome`) and the count jobs (:mod:`repro.core.jobs`).

The context's scratch arrays make routing computations *not*
thread-safe per context; fork-based multiprocessing (the experiment
runner's strategy) is safe because each worker gets its own
copy-on-write context.
"""

from __future__ import annotations

import functools
import itertools
import weakref

import numpy as np

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from .deployment import Deployment
from .rank import PACK_SHIFT

#: Element budget of one :func:`repro.core.fixing._run_np` call: it takes
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
#: moving this.  Read here, at call time: patch it on this module.
NP_ROWS_BUDGET = 1 << 15

#: Shared empty deployment so default-argument calls hit the mask cache.
_EMPTY_DEPLOYMENT = Deployment.empty()


class RoutingContext:
    """Dense-indexed adjacency plus reusable scratch for routing passes.

    Build once per graph.  ASNs are mapped onto contiguous indices
    ``0..n-1`` via :meth:`ASGraph.dense_index` (sorted-ASN order, so
    index tiebreaks equal ASN tiebreaks).  The adjacency is stored as
    flat CSR ndarrays (:meth:`_build_csr_np`), which the kernels share
    (:meth:`_np_adjacency`):

    * ``adj_start`` — int64, length ``n + 1``; node ``u``'s out-edges
      occupy slots ``adj_start[u]:adj_start[u+1]``;
    * ``adj_node`` — int64 neighbor indices;
    * ``adj_class`` — uint8; the LP class the *neighbor* assigns to a
      route learned from ``u``;
    * ``adj_custflag`` — uint8; 1 iff the neighbor is a customer of
      ``u`` (the export rule lets non-customer routes flow only there).

    **Row layout.**  Each row lists ``u``'s providers, then its peers,
    then its customers (each group in index order), so ``adj_custflag``
    reads ``0…0 1…1`` along a row and the edges a non-customer route
    may be exported on are the row's last ``len(customers_idx[u])``
    slots.  The kernel expands only that tail for a source that does
    not export to everyone.

    Per-relationship index adjacency (``providers_idx`` etc.) serves
    the perceivable-closure and partition computations; the context
    derives it lazily, as no kernel reads it.  The context never
    mutates the graph; it also owns the scratch arrays of the fixing
    pass, which makes a single context not thread-safe (fork workers
    each get a copy-on-write clone, which is safe).

    Args:
        graph: the topology to index.

    Example:
        Build one context per graph and reuse it for every computation
        on that graph — the adjacency indexing is paid once:

        >>> from repro.topology.graph import ASGraph
        >>> from repro.core.outcome import compute_routing_outcome
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
        "_has_customers",
        "_np_adj",
        "_np_scratch",
        "_np_rows",
        "_mask_cache",
        "_stub_simplex_ok",
        "_zero_mask",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        asn_of, index_of = graph.dense_index()
        n = len(asn_of)
        if n >= 1 << PACK_SHIFT:
            raise ValueError(
                f"graph has {n} ASes; the packed-key engine supports up to "
                f"{(1 << PACK_SHIFT) - 1}"
            )
        # Copy: dense_index's lists are shared graph-wide caches, and
        # ctx.asns has always been safe for callers to mutate.
        self.asns: list[int] = list(asn_of)
        self.index_of: dict[int, int] = index_of
        self.n = n

        self._rel_idx: tuple | None = None  # see _relationship_idx
        self._build_csr_np(graph)
        self._np_adj: tuple | None = None
        #: the arrays a state call computes in (:meth:`_np_ensure_scratch`)
        self._np_scratch: dict | None = None
        #: the flat state arrays of the kernel's K-row count calls
        self._np_rows: dict | None = None
        self._mask_cache: dict = {}
        #: id → deployment that passed :meth:`require_stub_simplex`
        #: (weak: a dead deployment drops out, so ids cannot be recycled).
        self._stub_simplex_ok: "weakref.WeakValueDictionary[int, Deployment]" = (
            weakref.WeakValueDictionary()
        )
        self._zero_mask = bytearray(n)

    # ------------------------------------------------------------------
    # Adjacency representations
    # ------------------------------------------------------------------
    def _build_csr_np(self, graph: ASGraph) -> None:
        """The CSR ndarrays and their row layout (class docstring), from
        one pass over the graph's adjacency maps: one sort of the packed
        keys ``(u·3 + g)·n + v``, ``g`` = 0/1/2 for providers/peers/
        customers, lays every row out."""
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
        #: 1 per node that has a customer (:meth:`require_stub_simplex`)
        self._has_customers = (counts[:, 2] > 0).tobytes()

    def _relationship_idx(self) -> tuple:
        """``(providers_idx, customers_idx, peers_idx)``, per node the
        sorted indices of each relationship, derived from the CSR the
        first time a reader asks."""
        rel = self._rel_idx
        if rel is None:
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

    # Called by perfbench/layers.py (close) and service_load.py (with).
    def close(self) -> None:
        """No-op: a context owns no OS resource."""

    def __enter__(self) -> "RoutingContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _np_adjacency(self):
        """Int64/bool CSR views for the kernel (cached):
        ``(start, node, cls_e, cf_b, esrc, cust_start)``, where row
        ``u``'s customer edges are ``cust_start[u]:start[u + 1]``."""
        adj = self._np_adj
        if adj is None:
            start, node = self.adj_start, self.adj_node
            cls_e = self.adj_class.astype(np.int64)
            cf_b = self.adj_custflag.view(np.bool_)
            esrc = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(start)
            )
            cust_start = start[1:] - np.bincount(esrc[cf_b], minlength=self.n)
            adj = self._np_adj = (start, node, cls_e, cf_b, esrc, cust_start)
        return adj

    @property
    def batch_rows(self) -> int:
        """How many fixing passes one kernel call takes as rows: what
        fits :data:`NP_ROWS_BUDGET`, at least one."""
        return max(1, NP_ROWS_BUDGET // self.n)

    def _np_ensure_scratch(self, rows: int, state: bool) -> dict:
        """The arrays a kernel call computes in, reused.  A state call's
        are :attr:`_np_scratch`: int64 ``keyq`` (tentative keys;
        ``_NP_INF`` once fixed), ``key`` (final; ``_NP_INF`` if unreached),
        ``cls``, ``len``, ``reach``, ``reach_hi``, ``wire``, ``sec``,
        ``choice``, ``endp``, ``chacc`` (the lowest tying offerer so far),
        bool ``fixed``.  A count call's are the first ``rows·n`` elements
        of :attr:`_np_rows` (``keyq``, int8 ``reach``/``reach_hi``/
        ``wire``/``sec``, ``fixed``), grown whenever a call needs more."""
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
    # Deployment masks
    # ------------------------------------------------------------------
    def deployment_masks(self, deployment: Deployment) -> tuple[bytearray, bytearray]:
        """``(signing, ranking)`` membership masks over dense indices.

        Cached per deployment object (identity-keyed with a strong
        reference, so ids cannot be recycled) because mask construction
        is O(n) while a batched sweep reuses the same deployment for
        thousands of pairs.  Deployment members absent from the graph
        are ignored, matching the seed engine's set-membership checks.
        Every pass takes its masks from here, so a build is where every
        entry point rejects a transit simplex member
        (:meth:`require_stub_simplex`).
        """
        if deployment.size == 0:
            zero = self._zero_mask
            return zero, zero
        cache = self._mask_cache
        entry = cache.get(id(deployment))
        if entry is not None and entry[0] is deployment:
            return entry[1], entry[2]
        self.require_stub_simplex(deployment)
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

        Section 5.3.2 defines simplex S*BGP for stubs.  A *transit*
        simplex member re-announces, signed, a route it ranked insecure,
        outside the three models of Theorem 2.1: the stable state need
        not be unique (:func:`~repro.topology.gadgets.
        transit_simplex_two_states` has two).  Every mask build
        (:meth:`deployment_masks`) calls this, so every entry point
        rejects such a deployment; the count path and
        ``evaluate_requests`` also call it before any work.  A
        deployment object that passed is remembered while it lives.
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
                f"{shown}{more} have customers; a transit simplex AS can "
                f"leave more than one stable state"
            )
        checked[id(deployment)] = deployment

    def _check_pair(self, destination: int, attacker: int | None) -> tuple[int, int]:
        """``(dest_i, att_i)`` of a pair (``att_i = -1`` for no
        attacker); ``ValueError`` for an AS outside the graph or
        ``m == d``."""
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


def _as_context(topology: ASGraph | RoutingContext) -> RoutingContext:
    """``topology`` itself if it is a context, else a fresh one on it."""
    if isinstance(topology, RoutingContext):
        return topology
    return RoutingContext(topology)
