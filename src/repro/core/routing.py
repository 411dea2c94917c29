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
adjacency as flat CSR ndarrays built by one sort (the per-relationship
index tuples are derived only if a reader asks).  The fixing pass is a
bucket kernel over int64 arrays (:meth:`RoutingContext._run_np`), with
rank keys packed into single ints (:func:`repro.core.rank.pack_key`),
and *the arrays are the state*: the single crossing to python objects
is :func:`_decode`, which builds the flat fields of a
:class:`RoutingOutcome` from the most recent state call for the
callers that ask for full state.  :class:`RouteInfo` and the per-AS mapping
:attr:`RoutingOutcome.routes` are a thin lazily-materialized view over
those fields, so callers keep the seed API.  The pass is also the one
unit of the count-only entry point (:func:`jobs_happiness_counts`):
every ``(m, d, S)`` it is asked for is one pass, each distinct pass
runs once, K of them to a call as the rows of one bucket loop.
The original dict-based engine survives verbatim in
:mod:`repro.core.refimpl` for differential testing.

The context's scratch arrays make routing computations *not*
thread-safe per context; fork-based multiprocessing (the experiment
runner's strategy) is safe because each worker gets its own
copy-on-write context.
"""

from __future__ import annotations

import enum
import functools
import itertools
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass

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

#: "No key" sentinel of the int64 state arrays.  Real packed keys use
#: at most 3 * PACK_SHIFT = 63 bits but stay far below ``1 << 62`` (the
#: top component is a small LP bucket or 0/1 security bit), so this
#: sentinel is strictly larger than every real key.
_NP_INF = 1 << 62

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
    return np.frombuffer(buf, dtype=np.uint8)


def _np_key_fn(model: RankModel):
    """Array twin of ``pack_key(model.key(...))``.

    Returns ``f(vcls, ln, sec) -> int64 packed keys`` over aligned
    arrays: ``vcls`` the receiver's route class, ``ln`` the route
    length, ``sec`` the receiver's effective security bit.  Mirrors
    :meth:`RankModel.key` component order and
    :meth:`LocalPreference.bucket` exactly so packed values are
    bit-identical to :func:`~repro.core.rank.pack_key`'s.
    """
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
    slots.  :meth:`_run_np` expands only that tail for a source that
    does not export to everyone.

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
        "_np_post",
        "_mask_cache",
        "_stub_simplex_ok",
        "_zero_mask",
        "_last_counts",
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
        #: where :meth:`_run_np`'s state calls leave their result
        self._np_scratch: dict | None = None
        #: the flat state arrays of :meth:`_run_np`'s K-row calls
        self._np_rows: dict | None = None
        #: what :meth:`_np_nhop_pairs` needs of the most recent state pass
        self._np_post: tuple | None = None
        self._mask_cache: dict = {}
        #: id → deployment that passed :meth:`require_stub_simplex`
        #: (weak: a dead deployment drops out, so ids cannot be recycled).
        self._stub_simplex_ok: "weakref.WeakValueDictionary[int, Deployment]" = (
            weakref.WeakValueDictionary()
        )
        self._zero_mask = bytearray(n)
        self._last_counts: tuple[int, int, int, int, int, int] = (0,) * 6

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
        """How many fixing passes one :meth:`_run_np` call takes as
        rows: what fits :data:`NP_ROWS_BUDGET`, at least one."""
        return max(1, NP_ROWS_BUDGET // self.n)

    def _np_ensure_scratch(self, rows: int, state: bool) -> dict:
        """The arrays a :meth:`_run_np` call computes in, reused.  A state
        call's are :attr:`_np_scratch`: int64 ``keyq`` (tentative keys;
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
        """``att_i``'s record in the most recent state call."""
        st = self._np_scratch
        return _attacker_baseline(st["fixed"], st["len"], st["wire"], att_i)

    def _run(
        self,
        dest_i: int,
        att_i: int,
        signing: bytearray,
        ranking: bytearray,
        model: RankModel,
        attack: ResolvedAttack = DEFAULT_RESOLVED,
    ) -> None:
        """Run one fixing pass, a one-row state call of :meth:`_run_np`
        (``att_i = -1`` for normal conditions; ``attack`` parameterizes
        how the attacker root announces).  Its result lives in
        :attr:`_np_scratch`, :attr:`_np_post` and :attr:`_last_counts`
        until the next state call."""
        self._run_np([(dest_i, att_i, signing, ranking, attack)], model, state=True)

    def _run_np(
        self, rows: Sequence[tuple], model: RankModel, *, state: bool = False
    ) -> list[tuple[int, int, int, int, int, int]]:
        """The fixing pass, K at a time: K independent passes
        — ``rows`` of ``(dest_i, att_i, signing, ranking, attack)``
        under one ``model`` — as one bucket-Dijkstra sweep; returns
        each row's counts (:attr:`_last_counts`' six).

        Rank keys are strictly monotone on every input this kernel
        takes (LP buckets never shrink along an export-legal edge,
        length always grows, and the one sender whose offer could be
        more secure than its own route, a simplex AS, is a stub —
        :meth:`deployment_masks` rejects any other — and exports
        nothing), so every node holding the current *global
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
        int64/bool arrays in :attr:`_np_scratch` (``_NP_INF`` for an
        unreached key), :attr:`_last_counts`, and :attr:`_np_post`, what
        :meth:`_np_nhop_pairs` needs besides them to derive next-hop
        membership, on demand.  Python objects per AS exist only in a
        :class:`RoutingOutcome` (:func:`_decode`).
        """
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
                # *target* (reach/wire/chacc re-accumulate from the
                # identity), as a new best route replaces the BPR set.
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

        # Roots: the destination originates the prefix; the attacker
        # its claimed path as the strategy resolved it (the paper
        # default: the bogus one-hop-longer "m d" via legacy BGP).
        # Every row's at once; the attackers relax in groups of one
        # export scope and claimed length.
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

    def _np_nhop_pairs(self):
        """Next-hop membership ``(us, vs)`` of the most recent state
        call, sorted by ``(v, u)``, from :attr:`_np_scratch` and
        :attr:`_np_post`.

        Membership is decided arithmetically instead of by accumulating
        lists during the sweep: ``u ∈ nhops[v]`` iff both are fixed,
        ``u``'s export rule admits the edge, ``v`` is not a root and
        ``u``'s offer key equals ``v``'s final key (keys are strictly
        monotone, so a tying offerer fixed before ``v``).
        One whole-CSR batch evaluates every edge at once, and only a
        reader of next-hop sets pays for it: count-only workloads never
        do.
        """
        dest_i, att_i, att_active, att_exp, key_of, rank_np = self._np_post
        _start, node, cls_e, cf_b, esrc, _cust = self._np_adjacency()
        st = self._np_scratch
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
        # values the roots relax with, so ln/wire need none).
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
        """The most recent state call as a :class:`RoutingOutcome`."""
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
            **_decode(self),
        )


def _attacker_baseline(fixed, length, wire, att_i: int) -> AttackerBaseline:
    """The attacker's legitimate record in one pass's state arrays."""
    return AttackerBaseline(
        has_route=bool(fixed[att_i]),
        length=int(length[att_i]),
        wire_secure=bool(wire[att_i]),
    )


def _decode(ctx: RoutingContext) -> dict:
    """The one crossing from numpy state to python objects: the flat
    state fields of a :class:`RoutingOutcome` from the most recent
    state call's per-node arrays (:attr:`RoutingContext._np_scratch`)
    and its ``(v, u)``-sorted next-hop membership pairs.

    Next-hop lists come out sorted by sender index.
    """
    st = ctx._np_scratch
    us, vs = ctx._np_nhop_pairs()

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

    Backed by flat per-index fields decoded from the kernel's state
    arrays (:func:`_decode`); :attr:`routes` is a lazily-materialized
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

    Raises:
        ValueError: for a pair outside the graph, ``m == d``, or a
            simplex member with customers (no unique stable state).
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
# One destination's attackers, by hand (perfbench's probe)
# ----------------------------------------------------------------------
class DestinationSweep:
    """Many attackers against one ``(d, deployment, model)``, each one
    fixing pass (:meth:`RoutingContext._run`).

    The constructor runs the attacker-free pass once and copies the
    three arrays of it that a ``needs_baseline`` strategy (``honest``)
    resolves each attacker from.  The count path,
    :func:`jobs_happiness_counts`, builds no sweep: it shares passes
    across whole batches instead.  Like the context itself, a sweep is
    not thread-safe.

    Example:
        One sweep answers many attackers against one destination and
        is bit-identical to the per-pair engine:

        >>> from repro.topology.graph import ASGraph
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        ...     g.add_customer_provider(customer, provider)
        >>> sweep = DestinationSweep(g, destination=4)
        >>> [sweep.happiness_counts(m) for m in (5, 3, 1)]
        [(2, 2, 3), (1, 2, 3), (1, 1, 3)]
        >>> [compute_routing_outcome(g, 4, attacker=m).count_happy()
        ...  for m in (5, 3, 1)]
        [(2, 2), (1, 2), (1, 1)]
    """

    __slots__ = (
        "_ctx", "_destination", "_model", "_attack", "_signing", "_ranking",
        "_base",
    )

    #: Every attacker pass is one state call of the kernel (read by
    #: perfbench's per-path tally).
    last_delta_path = "dense"

    def __init__(
        self,
        topology: ASGraph | RoutingContext,
        destination: int,
        deployment: Deployment | None = None,
        model: RankModel = BASELINE,
        attack: AttackStrategy = DEFAULT_ATTACK,
    ) -> None:
        ctx = self._ctx = _as_context(topology)
        self._destination = destination
        self._model = model
        self._attack = attack
        dest_i, _ = ctx._check_pair(destination, None)
        signing, ranking = ctx.deployment_masks(deployment or _EMPTY_DEPLOYMENT)
        self._signing, self._ranking = signing, ranking
        ctx._run(dest_i, -1, signing, ranking, model)
        # copies: the scratch belongs to whichever state call ran last
        st = ctx._np_scratch
        self._base = tuple(st[name].copy() for name in ("fixed", "len", "wire"))

    def happiness_counts(self, attacker: int) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)`` for one attacker."""
        ctx = self._ctx
        dest_i, att_i = ctx._check_pair(self._destination, attacker)
        attack = self._attack
        baseline = None
        if attack.needs_baseline:
            baseline = _attacker_baseline(*self._base, att_i)
        resolved = attack.resolve(
            dest_signed=bool(self._signing[dest_i]), baseline=baseline
        )
        ctx._run(dest_i, att_i, self._signing, self._ranking, self._model, resolved)
        counts = ctx._last_counts
        return counts[0], counts[1], ctx.n - 2


# ----------------------------------------------------------------------
# Count-only evaluation
# ----------------------------------------------------------------------
def _check_nested(old: Deployment, new: Deployment) -> None:
    """Raise ``ValueError`` unless ``old → new`` is a chain step: both
    the full set and the signing set (full ∪ simplex) may only grow."""
    if not (old.full <= new.full and old.simplex - new.simplex <= new.full):
        raise ValueError(
            "rollout chains must be nested: both the full set and "
            "the signing set may only grow between steps"
        )


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
    resolved attack.  The distinct passes run as the rows of
    :meth:`RoutingContext._run_np`, :attr:`RoutingContext.batch_rows` to
    a call.

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
    for kernel_model, by_key in passes.items():
        todo = list(by_key.values())
        size = ctx.batch_rows
        for at in range(0, len(todo), size):
            batch = todo[at : at + size]
            counted = ctx._run_np([entry[0] for entry in batch], kernel_model)
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
    """Stable states for many ``(attacker, destination)`` pairs, one
    :func:`compute_routing_outcome` call per pair on one context (whose
    deployment masks are cached), in input order.  ``attacker`` may be
    None in a pair (normal conditions).  Pair ordering matches the
    metric convention ``(m, d)``.
    """
    ctx = _as_context(topology)
    return [
        compute_routing_outcome(ctx, d, m, deployment, model, attack)
        for m, d in pairs
    ]


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
