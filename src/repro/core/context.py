"""The routing context: one graph's adjacency, its deployment masks
and the scratch the fixing pass computes in.

:class:`RoutingContext` adopts the graph's dense-indexed CSR arrays
(:class:`~repro.topology.graph.ASGraph`) as they are and derives the
per-relationship index tuples only if a reader asks.  Everything that
runs a pass takes one: the kernel (:mod:`repro.core.fixing`), the
full-state entry points (:mod:`repro.core.outcome`) and the count jobs
(:mod:`repro.core.jobs`).

The context's scratch arrays make routing computations *not*
thread-safe per context; fork-based multiprocessing (the experiment
runner's strategy) is safe because each worker gets its own
copy-on-write context.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..topology.graph import ASGraph
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
    """A graph's adjacency plus reusable scratch for routing passes.

    Build once per graph.  ASNs map onto the graph's dense indices
    ``0..n-1`` (sorted-ASN order, so index tiebreaks equal ASN
    tiebreaks), and the kernels read the graph's own CSR arrays as
    they are, never a copy or a derived array.  Each row lists ``u``'s
    providers, then its peers, then its customers, so the edges a
    non-customer route may be exported on are the row's tail from
    ``cust_start[u]``: the kernel expands only that tail for a source
    that does not export to everyone.

    The perceivable closure's walk is derived lazily, as no kernel
    reads it.  The context also owns the scratch arrays of the fixing
    pass, which makes a single context not thread-safe (fork workers
    each get a copy-on-write clone, which is safe).

    Args:
        graph: the topology to route on.

    Example:
        Build one context per graph and reuse it for every computation
        on that graph:

        >>> from repro.topology.graph import graph_from_edges
        >>> from repro.core.outcome import compute_routing_outcome
        >>> g = graph_from_edges(customer_provider=[(2, 1), (3, 1), (4, 2)])
        >>> ctx = RoutingContext(g)
        >>> ctx.n
        4
        >>> g.indices([1, 4]).tolist()  # dense indices in sorted-ASN order
        [0, 3]
        >>> compute_routing_outcome(ctx, 4, attacker=3).count_happy()
        (1, 2)
    """

    __slots__ = (
        "graph",
        "n",
        "_walk",
        "_np_scratch",
        "_np_rows",
        "_blind_counts",
        "_mask_cache",
        "_stub_simplex_ok",
        "_zero_mask",
    )

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph
        n = len(graph)
        if n >= 1 << PACK_SHIFT:
            raise ValueError(
                f"graph has {n} ASes; the packed-key engine supports up to "
                f"{(1 << PACK_SHIFT) - 1}"
            )
        self.n = n

        #: the perceivable closure's walk (:mod:`repro.core.perceivable`)
        self._walk: tuple | None = None
        #: the arrays a state call computes in (:meth:`_np_ensure_scratch`)
        self._np_scratch: dict | None = None
        #: the flat state arrays of the kernel's K-row count calls
        self._np_rows: dict | None = None
        #: ``(blind model, dest_i, att_i, resolved attack)`` → the
        #: happy bounds of that blind pass (:mod:`repro.core.jobs`):
        #: exact for the context's life, as its graph never changes
        self._blind_counts: dict = {}
        self._mask_cache: dict = {}
        #: id → deployment that passed :meth:`require_stub_simplex`
        #: (weak: a dead deployment drops out, so ids cannot be recycled).
        self._stub_simplex_ok: "weakref.WeakValueDictionary[int, Deployment]" = (
            weakref.WeakValueDictionary()
        )
        self._zero_mask = bytearray(n)

    # Called by perfbench/layers.py (close) and service_load.py (with).
    def close(self) -> None:
        """No-op: a context owns no OS resource."""

    def __enter__(self) -> "RoutingContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        (:meth:`require_stub_simplex`).  Readers never write a mask, so
        a deployment with no simplex member in the graph gets one mask
        twice.
        """
        if deployment.size == 0:
            zero = self._zero_mask
            return zero, zero
        cache = self._mask_cache
        entry = cache.get(id(deployment))
        if entry is not None and entry[0] is deployment:
            return entry[1], entry[2]
        self.require_stub_simplex(deployment)
        ranking = signing = bytearray(self.n)
        np.frombuffer(ranking, np.uint8)[self._present(deployment.full_asns)] = 1
        simplex = self._present(deployment.simplex_asns)
        if len(simplex):
            signing = bytearray(ranking)
            np.frombuffer(signing, np.uint8)[simplex] = 1
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
        if not len(deployment.simplex_asns):
            return
        checked = self._stub_simplex_ok
        if checked.get(id(deployment)) is deployment:
            return
        members = self._present(deployment.simplex_asns)
        g = self.graph
        transit = members[g.cust_start[members] < g.adj_start[members + 1]]
        transit = np.sort(g.asn_of[transit]).tolist()
        if transit:
            shown = ", ".join(map(str, transit[:10]))
            more = f" and {len(transit) - 10} more" if len(transit) > 10 else ""
            raise ValueError(
                f"simplex S*BGP is for stubs, but simplex member(s) "
                f"{shown}{more} have customers; a transit simplex AS can "
                f"leave more than one stable state"
            )
        checked[id(deployment)] = deployment

    def _present(self, asns: np.ndarray) -> np.ndarray:
        """The dense indices of those of ``asns`` in the graph."""
        i = self.graph.indices(asns)
        return i[i >= 0]

    def _check_pair(self, destination: int, attacker: int | None) -> tuple[int, int]:
        """``(dest_i, att_i)`` of a pair (``att_i = -1`` for no
        attacker); ``ValueError`` for an AS outside the graph or
        ``m == d``."""
        dest_i = self.graph.index(destination)
        if dest_i < 0:
            raise ValueError(f"destination AS {destination} not in graph")
        if attacker is None:
            return dest_i, -1
        att_i = self.graph.index(attacker)
        if att_i < 0:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if att_i == dest_i:
            raise ValueError("attacker and destination must differ")
        return dest_i, att_i


def _as_context(topology: ASGraph | RoutingContext) -> RoutingContext:
    """``topology`` itself if it is a context, else a fresh one on it."""
    if isinstance(topology, RoutingContext):
        return topology
    return RoutingContext(topology)
