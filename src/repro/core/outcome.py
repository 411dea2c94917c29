"""Full routing outcomes: the stable state of one pass as python objects.

:func:`compute_routing_outcome` runs one state call of the fixing pass
(:func:`repro.core.fixing._run`) and decodes what it returned into a
:class:`RoutingOutcome`.  :func:`_decode` is the single crossing from
the kernel's arrays to python objects; :class:`RouteInfo` and the
per-AS mapping :attr:`RoutingOutcome.routes` are a thin
lazily-materialized view over its flat fields, so callers keep the
seed API.  Count-only callers never come here (:mod:`repro.core.jobs`).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..topology.graph import ASGraph
from ..topology.relationships import RouteClass
from . import fixing
from .attacks import DEFAULT_ATTACK, AttackStrategy
from .context import _EMPTY_DEPLOYMENT, RoutingContext, _as_context
from .deployment import Deployment
from .rank import BASELINE, RankKey, RankModel


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


def _np_nhop_pairs(ctx: RoutingContext, state: fixing.StatePass):
    """Next-hop membership ``(us, vs)`` of one state call, sorted by
    ``(v, u)``, from its arrays, roots, attack, model and ranking.

    Membership is decided arithmetically instead of by accumulating
    lists during the sweep: ``u ∈ nhops[v]`` iff both are fixed,
    ``u``'s export rule admits the edge, ``v`` is not a root and
    ``u``'s offer key equals ``v``'s final key (keys are strictly
    monotone, so a tying offerer fixed before ``v``).
    One whole-CSR batch evaluates every edge at once, and only a
    reader of next-hop sets pays for it: count-only workloads never
    do.
    """
    dest_i, att_i, attack = state.dest_i, state.att_i, state.attack
    g = ctx.graph
    cf_b = g.adj_class == RouteClass.PROVIDER  # a slot to a customer
    st = state.arrays
    fixed_s = st["fixed"]
    cls_s = st["cls"]
    len_s = st["len"]
    wire_s = st["wire"]
    u = g.slot_rows()
    v = g.adj_node
    exp = (cls_s[u] == 0) | cf_b
    # Root overrides: the origin exports to everyone; the attacker
    # per its resolved strategy (len_s/wire_s already hold the root
    # values the roots relax with, so ln/wire need none).
    exp |= u == dest_i
    sel = fixed_s[u] & fixed_s[v] & (v != dest_i)
    if att_i >= 0:
        au = u == att_i
        if not attack.active:
            exp &= ~au
        elif not attack.export_all:
            exp = np.where(au, cf_b, exp)
        else:
            exp |= au
        sel &= v != att_i
    sel &= exp
    us = u[sel]
    vs = v[sel]
    offer = wire_s[us] & fixing._u8(state.ranking)[vs]
    cls_e = g.adj_class[sel].astype(np.int64)
    k = fixing._np_key_fn(state.model)(cls_e, len_s[us] + 1, offer)
    keep = k == st["key"][vs]
    us = us[keep]
    vs = vs[keep]
    order = np.argsort(vs * ctx.n + us)
    return us[order], vs[order]


def _decode(ctx: RoutingContext, state: fixing.StatePass) -> tuple:
    """The one crossing from numpy state to python objects: the flat
    state fields of a :class:`RoutingOutcome` — ``fixed``, ``cls``,
    ``len``, ``reach``, ``wire``, ``sec``, ``choice``, ``endpoint``,
    ``nhops`` — from one state call's per-node arrays and its
    ``(v, u)``-sorted next-hop membership pairs.

    Next-hop lists come out sorted by sender index.
    """
    st = state.arrays
    us, vs = _np_nhop_pairs(ctx, state)

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
    return (
        st["fixed"].tobytes(), u8("cls"), st["len"].tolist(), u8("reach"),
        u8("wire"), u8("sec"), st["choice"].tolist(), u8("endp"), nhops,
    )


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
        i = o._index(asn)
        if i is None:
            raise KeyError(asn)
        info = o._build_info(i)
        self._cache[asn] = info
        return info

    def __contains__(self, asn: object) -> bool:
        return self._outcome._index(asn) is not None  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[int]:
        o = self._outcome
        return iter(o._asns_where(np.frombuffer(o._fixed, np.bool_)))

    def __len__(self) -> int:
        o = self._outcome
        return o._counts[5] + (2 if o._att_i >= 0 else 1)


class RoutingOutcome:
    """The stable state for one ``(destination, attacker, S, model)``.

    Backed by flat per-index fields decoded from one state call of the
    kernel (:func:`_decode`); :attr:`routes` is a lazily-materialized
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
        attack: AttackStrategy,
        ctx: RoutingContext,
        state: fixing.StatePass,
    ) -> None:
        self.destination = destination
        self.attacker = attacker
        self.deployment = deployment
        self.model = model
        self.attack = attack
        self._ctx = ctx
        self._resolved = state.attack
        self._dest_i = state.dest_i
        self._att_i = state.att_i
        self._counts = state.counts
        (
            self._fixed, self._cls, self._len, self._reach, self._wire,
            self._sec, self._choice, self._endpoint, self._nhops,
        ) = _decode(ctx, state)
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
        asn_of = self._ctx.graph.asn_view
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
            next_hops=tuple(map(asn_of.__getitem__, sorted(self._nhops[i]))),
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
        return iter(self._asns_where(self._source_mask(self._fixed)))

    def _asns_where(self, mask: np.ndarray) -> list[int]:
        """The ASNs at the dense indices ``mask`` marks."""
        return self._ctx.graph.asn_of[mask].tolist()

    def _source_mask(self, flags: bytes) -> np.ndarray:
        """``flags`` (one byte per dense index) as a mask, the roots
        cleared."""
        mask = np.frombuffer(flags, np.uint8).astype(np.bool_)
        mask[self._dest_i] = False
        if self._att_i >= 0:
            mask[self._att_i] = False
        return mask

    # -- per-AS predicates -------------------------------------------------
    def _index(self, asn: int) -> int | None:
        i = self._ctx.graph.index(asn)
        if i < 0 or not self._fixed[i]:
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
        return frozenset(self._asns_where(self._source_mask(self._sec)))

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
        asn_of = self._ctx.graph.asn_view.__getitem__
        choice = self._choice
        path = [asn_of(i)]
        seen = {i}
        while True:
            i = choice[i]
            if i < 0:
                return tuple(path)
            if i in seen:  # pragma: no cover - defended against, impossible
                raise RuntimeError(f"routing loop through AS {asn_of(i)}")
            seen.add(i)
            path.append(asn_of(i))


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
    resolved = fixing._resolve_attack(
        ctx, dest_i, att_i, signing, ranking, model, attack
    )
    state = fixing._run(ctx, dest_i, att_i, signing, ranking, model, resolved)
    return RoutingOutcome(
        destination, attacker, deployment, model, attack, ctx, state
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
