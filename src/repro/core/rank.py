"""Routing-policy models as monotone rank keys (Sections 2.2.1-2.2.2, App. K).

Every model in the paper ranks a route by some ordering of three
attributes:

* its LP class (customer / peer / provider — or the interleaved ``LPk``
  buckets of Appendix K),
* its security (learned via S*BGP or via legacy BGP),
* its AS-path length,

followed by an intradomain tiebreak (``TB``).  This module encodes each
model as a function from ``(route class, length, secure)`` to a sortable
tuple — smaller is better:

=============== ==========================================
baseline        ``(LP, length)``           (origin authentication only)
security 1st    ``(¬secure, LP, length)``
security 2nd    ``(LP, ¬secure, length)``
security 3rd    ``(LP, length, ¬secure)``
=============== ==========================================

These keys are *monotone* under route extension: if AS ``v`` learns a
route through neighbor ``u``, the key of ``v``'s route is strictly larger
than the key of ``u``'s (length grows; the LP class can only move toward
provider because of the export rule ``Ex``; an insecure announcement can
never become secure again).  Monotonicity is what lets a single
Dijkstra-style fixing pass (:mod:`repro.core.routing`) implement all of
the staged BFS algorithms of Appendix B, and it is verified exhaustively
in ``tests/test_rank.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..topology.relationships import RouteClass


class SecurityModel(enum.Enum):
    """Where the ``SecP`` step sits in the route-selection process."""

    #: Origin authentication only; security plays no role in ranking.
    BASELINE = "baseline"
    #: ``SecP`` before ``LP``: security is the highest priority.
    FIRST = "security_1st"
    #: ``SecP`` between ``LP`` and ``SP``.
    SECOND = "security_2nd"
    #: ``SecP`` between ``SP`` and ``TB`` (the model of Gill et al.).
    THIRD = "security_3rd"


#: The operator survey of [18]: fraction of the 100 surveyed operators
#: that would adopt each placement (the rest declined to answer).
SURVEY_POPULARITY = {
    SecurityModel.FIRST: 0.10,
    SecurityModel.SECOND: 0.20,
    SecurityModel.THIRD: 0.41,
}


@dataclass(frozen=True)
class LocalPreference:
    """The LP step: classic Gao-Rexford or the ``LPk`` variant of App. K.

    With ``peer_window=None`` this is the classic model: customer > peer >
    provider.  With ``peer_window=k`` (``LPk``), routes are bucketed as::

        cust(len 1), peer(len 1), ..., cust(len k), peer(len k),
        cust(len >k), peer(len >k), provider

    ``peer_window=0`` is not allowed (it would collapse to the classic
    model with extra steps); use ``None`` for classic.  ``k → ∞`` (any
    value ≥ graph diameter) yields the "customer and peer equally
    preferred, shorter first" variant discussed in Appendix K.
    """

    peer_window: int | None = None

    def __post_init__(self) -> None:
        if self.peer_window is not None and self.peer_window < 1:
            raise ValueError("peer_window must be >= 1 (or None for classic LP)")

    def bucket(self, route_class: RouteClass, length: int) -> int:
        """LP bucket of a route; smaller is better."""
        if self.peer_window is None:
            return int(route_class)
        k = self.peer_window
        if route_class is RouteClass.PROVIDER:
            return 2 * (k + 1)
        capped = min(length, k + 1)
        offset = 0 if route_class is RouteClass.CUSTOMER else 1
        return 2 * (capped - 1) + offset

    @property
    def label(self) -> str:
        return "LP" if self.peer_window is None else f"LP{self.peer_window}"


CLASSIC_LP = LocalPreference()
LP2 = LocalPreference(peer_window=2)

#: Rank keys are tuples of small ints; smaller compares as "preferred".
RankKey = tuple[int, int, int]

#: Bits per packed-key component.  Each of the two lower components must
#: stay below ``2**PACK_SHIFT``; route lengths are bounded by ``|V|`` and
#: the flat routing engine enforces ``|V| < 2**PACK_SHIFT`` at build time.
PACK_SHIFT = 21
_PACK_MASK = (1 << PACK_SHIFT) - 1


def pack_key(key: RankKey) -> int:
    """Pack a rank key into one int, preserving lexicographic order.

    The routing engine (:mod:`repro.core.routing`) keeps rank keys as
    single int64 values so its bucket kernel compares whole keys in one
    array operation.  Packing is order-preserving as
    long as ``key[1]`` and ``key[2]`` fit in :data:`PACK_SHIFT` bits,
    which every model guarantees for graphs below ``2**PACK_SHIFT``
    ASes (components are LP buckets, lengths, or a 0/1 security bit).
    """
    return (key[0] << (2 * PACK_SHIFT)) | (key[1] << PACK_SHIFT) | key[2]


def unpack_key(packed: int) -> RankKey:
    """Inverse of :func:`pack_key`."""
    return (
        packed >> (2 * PACK_SHIFT),
        (packed >> PACK_SHIFT) & _PACK_MASK,
        packed & _PACK_MASK,
    )


@dataclass(frozen=True)
class RankModel:
    """A complete route-ranking model: security placement + LP variant.

    Use :meth:`key` to rank a route.  The ``secure`` argument must be the
    *receiver's effective* security of the route: True only if the route
    was learned via S*BGP end-to-end **and** the receiving AS has deployed
    (full) S*BGP — an AS that has not deployed S*BGP cannot validate
    anything and ranks every route as insecure.
    """

    model: SecurityModel = SecurityModel.BASELINE
    local_preference: LocalPreference = CLASSIC_LP

    def key(self, route_class: RouteClass, length: int, secure: bool) -> RankKey:
        """Sortable rank of a route; lexicographically smaller wins."""
        if length < 1:
            raise ValueError(f"route length must be >= 1, got {length}")
        insecure = 0 if secure else 1
        bucket = self.local_preference.bucket(route_class, length)
        if self.model is SecurityModel.FIRST:
            return (insecure, bucket, length)
        if self.model is SecurityModel.SECOND:
            return (bucket, insecure, length)
        if self.model is SecurityModel.THIRD:
            return (bucket, length, insecure)
        return (bucket, length, 0)

    @property
    def uses_security(self) -> bool:
        return self.model is not SecurityModel.BASELINE

    @property
    def label(self) -> str:
        lp = self.local_preference.label
        return f"{self.model.value}/{lp}" if lp != "LP" else self.model.value


#: Ready-made models used throughout the experiments.
BASELINE = RankModel(SecurityModel.BASELINE)
SECURITY_FIRST = RankModel(SecurityModel.FIRST)
SECURITY_SECOND = RankModel(SecurityModel.SECOND)
SECURITY_THIRD = RankModel(SecurityModel.THIRD)

#: The three S*BGP placements, in the paper's order.
SECURITY_MODELS = (SECURITY_FIRST, SECURITY_SECOND, SECURITY_THIRD)


def lp2_variant(model: RankModel) -> RankModel:
    """The Appendix K ``LP2`` twin of a model."""
    return RankModel(model.model, LP2)
