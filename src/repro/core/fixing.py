"""The fixing pass: one routing computation (Section 3, Appendix B).

For one destination ``d``, an optional attacker ``m``, a deployment
``S`` and a routing-policy model, the pass computes the stable routing
state that Theorem 2.1 guarantees to exist and be unique.  How the
attacker's announcement enters it — its claimed path length, whether
it carries valid-looking security attributes, which neighbors hear it
— is a pluggable :class:`repro.core.attacks.AttackStrategy`; the
default is the paper's Section 3.1 one-hop bogus path ``"m d"``
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

**The kernel.**  :func:`_run_np` is a bucket kernel over the context's
int64 CSR (:class:`repro.core.context.RoutingContext`), with rank keys
packed into single ints (:func:`repro.core.rank.pack_key`).  Rank keys
are strictly monotone on every input it takes (LP buckets never shrink
along an export-legal edge, length always grows, and the one sender
whose offer could be more secure than its own route, a simplex AS, is
a stub — :meth:`~repro.core.context.RoutingContext.deployment_masks`
rejects any other — and exports nothing), so every node holding the
current *global minimum* tentative key is final and each round can fix
the whole minimum-key bucket at once, relaxing the edges it exports on
in one batch of numpy gathers/scatters — the whole CSR row of a node
holding a customer route (and of the destination), the customer tail
of the row for everyone else, so an edge the export rule forbids is
never expanded.  The number of such rounds is bounded by the number of
*distinct* packed keys — a few dozen ``(class, length, security)``
combinations at any graph size — so per-node python overhead vanishes,
and what is left is numpy call overhead per round: K rows share it.
The packed key is injective in ``(class, length[, security])``, so a
bucket's class (whether it exports to everyone) and length are scalars
of the round, recorded with each key as it is minted: an edge offers
``table[2·receiver_class + (wire & ranking[v])]``, six keys a length
(customer tail: 2).

**Rows.**  The state arrays are flat, ``K·n`` long: node ``v`` of row
``r`` is element ``r·n + v``, the CSR is the graph's own with the row's
offset added to its targets, and roots, masks and resolved attack are
per row.  Rows never touch, and the global minimum visits each row's
buckets in that row's own ascending order, so every row is
bit-identical to the pass it would be alone (``tools/kernel_crossover.py
--rows`` times K against one at a time;
:data:`repro.core.context.NP_ROWS_BUDGET` caps ``K·n``).

**Count and state calls.**  A call computes only what its counts read,
in a scratch of its own, and leaves the last state call's arrays alone.
A *state* call — one row, :func:`_run` — also tracks the lowest tying
offerer and fixes key, class, length, choice and endpoint per bucket,
in the context's state scratch, and returns a :class:`StatePass`: its
counts and what next-hop membership is derived from, on demand.  Python
objects per AS exist only in a :class:`repro.core.outcome.RoutingOutcome`.
The count-only entry points (:mod:`repro.core.jobs`) run every distinct
pass once, K of them to a call.  The original dict-based engine
survives verbatim in :mod:`repro.core.refimpl` for differential testing.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .attacks import (
    DEFAULT_RESOLVED,
    AttackStrategy,
    AttackerBaseline,
    ResolvedAttack,
)
from .context import RoutingContext
from .rank import PACK_SHIFT, RankModel, SecurityModel

#: Version of the routing *semantics* (not the implementation).  Bump
#: whenever a change alters any routing outcome — tiebreak handling,
#: export rules, security attribution — so content-addressed caches of
#: evaluated scenarios (:mod:`repro.experiments.store`) invalidate
#: instead of silently serving pre-change results.  Pure performance
#: rewrites that reproduce the golden fixtures bit-for-bit must NOT
#: bump it.
ENGINE_VERSION = 1

#: "No key" sentinel of the int64 state arrays.  Real packed keys use
#: at most 3 * PACK_SHIFT = 63 bits but stay far below ``1 << 62`` (the
#: top component is a small LP bucket or 0/1 security bit), so this
#: sentinel is strictly larger than every real key.
_NP_INF = 1 << 62


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


class StatePass(NamedTuple):
    """What one state call (:func:`_run`) computed: its six ``counts``
    over the sources (the roots left out) — happy lower/upper, attacked
    lower/upper, secure, fixed — its per-node ``arrays``, and the
    roots, resolved attack, model and ranking mask that next-hop
    membership is derived from (:func:`repro.core.outcome.
    _np_nhop_pairs`).  ``arrays`` is the context's state scratch,
    valid until its next state call."""

    counts: tuple[int, int, int, int, int, int]
    arrays: dict
    dest_i: int
    att_i: int
    attack: ResolvedAttack
    model: RankModel
    ranking: bytearray


def _attacker_baseline(arrays: dict, att_i: int) -> AttackerBaseline:
    """The attacker's legitimate record in one pass's state arrays."""
    return AttackerBaseline(
        has_route=bool(arrays["fixed"][att_i]),
        length=int(arrays["len"][att_i]),
        wire_secure=bool(arrays["wire"][att_i]),
    )


def _resolve_attack(
    ctx: RoutingContext,
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
        free = _run(ctx, dest_i, -1, signing, ranking, model)
        baseline = _attacker_baseline(free.arrays, att_i)
    return attack.resolve(dest_signed=bool(signing[dest_i]), baseline=baseline)


def _run(
    ctx: RoutingContext,
    dest_i: int,
    att_i: int,
    signing: bytearray,
    ranking: bytearray,
    model: RankModel,
    attack: ResolvedAttack = DEFAULT_RESOLVED,
) -> StatePass:
    """Run one fixing pass, a one-row state call of :func:`_run_np`
    (``att_i = -1`` for normal conditions; ``attack`` parameterizes
    how the attacker root announces)."""
    (counts,) = _run_np(
        ctx, [(dest_i, att_i, signing, ranking, attack)], model, state=True
    )
    return StatePass(counts, ctx._np_scratch, dest_i, att_i, attack, model, ranking)


def _seed_roots(rows: Sequence[tuple], n: int, st: dict, sign_np, state: bool):
    """Fix every row's roots: the destination originates the prefix;
    the attacker its claimed path as the strategy resolved it (the
    paper default: the bogus one-hop-longer ``"m d"`` via legacy BGP).
    Returns the roots' flat indices ``(dest, att)`` and the announcing
    attackers grouped by export scope and claimed length, each group
    relaxed at once."""
    fixed_s, reach_s, reach_hi, wire_s, sec_s = (
        st[name] for name in ("fixed", "reach", "reach_hi", "wire", "sec")
    )
    base = np.arange(len(rows), dtype=np.int64) * n
    dest = base + np.array([row[0] for row in rows], dtype=np.int64)
    fixed_s[dest] = True
    reach_s[dest] = 1
    wire_s[dest] = sec_s[dest] = sign_np[dest]
    attacked = [r for r, row in enumerate(rows) if row[1] >= 0]
    att = base[attacked] + np.array(
        [rows[r][1] for r in attacked], dtype=np.int64
    )
    fixed_s[att] = True
    groups: dict[tuple[bool, int], list[int]] = {}
    for r, a in zip(att.tolist(), (rows[r][4] for r in attacked)):
        wire_s[r] = a.wire
        if a.active:
            reach_hi[r] = 1
            groups.setdefault((a.export_all, a.length), []).append(r)
    if state:
        ((dest_i, att_i, _signing, _ranking, attack),) = rows
        st["endp"][dest_i] = 1
        if att_i >= 0:
            st["len"][att_i] = attack.length
            st["endp"][att_i] = 2 if attack.active else 0
    return dest, att, groups


def _count(st: dict, K: int, n: int, dest, att) -> list[tuple]:
    """Each row's six counts (:class:`StatePass`), once its bucket loop
    is done.  Folds the attacker's reach bit into ``reach`` first, where
    a state call's reader finds both."""
    reach_s = st["reach"]
    reach_s |= st["reach_hi"] << 1
    counted = st["fixed"].copy()
    counted[dest] = counted[att] = False
    counted = counted.reshape(K, n)
    r = np.where(counted, reach_s.reshape(K, n), 0)
    sec = counted & (st["sec"].reshape(K, n) != 0)
    return [
        (lo, lo + b, alo, alo + b, s, nfx)
        for lo, alo, b, s, nfx in zip(*(
            np.count_nonzero(x, axis=1).tolist()
            for x in (r == 1, r == 2, r == 3, sec, counted)
        ))
    ]


def _run_np(
    ctx: RoutingContext, rows: Sequence[tuple], model: RankModel, *,
    state: bool = False,
) -> list[tuple[int, int, int, int, int, int]]:
    """The fixing pass, K at a time: K independent passes on ``ctx``
    — ``rows`` of ``(dest_i, att_i, signing, ranking, attack)`` under
    one ``model`` — as one bucket-Dijkstra sweep; returns each row's
    six counts (:class:`StatePass`).  A ``state`` call takes one row
    and leaves its per-node state in the context's state scratch
    (module docstring).
    """
    n = ctx.n
    K = len(rows)
    int64, arange = np.int64, np.arange
    start, node, cls_e, _cf_b, _esrc, cust_start = ctx._np_adjacency()
    st = ctx._np_ensure_scratch(K, state)
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
    if state:  # int64 copies, the state arrays' dtype
        sign_np = _u8(rows[0][2]).astype(int64)
        rank_np = _u8(rows[0][3]).astype(int64)
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

    dest, att, groups = _seed_roots(rows, n, st, sign_np, state)
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
    return _count(st, K, n, dest, att)
