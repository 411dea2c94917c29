"""Compressed numpy delta kernel for :class:`~repro.core.routing.DestinationSweep`.

:func:`delta_np` is the vectorized twin of
:meth:`DestinationSweep._delta_pure`: it re-fixes one attacker delta (or
one rollout advance) bit-identically, but runs the bucket-Dijkstra of
:meth:`RoutingContext._run_np` over a *compressed* index space holding
only the dirty dependency closure plus the baseline-unreachable nodes,
with the clean fixed region acting as a frozen boundary of offer rows.
A sweep's masks passed ``require_stub_simplex``, so keys are strictly
monotone here as they are there.

The closure sweep, wave kernel and count swap read the sweep's numpy
baseline snapshot and write only per-delta compressed scratch; no
python buffer is involved.  The snapshot's dependency index (next-hop
pairs and their CSRs) is read through
:meth:`~repro.core.routing.DestinationSweep._np_ensure_dep`, which
builds it on first use, and not before the seed layer has passed the
budget check: a delta that cedes there never asks for one.  An attacker
delta is its counts; an advance
also returns its re-fixed state as a patch that
:meth:`~repro.core.routing.RolloutSweep._commit` scatters into the
snapshot.  That makes the escape to the dense pass nearly free —
:class:`~repro.core.routing._DeltaOversize` (cost estimate past the
dense fall-back's break-even) just clears the dirty flags it set and
raises.

Dynamic invalidation (a re-fixed route beating — or insecurely tying —
a clean boundary baseline) is handled by *wave restarts*: the compressed
sweep runs to completion, every boundary violation's closure is folded
into the region, and the wave restarts on the grown index space.  The
stable state is unique given the frozen boundary, so a superset region
converges to the same bit-identical result the pure kernel reaches by
invalidating mid-heap; restarts are rare because violations only arise
from attacker-shortened paths crossing the closure's rim.
"""

from __future__ import annotations

import heapq

import numpy as np

from .routing import (
    _IDX_MASK,
    _NP_INF,
    PACK_SHIFT,
    _DeltaOversize,
    _np_key_fn,
)

_I64 = np.int64


def delta_np(sweep, att_i, extra_resets, res, budget):
    """One vectorized delta; returns ``(counts, touched)`` for an
    attacker delta and ``(counts, patch)`` for an advance
    (``extra_resets`` given), whose re-fixed state the caller commits:
    ``patch`` holds ``touched``, the ``writes`` — ``(rows, {field:
    column})`` to scatter into the baseline arrays — and the membership
    pairs ``us``/``vs`` that replace those of the ``rebuilt`` nodes.

    Raises :class:`_DeltaOversize` when the cost estimate outgrows
    ``budget`` (dirty flags cleared, nothing mutated) —
    :meth:`DestinationSweep._delta` then runs the dense pass instead.
    """
    ctx = sweep.ctx
    n = ctx.n
    base = sweep._np_base
    b_fixed = base["fixed"]
    b_key = base["key"]
    b_cls = base["cls"]
    b_len = base["len"]
    b_reach = base["reach"]
    b_wire = base["wire"]
    b_sec = base["sec"]
    b_choice = base["choice"]
    b_endp = base["endp"]
    deadcnt = base["deadcnt"]
    deadwire = base["deadwire"]
    dirty = np.frombuffer(sweep._dirty, dtype=np.uint8)
    start, node, cls_e, cf_b, _esrc, _cust = ctx._np_adjacency()
    rank_i = np.frombuffer(sweep._ranking, dtype=np.uint8).astype(_I64)
    sign_i = np.frombuffer(sweep._signing, dtype=np.uint8).astype(_I64)
    model = sweep.model
    key_of = _np_key_fn(model)
    uses_sec = model.uses_security
    dest_i = sweep._dest_i
    dest_signed = 1 if sweep._signing[dest_i] else 0
    advance = extra_resets is not None
    if att_i >= 0:
        att_active = res.active
        att_ln = res.length + 1
        att_wire = 1 if res.wire else 0
        att_exp = res.export_all
    else:
        att_active = False
        att_ln = att_wire = 0
        att_exp = False

    empty = np.empty(0, _I64)
    touched_parts: list = []
    hard_parts: list = []
    prune_parts: list = []
    tot = 0
    hard_tot = 0

    def cleanup() -> None:
        """Undo the only global mutations phase A makes: dirty flags
        and the dead-member accumulators (every written entry belongs
        to a flagged node)."""
        for part in touched_parts:
            dirty[part] = 0
            deadcnt[part] = 0
            deadwire[part] = 0

    def check_budget() -> None:
        """Cede to the dense pass once the estimate of what this kernel
        will pay crosses ``budget``, the dense pass's cost scale (a
        small fraction of ``n``): the hard region drives the compressed
        waves, and pruned/tie nodes only cost the (python) soft phase a
        heap pop each — roughly a quarter of a re-waved node."""
        if hard_tot + (tot >> 2) > budget:
            cleanup()
            raise _DeltaOversize

    def closure(seeds) -> None:
        """Vectorized BFS twin of the pure kernel's ``reset_closure``:
        hard-reset ``seeds`` and every dependent whose record cannot
        survive; prune (``dirty = 2``) dependents that keep a live,
        wire-preserving BPR subset.  Classification is evaluated from
        the dead-member accumulators, which makes it order-independent
        (a layer's aggregate equals the pure DFS's last per-death
        check, and both conditions are monotone in the dead set)."""
        nonlocal tot, hard_tot
        seeds = seeds[dirty[seeds] != 1]
        if not seeds.size:
            return
        layer = np.unique(seeds)
        while layer.size:
            fresh = layer[dirty[layer] == 0]
            if fresh.size:
                touched_parts.append(fresh)
                tot += int(fresh.size)
            dirty[layer] = 1
            hard_parts.append(layer)
            hard_tot += int(layer.size)
            # Per layer, not once at the end: an oversize region's full
            # closure can be several times the budget, and walking the
            # rest of it would just be thrown away.
            check_budget()
            # First read of the dependency index, which builds it: a
            # delta whose seed layer alone is oversize ceded above
            # without one.
            dep = sweep._np_ensure_dep()
            dep_start = dep["dep_start"]
            s = dep_start[layer]
            cnt = dep_start[layer + 1] - s
            tote = int(cnt.sum())
            if not tote:
                break
            cend = np.cumsum(cnt)
            eidx = np.repeat(s - (cend - cnt), cnt) + np.arange(tote)
            ys = dep["dep_v"][eidx]
            xs = np.repeat(layer, cnt)
            m = dirty[ys] != 1
            ys = ys[m]
            if not ys.size:
                break
            xs = xs[m]
            np.add.at(deadcnt, ys, 1)
            np.add.at(deadwire, ys, b_wire[xs])
            cand = np.unique(ys)
            live = dep["nhcnt"][cand] - deadcnt[cand]
            hard = live == 0
            promo = (
                ~hard
                & (sign_i[cand] != 0)
                & (b_wire[cand] == 0)
                & (dep["bwirecnt"][cand] - deadwire[cand] == live)
            )
            hp = hard | promo
            pruned = cand[~hp]
            if pruned.size:
                fresh = pruned[dirty[pruned] == 0]
                if fresh.size:
                    dirty[fresh] = 2
                    touched_parts.append(fresh)
                    prune_parts.append(fresh)
                    tot += int(fresh.size)
            layer = cand[hp]

    # ------------------------------------------------------------------
    # Phase A: region discovery (the closures double as the cost
    # estimate — nothing is mutated beyond dirty flags).
    tie_w_parts: list = []
    tie_u_parts: list = []
    if not advance:
        closure(np.array([att_i], dtype=_I64))
        # The attacker root's claimed announcement versus each clean
        # fixed neighbor's baseline (the pure kernel's step 3): beaten
        # or insecurely-tied baselines seed further closures, exact
        # wire-preserving ties go to the soft phase.
        if att_active:
            sl = slice(start[att_i], start[att_i + 1])
            w = node[sl]
            vcls = cls_e[sl]
            scope = cf_b[sl] | att_exp
            m = scope & (dirty[w] != 1) & b_fixed[w] & (w != dest_i)
            wm = w[m]
            if wm.size:
                k = key_of(
                    vcls[m],
                    np.full(wm.size, att_ln, dtype=_I64),
                    rank_i[wm] * att_wire,
                )
                cur = b_key[wm]
                beat = (k < cur) | (
                    (k == cur) & (att_wire == 0) & (b_wire[wm] == 1)
                )
                tie = (k == cur) & ~beat
                if tie.any():
                    tie_w_parts.append(wm[tie])
                    tie_u_parts.append(
                        np.full(int(tie.sum()), att_i, dtype=_I64)
                    )
                pending = wm[beat]
                if pending.size:
                    closure(pending)
    else:
        seeds = np.asarray(list(extra_resets), dtype=_I64)
        if seeds.size:
            closure(seeds)

    check_budget()

    # ------------------------------------------------------------------
    # Phase B: compressed wave kernel over loc = hard resets (minus the
    # attacker root) plus every baseline-unreachable node.
    inv = ctx._np_inv
    if inv is None:
        inv = ctx._np_inv = np.full(n, -1, dtype=_I64)
    unreach = np.flatnonzero(~b_fixed)

    def rebuild_loc():
        lc = np.unique(np.concatenate(hard_parts + [unreach, empty]))
        if att_i >= 0:
            lc = lc[lc != att_i]
        return lc

    wave = _run_waves(
        n, rebuild_loc, inv, closure, check_budget,
        tie_w_parts, tie_u_parts,
        base, start, node, cls_e, cf_b, rank_i, sign_i,
        key_of, uses_sec, dest_i, dest_signed,
        att_i, att_active, att_ln, att_wire, att_exp,
    )
    (loc, fixed_c, key_c, cls_c, len_c, reach_c, wire_c, sec_c,
     choice_c, endp_glob, mem_u, mem_v) = wave

    # Baseline-unreachable nodes that the delta fixed are first-touched
    # exactly like the pure kernel's pop step.
    newfix = loc[fixed_c & ~b_fixed[loc]]
    if newfix.size:
        dirty[newfix] = 1
        touched_parts.append(newfix)
        tot += int(newfix.size)

    # ------------------------------------------------------------------
    # Phase C: soft phase (deferred knife-edge ties + pruned BPR sets).
    extra_touched: list = []
    soft_nh: dict = {}
    have_soft = bool(tie_w_parts) or bool(prune_parts)
    reach_glob = choice_glob = None
    if have_soft:
        reach_glob = b_reach.copy()
        choice_glob = b_choice.copy()
        fx = np.flatnonzero(fixed_c)
        gl = loc[fx]
        reach_glob[gl] = reach_c[fx]
        choice_glob[gl] = choice_c[fx]
        reach_glob[dest_i] = 1
        if att_i >= 0:
            reach_glob[att_i] = 2 if att_active else 0
        _soft_phase(
            sweep._np_ensure_dep(), dirty, inv, b_fixed, b_key,
            reach_glob, choice_glob, endp_glob,
            key_c, reach_c, choice_c,
            mem_u, mem_v, tie_w_parts, tie_u_parts, prune_parts,
            soft_nh, extra_touched,
        )

    # ------------------------------------------------------------------
    # Phase D: O(touched) vectorized count swap (the pure kernel's
    # exact subtraction/addition, batched).
    if extra_touched:
        touched_parts.append(np.asarray(extra_touched, dtype=_I64))
    T = (
        np.concatenate(touched_parts)
        if touched_parts
        else empty
    )
    lo, up, alo, aup, sec_n, nfx = sweep._b_counts
    root_att = sweep._root_att
    if T.size:
        if reach_glob is not None:
            out_reach = reach_glob[T]
        else:
            out_reach = b_reach[T]
        if loc.size:
            il = inv[T]
            in_loc = il >= 0
            ilc = np.where(in_loc, il, 0)
            fixed_new = np.where(in_loc, fixed_c[ilc], b_fixed[T])
            reach_new = np.where(in_loc, reach_c[ilc], out_reach)
            sec_new = np.where(in_loc, sec_c[ilc], b_sec[T])
        else:
            fixed_new = b_fixed[T]
            reach_new = out_reach
            sec_new = b_sec[T]
        m1 = (T != root_att) & b_fixed[T]
        r1 = b_reach[T[m1]]
        lo -= int((r1 == 1).sum())
        alo -= int((r1 == 2).sum())
        up -= int((r1 != 2).sum())
        aup -= int((r1 != 1).sum())
        sec_n -= int(b_sec[T[m1]].sum())
        nfx -= int(m1.sum())
        m2 = (T != att_i) & fixed_new
        r2 = reach_new[m2]
        lo += int((r2 == 1).sum())
        alo += int((r2 == 2).sum())
        up += int((r2 != 2).sum())
        aup += int((r2 != 1).sum())
        sec_n += int(sec_new[m2].sum())
        nfx += int(m2.sum())
    counts = (int(lo), int(up), int(alo), int(aup), int(sec_n), int(nfx))

    # ------------------------------------------------------------------
    # Epilogue: an attacker delta is its counts; an advance also hands
    # its re-fixed state to the commit, as a patch.
    soft = T[dirty[T] == 2] if advance else None
    inv[loc] = -1
    cleanup()
    touched = T.tolist()
    if not advance:
        return counts, touched
    writes = [(loc, {
        "fixed": fixed_c, "key": key_c, "cls": cls_c, "len": len_c,
        "reach": reach_c, "wire": wire_c, "sec": sec_c,
        "choice": choice_c, "endp": endp_glob[loc],
    })]
    if soft.size:  # knife-edge rows, disjoint from loc
        writes.append((soft, {
            "reach": reach_glob[soft], "choice": choice_glob[soft],
            "endp": endp_glob[soft],
        }))
    # BPR sets rebuilt: every loc row (from the final wave's members)
    # and the soft rows whose set was pruned or gained a tying member.
    resized = np.array(list(soft_nh), dtype=_I64)
    sizes = [len(members) for members in soft_nh.values()]
    soft_u = [u for members in soft_nh.values() for u in members]
    return counts, {
        "touched": touched,
        "writes": writes,
        "rebuilt": np.concatenate([loc, resized]),
        "us": np.concatenate([mem_u, np.array(soft_u, dtype=_I64)]),
        "vs": np.concatenate([mem_v, np.repeat(resized, sizes)]),
    }


def _run_waves(
    n, rebuild_loc, inv, closure, check_budget,
    tie_w_parts, tie_u_parts, base, start, node, cls_e, cf_b,
    rank_i, sign_i, key_of, uses_sec, dest_i, dest_signed,
    att_i, att_active, att_ln, att_wire, att_exp,
):
    """Run the compressed bucket kernel, restarting on boundary
    violations, until the re-fixed region is stable against the frozen
    boundary.  Returns the final wave's compressed state plus the
    global next-hop membership pairs of the re-fixed nodes."""
    b_fixed = base["fixed"]
    b_key = base["key"]
    b_cls = base["cls"]
    b_len = base["len"]
    b_reach = base["reach"]
    b_wire = base["wire"]
    b_endp = base["endp"]
    loc = rebuild_loc()
    empty = np.empty(0, _I64)
    while True:
        L = int(loc.size)
        inv[loc] = np.arange(L, dtype=_I64)
        rank_loc = rank_i[loc]
        sign_loc = sign_i[loc]
        # Sub-CSR over the region's rows: each edge serves offers in
        # (boundary rows, tgt outside loc) and out (violation scan).
        if L:
            s = start[loc]
            cnt = start[loc + 1] - s
            tote = int(cnt.sum())
        else:
            tote = 0
        if tote:
            cend = np.cumsum(cnt)
            eidx = np.repeat(s - (cend - cnt), cnt) + np.arange(tote)
            rsrc = np.repeat(np.arange(L, dtype=_I64), cnt)
            tgt = node[eidx]
            ecls = cls_e[eidx]
            ecf = cf_b[eidx]
            tl = inv[tgt]
            internal = tl >= 0
            isrc = rsrc[internal]
            itgt = tl[internal]
            iecls = ecls[internal]
            iecf = ecf[internal]
            bm = ~internal
            bu0 = tgt[bm]
            bx0 = rsrc[bm]
            bcls0 = ecls[bm]
            bcf0 = ecf[bm]
        else:
            isrc = itgt = iecls = empty
            iecf = np.empty(0, np.bool_)
            bu0 = bx0 = bcls0 = empty
            bcf0 = np.empty(0, np.bool_)

        # Boundary offer rows INTO the region (the pure kernel's
        # gather(), batched): clean fixed neighbors with their baseline
        # records, the destination and attacker with root semantics.
        is_dest = bu0 == dest_i
        if att_i >= 0:
            is_att = bu0 == att_i
        else:
            is_att = np.zeros(bu0.size, np.bool_)
        legal = (
            is_dest
            | (is_att & att_active & (att_exp | (bcls0 == 0)))
            | (
                ~is_dest & ~is_att & b_fixed[bu0]
                & ((b_cls[bu0] == 0) | (bcls0 == 0))
            )
        )
        bu = bu0[legal]
        bx = bx0[legal]
        bucls = bcls0[legal]
        d2 = is_dest[legal]
        a2 = is_att[legal]
        ln_b = np.where(d2, 1, np.where(a2, att_ln, b_len[bu] + 1))
        wi_b = np.where(d2, dest_signed, np.where(a2, att_wire, b_wire[bu]))
        re_b = np.where(d2, 1, np.where(a2, 2, b_reach[bu]))
        icls_b = 2 - bucls
        kb = key_of(icls_b, ln_b, wi_b & rank_loc[bx])

        keyq = np.full(L, _NP_INF, _I64)
        key_c = np.full(L, _NP_INF, _I64)
        cls_c = np.zeros(L, _I64)
        len_c = np.zeros(L, _I64)
        reach_c = np.zeros(L, _I64)
        wire_c = np.zeros(L, _I64)
        sec_c = np.zeros(L, _I64)
        choice_c = np.full(L, -1, _I64)
        chacc = np.full(L, n, _I64)
        endp_c = np.zeros(L, _I64)
        fixed_c = np.zeros(L, np.bool_)
        endp_glob = b_endp.copy()
        endp_glob[dest_i] = 1
        if att_i >= 0:
            endp_glob[att_i] = 2 if att_active else 0
        icnt = np.bincount(isrc, minlength=L) if L else np.zeros(0, _I64)
        istart = np.zeros(L + 1, _I64)
        np.cumsum(icnt, out=istart[1:])

        def apply(xs, k, srcg, wi, re, vcls, ln):
            """One batch of offers, exactly _run_np.relax's accumulator
            semantics (improvement resets, tie accumulation)."""
            old = keyq[xs]
            np.minimum.at(keyq, xs, k)
            new = keyq[xs]
            improved = new < old
            if improved.any():
                iv = xs[improved]
                reach_c[iv] = 0
                wire_c[iv] = 1
                chacc[iv] = n
            tie = k == new
            tv = xs[tie]
            cls_c[tv] = vcls[tie]
            len_c[tv] = ln[tie]
            np.bitwise_or.at(reach_c, tv, re[tie])
            np.minimum.at(wire_c, tv, wi[tie])
            np.minimum.at(chacc, tv, srcg[tie])

        if bu.size:
            apply(bx, kb, bu, wi_b, re_b, icls_b, ln_b)

        def relax(B, exp_src, ln_src, wire_src, reach_src):
            s2 = istart[B]
            c2 = istart[B + 1] - s2
            tot2 = int(c2.sum())
            if not tot2:
                return
            cend2 = np.cumsum(c2)
            eix = np.repeat(s2 - (cend2 - c2), c2) + np.arange(tot2)
            rep = np.repeat(np.arange(B.size), c2)
            tv = itgt[eix]
            ok = (exp_src[rep] | iecf[eix]) & ~fixed_c[tv]
            if not ok.any():
                return
            eix = eix[ok]
            tv = tv[ok]
            rep = rep[ok]
            vcls = iecls[eix]
            ln = ln_src[rep]
            wi = wire_src[rep]
            k = key_of(vcls, ln, wi & rank_loc[tv])
            apply(tv, k, loc[B][rep], wi, reach_src[rep], vcls, ln)

        while L:
            gmin = int(keyq.min())
            if gmin >= _NP_INF:
                break
            B = np.flatnonzero(keyq == gmin)
            keyq[B] = _NP_INF
            key_c[B] = gmin
            fixed_c[B] = True
            ch = chacc[B]
            choice_c[B] = ch
            ev = endp_glob[ch]
            endp_c[B] = ev
            endp_glob[loc[B]] = ev
            w = wire_c[B]
            if uses_sec:
                sec_c[B] = w & rank_loc[B]
            wire_c[B] = w & sign_loc[B]
            relax(B, cls_c[B] == 0, len_c[B] + 1, wire_c[B], reach_c[B])

        # Boundary scan OUT of the region: a re-fixed record beating a
        # clean baseline (or insecurely tying it) invalidates the
        # target — fold its closure in and restart; an exact
        # wire-preserving tie is a deferred soft-phase membership add.
        vm = (
            fixed_c[bx0] & b_fixed[bu0] & (bu0 != dest_i)
            & ((cls_c[bx0] == 0) | bcf0)
        )
        if att_i >= 0:
            vm &= bu0 != att_i
        vsrc = bx0[vm]
        vt = bu0[vm]
        if vt.size:
            k2 = key_of(
                bcls0[vm],
                len_c[vsrc] + 1,
                wire_c[vsrc] & rank_i[vt],
            )
            cur = b_key[vt]
            viol = (k2 < cur) | (
                (k2 == cur) & (wire_c[vsrc] == 0) & (b_wire[vt] == 1)
            )
            if viol.any():
                inv[loc] = -1
                closure(np.unique(vt[viol]))
                check_budget()
                loc = rebuild_loc()
                continue
            tie2 = k2 == cur
            if tie2.any():
                tie_w_parts.append(vt[tie2])
                tie_u_parts.append(loc[vsrc[tie2]])

        # Final wave: global next-hop membership pairs of the re-fixed
        # nodes, boundary and internal members alike by key match (see
        # _np_nhop_pairs).
        mb = fixed_c[bx] & (kb == key_c[bx])
        mem_u_b = bu[mb]
        mem_v_b = loc[bx[mb]]
        ii = np.flatnonzero(
            fixed_c[isrc] & fixed_c[itgt] & ((cls_c[isrc] == 0) | iecf)
        )
        if ii.size:
            k3 = key_of(
                iecls[ii],
                len_c[isrc[ii]] + 1,
                wire_c[isrc[ii]] & rank_loc[itgt[ii]],
            )
            ii = ii[k3 == key_c[itgt[ii]]]
        mem_u = np.concatenate([mem_u_b, loc[isrc[ii]]])
        mem_v = np.concatenate([mem_v_b, loc[itgt[ii]]])
        return (
            loc, fixed_c, key_c, cls_c, len_c, reach_c, wire_c, sec_c,
            choice_c, endp_glob, mem_u, mem_v,
        )


def _soft_phase(
    base, dirty, inv, b_fixed, b_key, reach_glob, choice_glob,
    endp_glob, key_c, reach_c, choice_c,
    mem_u, mem_v, tie_w_parts, tie_u_parts, prune_parts,
    soft_nh, extra_touched,
):
    """The pure kernel's step 7, against overlays: knife-edge ties and
    pruned BPR sets shift only reach/choice/endpoint, propagated
    upward in key order through the dependency lists.  Scalar loop —
    the worklist is tiny relative to the region."""
    b_us = base["us"]
    nh_start = base["nh_start"]
    dep_start = base["dep_start"]
    dep_v = base["dep_v"]
    push = heapq.heappush
    pop = heapq.heappop
    work: list = []
    ss = np.searchsorted
    if mem_u.size:
        o1 = np.argsort(mem_u, kind="stable")
        cu = mem_u[o1]
        cv = mem_v[o1]
        o2 = np.argsort(mem_v, kind="stable")
        mu2 = mem_u[o2]
        mv2 = mem_v[o2]
    else:
        cu = cv = mu2 = mv2 = mem_u
    for part in prune_parts:
        for x in part.tolist():
            if dirty[x] != 2:
                continue  # promoted to a hard reset later
            bpr = b_us[nh_start[x]:nh_start[x + 1]]
            soft_nh[x] = bpr[dirty[bpr] != 1].tolist()
            push(work, (int(b_key[x]) << PACK_SHIFT) | x)
    for wp, upart in zip(tie_w_parts, tie_u_parts):
        for w, u in zip(wp.tolist(), upart.tolist()):
            if dirty[w] == 1:
                continue  # hard-invalidated; the tie was re-collected
            lst = soft_nh.get(w)
            if lst is None:
                dirty[w] = 2
                extra_touched.append(w)
                lst = b_us[nh_start[w]:nh_start[w + 1]].tolist()
                soft_nh[w] = lst
            lst.append(u)
            push(work, (int(b_key[w]) << PACK_SHIFT) | w)
    while work:
        x = pop(work) & _IDX_MASK
        if dirty[x] == 1:
            lo_ = ss(mv2, x, "left")
            hi_ = ss(mv2, x, "right")
            members = mu2[lo_:hi_].tolist()
        else:
            members = soft_nh.get(x)
            if members is None:
                members = b_us[nh_start[x]:nh_start[x + 1]].tolist()
        if not members:
            continue
        r = 0
        for u in members:
            r |= int(reach_glob[u])
        ch = members[0] if len(members) == 1 else min(members)
        ep = int(endp_glob[ch])
        if (
            r == int(reach_glob[x])
            and ep == int(endp_glob[x])
            and ch == int(choice_glob[x])
        ):
            continue
        if dirty[x] == 0:
            dirty[x] = 2
            extra_touched.append(x)
        reach_glob[x] = r
        choice_glob[x] = ch
        endp_glob[x] = ep
        li = int(inv[x])
        if li >= 0 and dirty[x] == 1:
            reach_c[li] = r
            choice_c[li] = ch
        for y in dep_v[dep_start[x]:dep_start[x + 1]].tolist():
            if dirty[y] != 1 and b_fixed[y]:
                push(work, (int(b_key[y]) << PACK_SHIFT) | y)
        lo_ = ss(cu, x, "left")
        hi_ = ss(cu, x, "right")
        for y in cv[lo_:hi_].tolist():
            push(work, (int(key_c[inv[y]]) << PACK_SHIFT) | y)
