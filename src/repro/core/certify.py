"""A stability certificate for one state pass (Theorem 2.1).

:func:`certify` checks, in O(E) numpy operations over the graph's own
CSR rows (row ``v`` holds the offers ``v`` receives), that a
:class:`~repro.core.fixing.StatePass` is stable; the stable state is
unique, so a certified pass *is* the answer.  Each fixed non-root AS
holds the minimum key of its fixed neighbours' ``Ex``-legal offers, and
an unfixed AS is offered none; ``reach``, ``choice``, ``endp``, ``sec``
and ``wire`` follow the tying offerers (``wire`` also the AS's own
signing bit); the roots carry the resolved attack; the six ``counts``
recount.  Keys come from :meth:`RankModel.key` and
:func:`~repro.core.rank.pack_key`: no code is shared with the kernel.
A pass run under the wrong rank model, the attack's resolution and the
decoding into routes stay with :mod:`repro.core.refimpl` and
:mod:`repro.bgpsim`.

Example, on the five-AS graph of :mod:`repro.core` (``5`` attacks ``4``):

    >>> from repro.core import BASELINE, RoutingContext, fixing
    >>> from repro.topology.graph import graph_from_edges
    >>> g = graph_from_edges(
    ...     customer_provider=[(2, 1), (3, 1), (4, 2), (5, 3)], peerings=[(2, 3)]
    ... )
    >>> ctx = RoutingContext(g)
    >>> no_one = bytearray(ctx.n)
    >>> state = fixing._run(ctx, 3, 4, no_one, no_one, BASELINE)
    >>> certify(ctx, state)  # stable: no exception
    >>> state.arrays["choice"][2] = 0  # AS 3 said to route via its provider 1
    >>> certify(ctx, state)
    Traceback (most recent call last):
    ...
    AssertionError: unstable state: AS 3 has choice 0, its offers give 4
"""

from __future__ import annotations

import numpy as np

from ..topology.relationships import RouteClass
from .context import RoutingContext
from .fixing import _NP_INF, StatePass
from .rank import pack_key


def certify(ctx: RoutingContext, state: StatePass) -> None:
    """Raise ``AssertionError`` naming the first unstable AS in fixing
    order (roots first: a wrong field misleads the ASes it offers to)
    unless ``state`` is the stable state of its pass."""
    g, n, st = ctx.graph, ctx.n, state.arrays
    fixed, key, cls, ln, reach, wire, sec, endp = (st[name] for name in (
        "fixed", "key", "cls", "len", "reach", "wire", "sec", "endp"))
    d, m, attack, model = state.dest_i, state.att_i, state.attack, state.model
    rank, sign = (np.frombuffer(mask, np.uint8).astype(np.int64)
                  for mask in (state.ranking, state.signing))
    root = np.zeros(n, bool)
    root[[d, m] if m >= 0 else [d]] = True
    held = fixed & ~root
    odd = np.flatnonzero(held & ((ln < 1) | (ln > n + attack.length) | (cls < 0)
                                 | (cls > 2) | (sec < 0) | (sec > 1)))
    if len(odd):
        raise AssertionError(f"unstable state: AS {g.asn_of[odd[0]]} holds an "
                             f"impossible route: {cls[odd[0]]}, {ln[odd[0]]}")
    lengths = np.flatnonzero(np.bincount(ln[held])).tolist()
    table = np.full((max([attack.length, *lengths]) + 2, 3, 2), _NP_INF)
    for length in {1, attack.length + 1, *lengths, *(x + 1 for x in lengths)}:
        for c in RouteClass:
            for s in (0, 1):
                table[length, c, s] = pack_key(model.key(c, length, bool(s)))

    # What each fixed AS announces: its route one hop longer, to everyone
    # if it is a customer route; the roots per the resolved attack.
    sends, out_len, out_all, out_wire = fixed.copy(), ln + 1, cls == 0, wire.copy()
    out_len[d], out_all[d] = 1, True
    if m >= 0:
        sends[m], out_all[m] = attack.active, attack.export_all
        out_len[m], out_wire[m] = attack.length + 1, attack.wire
    # Slot j of row v offers v the announcement of u = adj_node[j] as a
    # route of class ``as_class``, which Ex lets through if u exports to all
    # or is v's provider.  Legal slots stay in row order.
    row = np.repeat(np.arange(n), np.diff(g.adj_start))
    legal = np.flatnonzero(sends[g.adj_node] & (
        out_all[g.adj_node] | (g.adj_class == RouteClass.CUSTOMER)))
    u, v = g.adj_node[legal], row[legal]
    as_class = RouteClass.PROVIDER - g.adj_class[legal].astype(np.int64)
    offer = table[out_len[u], as_class, out_wire[u] & rank[v]]

    def per_row(ufunc, rows, values, identity):
        """``ufunc`` over each run of a sorted ``rows``' ``values``."""
        out = np.full(n, identity, np.int64)
        if len(rows):
            heads = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            out[rows[heads]] = ufunc.reduceat(values, heads)
        return out

    best = per_row(np.minimum, v, offer, _NP_INF)
    tie = offer == best[v]
    u, v = u[tie], v[tie]
    t_choice = per_row(np.minimum, v, u, n)
    t_wire = per_row(np.minimum, v, out_wire[u], 1)
    want = {
        "fixed": (best < _NP_INF) | root, "key": best, "len": ln.copy(),
        "reach": per_row(np.bitwise_or, v, reach[u], 0), "choice": t_choice,
        "endp": endp[np.minimum(t_choice, n - 1)],
        "sec": t_wire & rank if model.uses_security else np.zeros(n, np.int64),
        "wire": t_wire & sign,
    }
    roots = [(d, 1, 0, sign[d], sign[d])]
    if m >= 0:
        roots.append((m, 2 * attack.active, attack.length, 0, attack.wire))
    for i, ends, length, secure, signed in roots:
        for name, value in (("key", _NP_INF), ("len", length), ("reach", ends),
                            ("choice", -1), ("endp", ends), ("sec", secure),
                            ("wire", signed)):
            want[name][i] = value
    at = np.where(held, (ln * 3 + cls) * 2 + sec, 0)  # held routes' keys
    ranks = np.where(held, table.ravel()[at], _NP_INF)
    checks = [("key", held & (ranks != key), key, ranks),
              *((name, (fixed | (name == "fixed")) & (st[name] != values),
                 st[name], values) for name, values in want.items())]
    bad = np.flatnonzero(np.logical_or.reduce([c[1] for c in checks]))
    if len(bad):
        i = bad[np.argmin(np.where(root, -1, key)[bad])]
        name, _, got, values = next(c for c in checks if c[1][i])
        raise AssertionError(f"unstable state: AS {g.asn_of[i]} has "
                             f"{name} {got[i]}, its offers give {values[i]}")

    happy, both, hit = (int(np.count_nonzero(reach[held] == x)) for x in (1, 3, 2))
    recount = (happy, happy + both, hit, hit + both,
               int(np.count_nonzero(sec[held])), int(np.count_nonzero(held)))
    if tuple(state.counts) != recount:
        raise AssertionError(f"unstable state: the pass to AS {g.asn_of[d]} "
                             f"counts {tuple(state.counts)}, its state {recount}")
