#!/usr/bin/env python3
"""The measurements that own two constants of ``repro.core.routing``:
``VECTORIZED_MIN_N`` — scalar against numpy kernels over a range of
graph sizes — and, with ``--rows``, ``NP_ROWS_BUDGET`` — the numpy
bucket kernel at K rows a call against one; and, with ``--groups``, the
race behind a numpy context evaluating every destination group as rows.

    python tools/kernel_crossover.py [--sizes 60 120 …] [--repeats 3]
    python tools/kernel_crossover.py --rows [--sizes …] [--repeats 3]
    python tools/kernel_crossover.py --groups [--sizes …] [--repeats 3]

For each size N the graph is built once (``medium``'s sample budgets
cut by 16, as ``sweep_pool_medium`` cuts them, on N ASes) and two
shapes run on a scalar and on a numpy :class:`RoutingContext` over it:

* **sweep** — a serial cold ``run_experiments`` of the pooled sweep's
  experiment family into a fresh store (destination sweeps, rollout
  chains, the scheduler around them);
* **pair** — the per-pair path with routes materialised:
  ``batch_outcomes`` over 40 sampled pairs under ``security_2nd`` with a
  third of the ASes secure, then ``len(outcome.routes)`` of each.

Each timing is the fastest of ``--repeats``.  The constant belongs at
the smallest size from which numpy stays ahead on both shapes.  Asserts
no timing: exits non-zero only if the two kernels' stored records or
routing outcomes differ at some size.

``--rows`` runs, per size, the same ``ROWS`` fixing passes (sampled
pairs, four nested deployments with simplex stubs, ``security_2nd``)
through ``RoutingContext._run_np`` as count calls — the rows
``jobs_happiness_counts`` runs — K at a call for K = 1, 2, 4, … and
prints milliseconds per row; ``*`` marks the K the budget gives that
size (``RoutingContext.batch_rows``).  The budget belongs where the
columns stop improving at the sizes in use, and no higher: a count call
keeps ``12·K·n`` bytes of state and peaks near ``47·K·n`` with its
temporaries (``tracemalloc``, K = 14 on 2 200 ASes).  Exits non-zero if
some row's counts differ from the one-row call's.

``--groups`` sends, per size, one destination group of A attackers
(A = 1, 4, 16, 32) along a 4-step nested chain (simplex stubs,
``security_2nd``), under ``hijack`` and under ``honest``, two ways on a
numpy context: through ``jobs_happiness_counts`` (count rows) and
through a hand-walked ``RolloutSweep`` (``advance`` per step, then
``happiness_counts`` per attacker).  It prints milliseconds per
pair-step, fastest of ``--repeats``, each with the spread (max − min)
of its repeats, and beside each cell the ``_run_np`` rows that
``jobs_happiness_counts`` ran (``honest``'s attacker-free state passes
included) against its pair-steps.  The chain never deploys the destination, so no
announcement is signed and every row is blind: it runs once, as the
baseline placement's pass, for all four steps — A rows for A × 4
pair-steps, plus ``honest``'s one state pass a step.  Exits non-zero
if the two ways' counts differ in some cell.
"""

import argparse
import dataclasses
import os
import random
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.checks import digest_records  # noqa: E402
from perfbench.workloads import SWEEP_FAMILY, sweep_scale  # noqa: E402
from repro.core import SECURITY_MODELS, Deployment, routing  # noqa: E402
from repro.core.attacks import HONEST, ONE_HOP_HIJACK  # noqa: E402
from repro.core.routing import (  # noqa: E402
    RolloutSweep,
    RoutingContext,
    batch_outcomes,
    rollout_happiness_counts,
)
from repro.topology import TopologyParams, generate_topology  # noqa: E402
from repro.experiments import make_context, run_experiments  # noqa: E402
from repro.experiments.failures import FailureLog  # noqa: E402
from repro.experiments.store import open_store  # noqa: E402

DEFAULT_SIZES = (60, 120, 300, 600, 900, 1500, 2200, 4000)
PAIRS = 40
#: ``--rows``: passes per size, and the K they are batched by
ROWS = 64
ROW_KS = (1, 2, 4, 8, 16, 32, 64)
#: ``--groups``: attackers per destination group
GROUP_AS = (1, 4, 16, 32)


def walls_of(repeats: int, run) -> tuple[list[float], object]:
    """``(walls, last value)`` of ``repeats`` calls of ``run``."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        value = run()
        walls.append(time.perf_counter() - started)
    return walls, value


def fastest(repeats: int, run) -> tuple[float, object]:
    """``(fastest wall, last value)`` of ``repeats`` calls of ``run``."""
    walls, value = walls_of(repeats, run)
    return min(walls), value


def sweep_digest(ectx, ctx: RoutingContext) -> str:
    """One cold serial pass of the sweep family on ``ctx``; the digest
    of what it stored."""
    cold = dataclasses.replace(
        ectx, graph_ctx=ctx, cache={}, failure_log=FailureLog(),
        metric_evaluations=0,
    )
    with tempfile.TemporaryDirectory() as root:
        store = open_store(root)
        try:
            run_experiments(cold, SWEEP_FAMILY, store=store)
            return digest_records(store.records())
        finally:
            store.close()


def pair_outcomes(ctx: RoutingContext, pairs, deployment) -> list:
    """Per-pair outcomes, next-hop lists decoded and route views made."""
    outcomes = batch_outcomes(ctx, pairs, deployment, SECURITY_MODELS[1])
    for outcome in outcomes:
        len(outcome.routes)
    return outcomes


def rows_table(sizes, repeats: int) -> int:
    """``--rows``: ms per row by (size, K); 1 if some counts differ."""
    print(f"{'N':>6} {'K*':>4}  " + " ".join(f"{f'K={k}':>7}" for k in ROW_KS))
    model = SECURITY_MODELS[1]
    budget = routing.NP_ROWS_BUDGET
    wrong = []
    for n in sizes:
        graph = generate_topology(TopologyParams(n=n, seed=2013)).graph
        ctx = RoutingContext(graph, vectorized=True)
        given = max(1, budget // ctx.n)
        # room for the largest K measured, whatever the constant is
        routing.NP_ROWS_BUDGET = max(ROW_KS) * ctx.n
        rnd = random.Random(f"rows/{n}")
        asns = graph.asns
        members = rnd.sample(asns, n // 2)
        chain = [
            Deployment.of(members[: len(members) * t // 3]).with_simplex_stubs(graph)
            for t in range(4)
        ]
        rows = []
        for _ in range(ROWS):
            m, d = rnd.sample(asns, 2)
            dest_i, att_i = ctx._check_pair(d, m)
            masks = ctx.deployment_masks(rnd.choice(chain))
            rows.append((dest_i, att_i, *masks, routing.DEFAULT_RESOLVED))
        cells = []
        for k in ROW_KS:
            wall, counts = fastest(repeats, lambda: [
                c for at in range(0, ROWS, k)
                for c in ctx._run_np(rows[at : at + k], model)
            ])
            if k == 1:
                alone = counts
            elif counts != alone:
                wrong.append((n, k))
            cells.append(f"{wall / ROWS * 1e3:>6.3f}" + ("*" if k == given else " "))
        print(f"{n:>6} {given:>4}  " + " ".join(cells), flush=True)
    routing.NP_ROWS_BUDGET = budget
    print(
        "ms per row (fastest of repeats); K* = batch_rows under "
        "NP_ROWS_BUDGET, starred where it is a column"
    )
    if wrong:
        print(f"ROWS DISAGREE with the one-row call at (N, K): {wrong}")
    return 1 if wrong else 0


def kernel_rows(run) -> int:
    """How many rows ``RoutingContext._run_np`` ran during ``run()``."""
    rows = [0]
    run_np = RoutingContext._run_np

    def counted(self, batch, *args, **kwargs):
        rows[0] += len(batch)
        return run_np(self, batch, *args, **kwargs)

    RoutingContext._run_np = counted
    try:
        run()
    finally:
        RoutingContext._run_np = run_np
    return rows[0]


def walked_counts(ctx, pairs, chain, model, attack) -> list:
    """One group's counts per chain step from a hand-walked sweep."""
    sweep = RolloutSweep(ctx, pairs[0][1], chain[0], model, attack=attack)
    out = []
    for t, deployment in enumerate(chain):
        if t:
            sweep.advance(deployment)
        out.append([sweep.happiness_counts(m) for m, _ in pairs])
    return out


def groups_table(sizes, repeats: int) -> int:
    """``--groups``: ms per pair-step, rows against a walked sweep, by
    (size, strategy, A); 1 if some cell's counts differ."""
    print(
        f"{'N':>6} {'attack':>7} {'A':>3}  {'rows ms':>8} {'±':>6}"
        f"  {'sweep ms':>9} {'±':>6}  {'ratio':>6}  {'kernel rows':>11}"
    )
    model = SECURITY_MODELS[1]
    wrong = []
    for n in sizes:
        graph = generate_topology(TopologyParams(n=n, seed=2013)).graph
        ctx = RoutingContext(graph, vectorized=True)
        rnd = random.Random(f"groups/{n}")
        asns = graph.asns
        d = rnd.choice(asns)
        members = rnd.sample([a for a in asns if a != d], n // 2)
        chain = [
            Deployment.of(members[: len(members) * t // 3]).with_simplex_stubs(graph)
            for t in range(4)
        ]
        attackers = rnd.sample([a for a in asns if a != d], max(GROUP_AS))
        for attack in (ONE_HOP_HIJACK, HONEST):
            for a in GROUP_AS:
                pairs = [(m, d) for m in attackers[:a]]

                def run():
                    return rollout_happiness_counts(
                        ctx, pairs, chain, model, attack=attack
                    )

                rows_walls, rows = walls_of(repeats, run)
                sweep_walls, walked = walls_of(
                    repeats, lambda: walked_counts(ctx, pairs, chain, model, attack)
                )
                if walked != rows:
                    wrong.append((n, attack.token, a))
                pair_steps = a * len(chain)
                per = pair_steps / 1e3  # a wall in s / per = ms a pair-step
                (rows_ms, rows_pm), (sweep_ms, sweep_pm) = (
                    (min(w) / per, (max(w) - min(w)) / per)
                    for w in (rows_walls, sweep_walls)
                )
                print(
                    f"{n:>6} {attack.token:>7} {a:>3}  {rows_ms:>8.3f} {rows_pm:>6.3f}"
                    f"  {sweep_ms:>9.3f} {sweep_pm:>6.3f}  {rows_ms / sweep_ms:>5.2f}x"
                    f"  {f'{kernel_rows(run)}/{pair_steps}':>11}",
                    flush=True,
                )
    print(
        "ms per pair-step (fastest of repeats; ± = max − min of them); "
        "ratio = rows / sweep: below 1.00x rows are ahead; kernel rows = "
        "_run_np rows of one rows call / its pair-steps"
    )
    if wrong:
        print(f"ROWS AND SWEEP DISAGREE at (N, attack, A): {wrong}")
    return 1 if wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--rows", action="store_true",
        help="the K-rows-a-call table behind NP_ROWS_BUDGET instead",
    )
    parser.add_argument(
        "--groups", action="store_true",
        help="rows against a walked sweep, one destination group of A "
        "attackers along a 4-step chain, instead",
    )
    args = parser.parse_args()
    if args.rows:
        return rows_table(args.sizes, args.repeats)
    if args.groups:
        return groups_table(args.sizes, args.repeats)
    print(
        f"{'N':>6}  {'sweep scalar s':>14} {'numpy s':>8} {'ratio':>6}"
        f"  {'pair scalar ms':>14} {'numpy ms':>8} {'ratio':>6}"
    )
    disagree = []
    for n in args.sizes:
        with make_context(
            dataclasses.replace(sweep_scale(), n=n), vectorized=False
        ) as ectx:
            kernels = (ectx.graph_ctx, RoutingContext(ectx.graph, vectorized=True))
            rnd = random.Random(f"crossover/{n}")
            asns = ectx.graph.asns
            pairs = [tuple(rnd.sample(asns, 2)) for _ in range(PAIRS)]
            deployment = Deployment.of(rnd.sample(asns, n // 3))

            def both(run) -> tuple[tuple, tuple]:
                """``run(ctx)`` on the scalar, then the numpy context:
                ``(walls, values)``."""
                return tuple(zip(*(
                    fastest(args.repeats, lambda: run(ctx)) for ctx in kernels
                )))

            sweep_s, digests = both(lambda ctx: sweep_digest(ectx, ctx))
            pair_s, outcomes = both(
                lambda ctx: pair_outcomes(ctx, pairs, deployment)
            )
        if digests[0] != digests[1]:
            disagree.append((n, "sweep"))
        if any(
            dict(scalar.routes) != dict(numpy.routes)
            for scalar, numpy in zip(*outcomes)
        ):
            disagree.append((n, "pair"))
        print(
            f"{n:>6}  {sweep_s[0]:>14.3f} {sweep_s[1]:>8.3f}"
            f" {sweep_s[0] / sweep_s[1]:>5.2f}x"
            f"  {pair_s[0] / PAIRS * 1e3:>14.2f} {pair_s[1] / PAIRS * 1e3:>8.2f}"
            f" {pair_s[0] / pair_s[1]:>5.2f}x",
            flush=True,
        )
    print("ratio = scalar / numpy: above 1.00x the numpy kernels are ahead")
    if disagree:
        print(f"KERNELS DISAGREE at (N, shape): {disagree}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
