#!/usr/bin/env python3
"""The measurements that own two constants of ``repro.core.routing``:
``VECTORIZED_MIN_N`` — scalar against numpy kernels over a range of
graph sizes — and, with ``--rows``, ``NP_ROWS_BUDGET`` — the numpy
bucket kernel at K rows a call against one.

    python tools/kernel_crossover.py [--sizes 60 120 …] [--repeats 3]
    python tools/kernel_crossover.py --rows [--sizes …] [--repeats 3]

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
from repro.core.routing import RoutingContext, batch_outcomes  # noqa: E402
from repro.topology import TopologyParams, generate_topology  # noqa: E402
from repro.experiments import make_context, run_experiments  # noqa: E402
from repro.experiments.failures import FailureLog  # noqa: E402
from repro.experiments.store import open_store  # noqa: E402

DEFAULT_SIZES = (60, 120, 300, 600, 900, 1500, 2200, 4000)
PAIRS = 40
#: ``--rows``: passes per size, and the K they are batched by
ROWS = 64
ROW_KS = (1, 2, 4, 8, 16, 32, 64)


def fastest(repeats: int, run) -> tuple[float, object]:
    """``(fastest wall, last value)`` of ``repeats`` calls of ``run``."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        value = run()
        walls.append(time.perf_counter() - started)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--rows", action="store_true",
        help="the K-rows-a-call table behind NP_ROWS_BUDGET instead",
    )
    args = parser.parse_args()
    if args.rows:
        return rows_table(args.sizes, args.repeats)
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
