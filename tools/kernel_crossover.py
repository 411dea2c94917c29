#!/usr/bin/env python3
"""The measurements behind the numpy kernel's batching
(``repro.core.fixing``): with ``--rows``, the constant ``NP_ROWS_BUDGET``
— the bucket kernel at K rows a call against one — and, with
``--groups``, the race behind evaluating every destination group as
rows.  One of the two is required.

    python tools/kernel_crossover.py --rows [--sizes 60 120 …] [--repeats 3]
    python tools/kernel_crossover.py --groups [--sizes …] [--repeats 3]

``--rows`` runs, per size, the same ``ROWS`` fixing passes (sampled
pairs, four nested deployments with simplex stubs, ``security_2nd``)
through ``fixing._run_np`` as count calls — the rows
``jobs_happiness_counts`` runs — K at a call for K = 1, 2, 4, … and
prints milliseconds per row; ``*`` marks the K the budget gives that
size (``RoutingContext.batch_rows``).  The budget belongs where the
columns stop improving at the sizes in use, and no higher: a count call
keeps ``12·K·n`` bytes of state and peaks near ``47·K·n`` with its
temporaries (``tracemalloc``, K = 14 on 2 200 ASes).  Exits non-zero if
some row's counts differ from the one-row call's.

``--groups`` sends, per size, one destination group of A attackers
(A = 1, 4, 16, 32) along a 4-step nested chain (simplex stubs,
``security_2nd``), under ``hijack`` and under ``honest``, two ways on one
context: through ``jobs_happiness_counts`` (count rows) and through a
fresh ``DestinationSweep`` per step (its attacker-free pass, then one
``happiness_counts`` pass per attacker).  It prints milliseconds per
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
import os
import random
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core import SECURITY_MODELS, Deployment, context, fixing  # noqa: E402
from repro.core.attacks import DEFAULT_RESOLVED, HONEST, ONE_HOP_HIJACK  # noqa: E402
from repro.core.context import RoutingContext  # noqa: E402
from repro.core.jobs import DestinationSweep, rollout_happiness_counts  # noqa: E402
from repro.topology import TopologyParams, generate_topology  # noqa: E402

DEFAULT_SIZES = (60, 120, 300, 600, 900, 1500, 2200, 4000)
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


def rows_table(sizes, repeats: int) -> int:
    """``--rows``: ms per row by (size, K); 1 if some counts differ."""
    print(f"{'N':>6} {'K*':>4}  " + " ".join(f"{f'K={k}':>7}" for k in ROW_KS))
    model = SECURITY_MODELS[1]
    budget = context.NP_ROWS_BUDGET
    wrong = []
    for n in sizes:
        graph = generate_topology(TopologyParams(n=n, seed=2013)).graph
        ctx = RoutingContext(graph)
        given = max(1, budget // ctx.n)
        # room for the largest K measured, whatever the constant is
        context.NP_ROWS_BUDGET = max(ROW_KS) * ctx.n
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
            rows.append((dest_i, att_i, *masks, DEFAULT_RESOLVED))
        cells = []
        for k in ROW_KS:
            wall, counts = fastest(repeats, lambda: [
                c for at in range(0, ROWS, k)
                for c in fixing._run_np(ctx, rows[at : at + k], model)
            ])
            if k == 1:
                alone = counts
            elif counts != alone:
                wrong.append((n, k))
            cells.append(f"{wall / ROWS * 1e3:>6.3f}" + ("*" if k == given else " "))
        print(f"{n:>6} {given:>4}  " + " ".join(cells), flush=True)
    context.NP_ROWS_BUDGET = budget
    print(
        "ms per row (fastest of repeats); K* = batch_rows under "
        "NP_ROWS_BUDGET, starred where it is a column"
    )
    if wrong:
        print(f"ROWS DISAGREE with the one-row call at (N, K): {wrong}")
    return 1 if wrong else 0


def kernel_rows(run) -> int:
    """How many rows ``fixing._run_np`` ran during ``run()``."""
    rows = [0]
    run_np = fixing._run_np

    def counted(ctx, batch, *args, **kwargs):
        rows[0] += len(batch)
        return run_np(ctx, batch, *args, **kwargs)

    fixing._run_np = counted
    try:
        run()
    finally:
        fixing._run_np = run_np
    return rows[0]


def swept_counts(ctx, pairs, chain, model, attack) -> list:
    """One group's counts per chain step from a fresh sweep a step."""
    out = []
    for deployment in chain:
        sweep = DestinationSweep(ctx, pairs[0][1], deployment, model, attack)
        out.append([sweep.happiness_counts(m) for m, _ in pairs])
    return out


def groups_table(sizes, repeats: int) -> int:
    """``--groups``: ms per pair-step, rows against a fresh sweep a
    step, by (size, strategy, A); 1 if some cell's counts differ."""
    print(
        f"{'N':>6} {'attack':>7} {'A':>3}  {'rows ms':>8} {'±':>6}"
        f"  {'fresh ms':>9} {'±':>6}  {'ratio':>6}  {'kernel rows':>11}"
    )
    model = SECURITY_MODELS[1]
    wrong = []
    for n in sizes:
        graph = generate_topology(TopologyParams(n=n, seed=2013)).graph
        ctx = RoutingContext(graph)
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
                sweep_walls, swept = walls_of(
                    repeats, lambda: swept_counts(ctx, pairs, chain, model, attack)
                )
                if swept != rows:
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
        "fresh = a fresh DestinationSweep a step; ratio = rows / fresh: "
        "below 1.00x rows are ahead; kernel rows = "
        "_run_np rows of one rows call / its pair-steps"
    )
    if wrong:
        print(f"ROWS AND FRESH SWEEPS DISAGREE at (N, attack, A): {wrong}")
    return 1 if wrong else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    parser.add_argument("--repeats", type=int, default=3)
    table = parser.add_mutually_exclusive_group(required=True)
    table.add_argument(
        "--rows", action="store_true",
        help="the K-rows-a-call table behind NP_ROWS_BUDGET",
    )
    table.add_argument(
        "--groups", action="store_true",
        help="rows against a fresh sweep a step, one destination group "
        "of A attackers along a 4-step chain",
    )
    args = parser.parse_args()
    if args.rows:
        return rows_table(args.sizes, args.repeats)
    return groups_table(args.sizes, args.repeats)


if __name__ == "__main__":
    sys.exit(main())
