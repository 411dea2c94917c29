#!/usr/bin/env python3
"""Alternated parent/change runs of one perfbench workload, every value
printed (ROADMAP constraint (b): the host is too noisy for one pair).

    python tools/alternate_bench.py PARENT_DIR CHANGE_DIR --workload W --pairs N

Each checkout runs its *own* ``perfbench/bench.py --workload W --trace 0``
from its own directory; odd pairs run the parent first, even pairs the
change.  Asserts no timing: it prints, per end-to-end metric, both
series, their medians and quartiles, in how many pairs the change read
lower and whether every change run is below every parent run.  Each
metric with a bound in the change's ``BENCHMARK.json`` then gets a
verdict, in this order:

* ``unresolved``: either side's spread (IQR / median) is wider than the
  bound, so the runs cannot tell a change inside it from noise, and
  not every change run is better than every parent run;
* ``gain``: the change is better in at least 9 of 10 pairs and its
  median beats the parent's by more than the parent's IQR;
* ``worse``: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
* ``within bound``: otherwise.

Exits non-zero only if some run did not report ``"correct": true``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(directory: str, workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", workload, "--trace", "0"],
        cwd=directory, capture_output=True, text=True,
    )
    lines = [ln for ln in done.stdout.splitlines() if ln.startswith("{")]
    if not lines:
        sys.exit(f"{directory}: no result line (exit {done.returncode})\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """Q1, median, Q3 by ``statistics.quantiles(values, n=4)``, the
    benchmark's own spread measure."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"median {med:.4g} (quartiles {q1:.4g}..{q3:.4g})"


def verdict(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    """The acceptance verdict for one metric; ``lower`` is whether lower
    is better."""
    sign = 1 if lower else -1
    (p1, p_med, p3), (c1, c_med, c3) = quartiles(parent), quartiles(change)
    spread = max((p3 - p1) / p_med, (c3 - c1) / c_med)
    better = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    gained = sign * (p_med - c_med)
    detail = (
        f"better in {better} of {len(parent)} pairs, median moved "
        f"{(c_med - p_med) / p_med:+.3f} (bound {bound:.2f}), spread "
        f"{spread:.3f}, median gain {gained:.4g} vs parent IQR {p3 - p1:.4g}"
    )
    if spread > bound and not separated:
        return f"unresolved: {detail}"
    if better >= 0.9 * len(parent) and gained > p3 - p1:
        return f"gain: {detail}"
    if -gained / p_med > bound:
        return f"worse: {detail}"
    return f"within bound: {detail}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", default="rollout_large")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    sides = {"parent": args.parent_dir, "change": args.change_dir}
    manifest = json.loads(Path(args.change_dir, "BENCHMARK.json").read_text())
    gated = {m["name"]: m for m in manifest["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            runs[side].append(run(sides[side], args.workload))
            print(f"pair {pair} {side}: {json.dumps(runs[side][-1])}", flush=True)
    for name, spec in runs["parent"][0]["metrics"].items():
        parent, change = (
            [r["metrics"][name]["value"] for r in runs[side]] for side in sides
        )
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"\n{args.workload} {name} [{spec['unit']}]")
        print("  parent:", " ".join(f"{v:.4g}" for v in parent), "|", summary(parent))
        print("  change:", " ".join(f"{v:.4g}" for v in change), "|", summary(change))
        print(
            f"  change lower in {lower} of {args.pairs} pairs; every change run "
            f"below every parent run: {max(change) < min(parent)}"
        )
        if name in gated:
            bound, lower_better = gated[name]["bound"], gated[name]["better"] == "lower"
            print("  verdict:", verdict(parent, change, bound, lower_better))
    wrong = [
        (side, i + 1) for side in sides for i, r in enumerate(runs[side])
        if not r.get("correct") or r.get("failed")
    ]
    if wrong:
        print(f"\nNOT CORRECT: {wrong}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
