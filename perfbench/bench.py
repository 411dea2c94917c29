#!/usr/bin/env python3
"""The repo's benchmark: four workloads over the real entry points.

``BENCHMARK.json`` names two of them (``metrics.GATED``).  Two ways in (see README.md beside this file):

* ``bench.py --workload W --seed N --seconds S --trace 0|1`` measures
  one run of one workload and prints, as its last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` — the
  end-to-end metrics untraced, the per-layer metrics traced.
* ``bench.py`` alone runs every workload in a fresh child process
  each, untraced and then traced, prints every metric as
  ``workload metric value unit`` and exits non-zero on any
  correctness failure.  ``--calibrate N`` and ``--compare A B`` fix
  and apply the regression bounds; ``--record`` keeps a history row.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __name__ == "__main__":
    # As a script, sys.path[0] is this directory, whose trace.py would
    # shadow the stdlib module; import the package from the checkout root.
    sys.path[0] = str(ROOT)

from perfbench import metrics, stats  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"
BOUNDS = HERE / "bounds.json"
HISTORY = HERE / "history.jsonl"

#: ``run_seconds`` of the manifest: what a run of a gated workload
#: measures on 2 cores (16 s the sweep's rounds, 45 s the rollout's
#: pass and set-ups).  The workloads are fixed-size, so ``--seconds``
#: is taken and recorded but does not change the work.
RUN_SECONDS = 30

#: a serial workload whose wall exceeds its CPU time by this factor
#: shared the machine with something else.
NOISY_WALL_OVER_CPU = 1.15
SERIAL_WORKLOADS = (metrics.WRITEUP, metrics.ROLLOUT)

#: a calibrated bound is at least this; the manifest may carry at most
#: the cap, so a metric that needs more is reported as unsteady.
BOUND_FLOOR, BOUND_CAP = 0.05, 0.25


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=RUN_SECONDS,
        help="recorded with the run; the workloads are fixed-size",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, 1: per-layer metrics; without "
        "--workload the default is both, one after the other",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload at tiny scale, a fraction of a second each",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload, all on --seed",
    )
    parser.add_argument(
        "--vary-seed", action="store_true",
        help="run i of --runs/--calibrate uses --seed + i: the spread then "
        "includes what the inputs add to it",
    )
    parser.add_argument("--out", help="write the report's numbers as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="append one row per workload to perfbench/history.jsonl",
    )
    parser.add_argument(
        "--calibrate", type=int, metavar="N",
        help="N untraced runs per workload; write each (workload, metric) "
        "bound, max(0.05, 3 x IQR/median), to bounds.json and BENCHMARK.json",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare two --out files against the bounds in bounds.json",
    )
    return parser


def per_layer_table():
    from repro.experiments import all_experiments

    return metrics.per_layer(all_experiments())


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------

def run_one(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            "perfbench: src/repro is not in this checkout; nothing to measure",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from perfbench import harness, service_load, workloads
    from perfbench.trace import NullTracer, Tracer

    runners = {
        metrics.WRITEUP: workloads.run_writeup,
        metrics.SWEEP: workloads.run_sweep,
        metrics.ROLLOUT: workloads.run_rollout,
        metrics.SERVICE: service_load.run_service,
    }
    opts = workloads.Options(
        workload=args.workload, seed=args.seed, trace=bool(args.trace),
        smoke=args.smoke,
    )
    tracer = Tracer() if opts.trace else NullTracer()
    wall_started, cpu_started = time.perf_counter(), harness.cpu_seconds()
    with harness.Scratch() as scratch:
        result = runners[opts.workload](opts, tracer, scratch)
    wall = time.perf_counter() - wall_started
    cpu = harness.cpu_seconds() - cpu_started
    if opts.trace:
        tracer.dump(harness.OUT / f"trace-{opts.workload}.json")
        reported = report_layers(opts, result)
    else:
        result.metric("failed_ratio", result.failed / max(1, result.attempted))
        missing = [n for n, _, _ in metrics.END_TO_END if n not in result.metrics]
        if missing:
            result.error(f"end-to-end metrics not measured: {missing}")
        for name, (value, unit) in result.metrics.items():
            print(f"{opts.workload} {name} {value:.6g} {unit}")
        reported = {
            name: result.metrics[name]
            for name, _, _ in metrics.END_TO_END
            if name in result.metrics
        }
    for label, text in result.notes:
        print(f"# {opts.workload} {label}: {text}")
    noisy = (
        opts.workload in SERIAL_WORKLOADS
        and not opts.trace
        and wall / max(cpu, 1e-9) > NOISY_WALL_OVER_CPU
    )
    print(
        f"# {opts.workload} run: wall_s={wall:.3f} cpu_s={cpu:.3f} "
        f"noisy={str(noisy).lower()} seed={opts.seed} seconds={args.seconds:g} "
        f"trace={int(opts.trace)}"
    )
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": max(1, result.attempted),
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def report_layers(opts, result) -> dict[str, tuple[float, str]]:
    """Print a traced run's rows; return what its JSON line carries.

    A metric the workload reaches must have been recorded (at smoke
    size a probe may find nothing to sample, which is noted instead);
    one it does not reach prints ``n/a``.  The JSON line carries the
    manifest's names, each with a number — 0 where the row says n/a.
    """
    table = per_layer_table()
    unreached = []
    for name, unit, _, reach in table:
        if name in result.metrics:
            print(f"{opts.workload} {name} {result.metrics[name][0]:.6g} {unit}")
            continue
        print(f"{opts.workload} {name} n/a {unit}")
        if opts.workload in reach:
            unreached.append(name)
    if unreached and opts.smoke:
        result.note("not sampled at smoke size", " ".join(unreached))
    elif unreached:
        result.error(f"per-layer metrics not recorded: {unreached}")
    if MANIFEST.exists():
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        names = [(m["name"], m["unit"]) for m in manifest["per_layer"]]
    else:
        names = [(name, unit) for name, unit, _, _ in table]
    return {name: result.metrics.get(name, (0.0, unit)) for name, unit in names}


# ----------------------------------------------------------------------
# Every workload, each run in a child process
# ----------------------------------------------------------------------

def child_run(workload: str, seed: int, trace: int, args) -> dict:
    """One ``run_one`` in a fresh process; its parsed output."""
    command = [
        sys.executable, str(HERE / "bench.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    sys.stderr.write(proc.stderr)
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError):
        payload = {"correct": False, "attempted": 1, "failed": 1}
    rows: dict[str, float | None] = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            rows[fields[1]] = None if fields[2] == "n/a" else float(fields[2])
    return {
        "ok": proc.returncode == 0 and payload["correct"],
        "exit": proc.returncode,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "rows": rows,
        "notes": [line for line in lines if line.startswith("# ")],
    }


def hygiene() -> dict:
    """What the numbers were measured on, read at run time."""
    def git(*argv: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *argv], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_all(args: argparse.Namespace) -> int:
    runs = args.calibrate or args.runs
    untraced = args.trace != 1
    traced = args.trace != 0 and not args.calibrate
    sys.path.insert(1, str(ROOT / "src"))
    env = hygiene()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    report: dict = {"hygiene": env, "workloads": {}}
    ok = True
    # Real runs go one at a time; a smoke run only checks shapes, so its
    # untraced and traced children may share the two cores.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        for workload in metrics.WORKLOADS:
            jobs = []
            if untraced:
                jobs += [
                    (args.seed + i if args.vary_seed else args.seed, 0)
                    for i in range(runs)
                ]
            if traced:
                jobs.append((args.seed, 1))
            payloads = list(
                pool.map(lambda job: child_run(workload, *job, args), jobs)
            )
            for payload in payloads:
                if not payload["ok"]:
                    ok = False
                    print(f"# {workload} FAILED: exit {payload['exit']}, "
                          f"{payload['failed']}/{payload['attempted']} failed")
            report["workloads"][workload] = report_workload(
                workload,
                payloads[:runs] if untraced else [],
                payloads[-1] if traced else None,
            )
    if untraced and traced:
        print_facts(report)
    if args.calibrate:
        calibrate(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        record(report)
    return 0 if ok else 1


def report_workload(workload: str, untraced: list[dict], layer: dict | None) -> dict:
    """Print one workload's rows; return them for --out/--record."""
    entry: dict = {"end_to_end": {}, "per_layer": {}}
    for name in untraced[0]["rows"] if untraced else ():
        values = [p["rows"][name] for p in untraced if name in p["rows"]]
        unit = metrics.unit_of(name)
        entry["end_to_end"][name] = {"unit": unit, "values": values}
        line = f"{workload} {name} {stats.median(values):.6g} {unit}"
        if len(values) >= 4:
            line += f"  # n={len(values)} spread={stats.spread(values):.3f}"
        print(line)
    if layer is not None:
        for name, value in layer["rows"].items():
            unit = metrics.unit_of(name)
            if value is None:
                print(f"{workload} {name} n/a {unit}")
            else:
                entry["per_layer"][name] = {"unit": unit, "value": value}
                print(f"{workload} {name} {value:.6g} {unit}")
    for payload in untraced[:1] + ([layer] if layer else []):
        print("\n".join(payload["notes"]))
    return entry


def print_facts(report: dict) -> None:
    """The three facts this benchmark was built to show, as rows."""
    def e2e(workload: str, name: str) -> float:
        return stats.median(
            report["workloads"][workload]["end_to_end"][name]["values"]
        )

    def layer(workload: str, name: str) -> float:
        return report["workloads"][workload]["per_layer"].get(name, {}).get(
            "value", math.nan
        )

    w, r, s = metrics.WRITEUP, metrics.ROLLOUT, metrics.SERVICE
    cold = sum(
        row["value"]
        for name, row in report["workloads"][w]["per_layer"].items()
        if name.startswith(metrics.EXPERIMENT_PREFIX)
    )
    warm = layer(w, "experiments.runner.warm_rerun_ms") / 1e3
    baseline = layer(r, "core.routing.sweep_baseline_ms_p50")
    full = layer(r, "core.routing.full_pass_ms_p50")
    rows = [
        (w, "scenario-plane share of the experiments' time",
         f"{layer(w, 'experiments.scenario_plane_share'):.3f}"),
        (w, "all experiments, cold store -> warm store",
         f"{cold:.2f} s -> {warm:.2f} s"),
        (r, "pair_steps_per_s", f"{e2e(r, 'pair_steps_per_s'):.2f}"),
        (r, "sweep_baseline_ms_p50 / full_pass_ms_p50", f"{baseline / full:.3f}"),
        (s, "warm p50 alone -> in the mix",
         f"{layer(s, 'service.app.warm_alone_p50_ms'):.3f} ms -> "
         f"{e2e(s, 'warm_p50_ms'):.3f} ms"),
    ]
    print("# facts")
    for workload, what, value in rows:
        print(f"# | {workload} | {what} | {value} |")


# ----------------------------------------------------------------------
# Bounds: calibrate, compare; history
# ----------------------------------------------------------------------

def bounded_metrics(workload: str) -> list[str]:
    """The metrics a regression bound applies to on ``workload``."""
    names = [name for name, _, _ in metrics.END_TO_END]
    if workload == metrics.SERVICE:
        names += [name for name, _, _ in metrics.SERVICE_END_TO_END]
    return names


def manifest(bounds: dict[str, dict[str, float]]) -> dict:
    """``BENCHMARK.json``, over the gated workloads.  Its schema has
    one bound per metric, so each takes the widest workload's; the
    benchmark contract wants ``setup_s`` to carry the largest bound of
    all.  Of the per-layer metrics it names those a gated workload
    reaches."""
    widest = {
        name: min(BOUND_CAP, max(bounds[w][name] for w in metrics.GATED))
        for name, _, _ in metrics.END_TO_END
    }
    widest["setup_s"] = max(widest.values())
    return {
        "command": ["python3", "perfbench/bench.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": metrics.WORKLOADS[name]} for name in metrics.GATED
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": widest[name]}
            for name, unit, better in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, reach in per_layer_table()
            if reach & set(metrics.GATED)
        ],
    }


def calibrate(report: dict) -> None:
    """Each (workload, metric) bound is ``max(0.05, 3 x IQR/median)``
    of this report's runs, rounded up to a percent."""
    bounds: dict[str, dict[str, float]] = {}
    for workload, entry in report["workloads"].items():
        bounds[workload] = {}
        for name in bounded_metrics(workload):
            spread = stats.spread(entry["end_to_end"][name]["values"])
            bound = math.ceil(max(BOUND_FLOOR, 3 * spread) * 100) / 100
            bounds[workload][name] = bound
            verdict = "steady" if bound <= BOUND_CAP else (
                f"UNSTEADY: needs more than the {BOUND_CAP} a manifest may "
                "carry, so a change inside the manifest's bound is unresolved"
            )
            print(f"# calibrate {workload} {name}: spread {spread:.4f} -> "
                  f"bound {bound:.2f} {verdict}")
    BOUNDS.write_text(json.dumps(bounds, indent=2) + "\n")
    MANIFEST.write_text(json.dumps(manifest(bounds), indent=2) + "\n")
    print(f"# wrote {BOUNDS} and {MANIFEST}")


def compare(path_a: str, path_b: str) -> int:
    """One row per (workload, end-to-end metric): B against A."""
    bounds = json.loads(BOUNDS.read_text())
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    worse = 0
    print("workload metric median_a median_b change bound verdict")
    for workload in a:
        for name, bound in bounds[workload].items():
            values_a = a[workload]["end_to_end"][name]["values"]
            values_b = b[workload]["end_to_end"][name]["values"]
            med_a, med_b = stats.median(values_a), stats.median(values_b)
            change = (med_b - med_a) / med_a  # every bounded metric: lower is better
            spreads = [
                stats.spread(v) for v in (values_a, values_b) if len(v) >= 2
            ]
            if spreads and max(spreads) > bound:
                verdict = "unresolved (spread wider than bound)"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "within bound"
            print(f"{workload} {name} {med_a:.6g} {med_b:.6g} "
                  f"{change:+.3f} {bound:.2f} {verdict}")
    return 1 if worse else 0


def record(report: dict) -> None:
    """Append-only: one row per (commit, workload)."""
    with open(HISTORY, "a", encoding="utf-8") as handle:
        for workload, entry in report["workloads"].items():
            row = dict(report["hygiene"], workload=workload)
            row["end_to_end"] = {
                name: stats.median(data["values"])
                for name, data in entry["end_to_end"].items()
            }
            row["runs"] = max(
                (len(d["values"]) for d in entry["end_to_end"].values()), default=0
            )
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"# appended {len(report['workloads'])} rows to {HISTORY}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
