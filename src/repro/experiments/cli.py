"""Command-line entry point: ``python -m repro.experiments``.

Commands:

* ``list`` — show every registered experiment (and IXP-rerun support);
* ``run <id> [<id> ...]`` — run experiments through the scenario
  scheduler and print their reports;
* ``write-md`` — regenerate EXPERIMENTS.md (all experiments + the
  Appendix J IXP reruns);
* ``serve`` — run the always-on evaluation service
  (:mod:`repro.service`): warm resident contexts, read-through result
  cache (sqlite by default — safe under concurrent writers), chunked
  streaming of rollout progress;
* ``store export`` / ``store import`` — round-trip any store backend
  through the JSONL interchange format (records are byte-identical, so
  an exported sqlite cache replays into a JSONL store with the same
  scenario hashes and payloads).

Shared flags: ``--trials K`` evaluates every sweep over K consecutive
topology seeds and reports mean ± stderr rows; ``--cache-dir`` points
the persistent scenario store (``.repro-cache/`` by default) so
repeated runs only evaluate scenarios they have not seen before, and
``--no-cache`` disables the store entirely; ``--attack`` sets the
run-wide attacker strategy (threat model) — ``hijack`` (the paper's
Section 3.1 default), ``honest``, ``forged_origin``, or ``khop<k>``.
Results are stored under strategy-aware scenario hashes, so different
threat models never collide in the cache.

Failure contract: worker crashes, hangs and store corruption are
recovered by the supervision layer and reported as an incident summary;
a scenario that cannot be evaluated even by the serial fallback makes
``run``/``write-md`` exit with status :data:`EXIT_SCENARIO_FAILURES`
(3) and a per-scenario failure summary instead of a bare traceback.
``--fsync`` picks the store durability policy; ``--fault-plan`` arms
the deterministic fault-injection harness (testing only; see
:mod:`repro.experiments.faults`).
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from contextlib import ExitStack

from ..core.attacks import DEFAULT_ATTACK_TOKEN, strategy_from_token
from .config import DEFAULT_SEED, SCALES
from .failures import FailureLog
from .faults import FaultPlan
from .registry import all_experiments
from .store import (
    DEFAULT_CACHE_DIR,
    FSYNC_POLICIES,
    STORE_BACKENDS,
    ResultStoreBase,
    export_jsonl,
    import_jsonl,
    open_store,
)
from .writeup import run_trials, write_markdown

#: Exit status when one or more scenarios exhausted retries *and* the
#: serial fallback (1 is an uncaught error, 2 is argparse misuse).
EXIT_SCENARIO_FAILURES = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.add_argument("ids", nargs="+", help="experiment ids (see `list`)")
    _common(run_p)
    run_p.add_argument(
        "--ixp", action="store_true", help="use the IXP-augmented graph (App. J)"
    )

    md_p = sub.add_parser("write-md", help="regenerate EXPERIMENTS.md")
    _common(md_p)
    md_p.add_argument("--out", default="EXPERIMENTS.md", help="output path")
    md_p.add_argument(
        "--no-ixp", action="store_true", help="skip the Appendix J reruns"
    )

    serve_p = sub.add_parser(
        "serve", help="run the always-on evaluation service (HTTP API)"
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642)
    serve_p.add_argument(
        "--scale",
        default="small",
        choices=sorted(SCALES),
        help="default scale for experiment jobs",
    )
    serve_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    serve_p.add_argument(
        "--processes", type=int, default=1, help="worker processes per context"
    )
    serve_p.add_argument(
        "--attack", default=DEFAULT_ATTACK_TOKEN, type=_attack_token
    )
    serve_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    serve_p.add_argument(
        "--store-backend",
        default="sqlite",
        choices=STORE_BACKENDS,
        help="result-store backend (sqlite default: it tolerates the "
        "service and a concurrent batch CLI writing the same cache)",
    )
    serve_p.add_argument("--fsync", default="never", choices=FSYNC_POLICIES)
    serve_p.add_argument(
        "--max-contexts",
        type=int,
        default=4,
        help="resident (scale, seed, ixp) contexts kept hot (LRU beyond)",
    )
    serve_p.add_argument(
        "--preload",
        action="store_true",
        help="build the default (scale, seed) context before accepting "
        "traffic, so the first metric request is already warm",
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="evaluation budget: unique cold scenarios in flight before "
        "new ones are shed with 429 + Retry-After (cached hashes always "
        "serve)",
    )
    serve_p.add_argument(
        "--deadline-ms",
        type=int,
        default=60_000,
        help="server default deadline for a metrics request; clients "
        "override per request with 'deadline_ms' (0 disables)",
    )
    serve_p.add_argument(
        "--keep-alive-timeout",
        type=float,
        default=75.0,
        help="seconds an idle keep-alive connection may sit before the "
        "server closes it (0 disables)",
    )

    store_p = sub.add_parser(
        "store", help="export/import the scenario store (JSONL interchange)"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    exp_p = store_sub.add_parser(
        "export", help="write every store record as canonical JSONL"
    )
    exp_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    exp_p.add_argument(
        "--store-backend", default="auto", choices=STORE_BACKENDS
    )
    exp_p.add_argument("--out", required=True, help="JSONL output path")
    imp_p = store_sub.add_parser(
        "import", help="replay JSONL records into the store (new hashes only)"
    )
    imp_p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    imp_p.add_argument(
        "--store-backend", default="auto", choices=STORE_BACKENDS
    )
    imp_p.add_argument("--input", required=True, help="JSONL input path")
    return parser


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", default="small", choices=sorted(SCALES), help="sample budgets"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--processes", type=int, default=1, help="worker processes (1 = serial)"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="topology seeds per sweep; >1 reports rows as mean ± stderr",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="persistent scenario store directory",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="evaluate everything fresh; do not read or write the store",
    )
    parser.add_argument(
        "--attack",
        default=DEFAULT_ATTACK_TOKEN,
        type=_attack_token,
        help="attacker strategy: hijack (default), honest, forged_origin, "
        "or khop<k> (see repro.core.attacks)",
    )
    parser.add_argument(
        "--fsync",
        default="never",
        choices=FSYNC_POLICIES,
        help="store durability: fsync after every record, only on "
        "close, or never (default; crash recovery still truncates any "
        "torn tail on the next open)",
    )
    parser.add_argument(
        "--store-backend",
        default="auto",
        choices=STORE_BACKENDS,
        help="result-store backend; auto (default) reuses whatever the "
        "cache directory already holds, JSONL for fresh directories",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON|@PATH",
        help="arm the deterministic fault-injection harness with a "
        "JSON fault plan (inline, or @file); testing only — see "
        "repro.experiments.faults",
    )


def _attack_token(raw: str) -> str:
    """argparse type: validate an attack token, keep it as a string."""
    try:
        return strategy_from_token(raw).token
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _make_store(
    args: argparse.Namespace, failure_log: FailureLog
) -> ResultStoreBase | None:
    if args.no_cache:
        return None
    return open_store(
        args.cache_dir,
        backend=args.store_backend,
        fsync=args.fsync,
        failure_log=failure_log,
    )


def _arm_faults(args: argparse.Namespace) -> None:
    if not args.fault_plan:
        return
    blob = args.fault_plan
    if blob.startswith("@"):
        with open(blob[1:], encoding="utf-8") as handle:
            blob = handle.read()
    FaultPlan.from_json(blob).arm()


def _report_failures(failure_log: FailureLog) -> int:
    """Print the incident summary; nonzero iff scenarios were lost.

    Recovered incidents (dead/hung workers, degraded shards, store
    repairs) are informational — the run still produced every result.
    Scenarios that failed even the serial fallback make the run exit
    with :data:`EXIT_SCENARIO_FAILURES` so calling scripts and CI can
    tell a complete report from a partial one.
    """
    if len(failure_log):
        print(f"   {failure_log.summary()}", file=sys.stderr)
    failed = failure_log.scenario_failures()
    if not failed:
        return 0
    print(
        f"FAILED: {len(failed)} scenario(s) exhausted retries and the "
        "serial fallback:",
        file=sys.stderr,
    )
    for incident in failed:
        print(f"  - {incident.render()}", file=sys.stderr)
    return EXIT_SCENARIO_FAILURES


def _store_summary(store: ResultStoreBase | None) -> str:
    if store is None:
        return "scenario store disabled (--no-cache)"
    return (
        f"scenario store {store.path}: {store.misses} evaluated, "
        f"{store.hits} cache hits, {len(store)} total"
    )


def _install_sigterm_handler() -> None:
    """Turn SIGTERM into ``SystemExit`` so teardown hooks run.

    The default SIGTERM disposition kills the process without
    unwinding, leaving the fork pool's workers to be reaped by init.
    Raising ``SystemExit(128 + signum)`` instead unwinds through the
    ``finally`` blocks below and the atexit hook
    (:func:`repro.experiments.runner._close_live_contexts`), which
    terminates the pool.
    """

    def _raise(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - not the main thread
        pass


def _serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: run the HTTP service until signalled.

    SIGTERM/SIGINT trigger a *graceful* stop — stop accepting, drain
    jobs, close resident contexts (terminating their pools), close the
    store — and the exit status is the conventional ``128 + signum`` so
    supervisors see the same contract as the batch commands.
    """
    import asyncio

    from ..service import Service, serve as _serve_app

    failure_log = FailureLog()
    store = open_store(
        args.cache_dir,
        backend=args.store_backend,
        fsync=args.fsync,
        failure_log=failure_log,
    )
    exit_code = 0

    async def _run() -> None:
        nonlocal exit_code
        service = Service(
            store,
            processes=args.processes,
            attack=args.attack,
            max_contexts=args.max_contexts,
            default_scale=args.scale,
            default_seed=args.seed,
            failure_log=failure_log,
            max_inflight=args.max_inflight,
            default_deadline_ms=args.deadline_ms or None,
        )
        if args.preload:
            await service.context_for(args.scale, args.seed, False)
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()

        def _stop(signum: int) -> None:
            nonlocal exit_code
            exit_code = 128 + signum
            shutdown.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, _stop, sig)

        def _ready(server) -> None:
            print(
                f"repro service listening on "
                f"http://{args.host}:{server.port} "
                f"(store: {store.path})",
                flush=True,
            )

        await _serve_app(
            service,
            host=args.host,
            port=args.port,
            shutdown=shutdown,
            on_ready=_ready,
            keep_alive_timeout=args.keep_alive_timeout or None,
        )

    try:
        asyncio.run(_run())
    finally:
        store.close()
    if exit_code:
        print(f"repro service stopped (signal {exit_code - 128})", flush=True)
    return exit_code


def _store_command(args: argparse.Namespace) -> int:
    """``store export`` / ``store import``: the JSONL interchange."""
    failure_log = FailureLog()
    with open_store(
        args.cache_dir, backend=args.store_backend, failure_log=failure_log
    ) as store:
        if args.store_command == "export":
            count = export_jsonl(store, args.out)
            print(f"exported {count} record(s) from {store.path} to {args.out}")
        else:
            count = import_jsonl(store, args.input)
            print(
                f"imported {count} new record(s) from {args.input} "
                f"into {store.path}"
            )
    return _report_failures(failure_log)


def main(argv: list[str] | None = None) -> int:
    _install_sigterm_handler()
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _serve(args)
    if args.command == "store":
        return _store_command(args)
    if args.command == "list":
        print(f"{'id':14s} {'paper ref':28s} {'ixp rerun':9s} title")
        for eid, spec in all_experiments().items():
            ixp = "yes" if spec.supports_ixp else "no"
            print(f"{eid:14s} {spec.paper_reference:28s} {ixp:9s} {spec.title}")
        return 0
    _arm_faults(args)
    failure_log = FailureLog()
    if args.command == "run":
        started = time.time()
        with ExitStack() as stack:
            store = _make_store(args, failure_log)
            if store is not None:
                stack.enter_context(store)
            results = run_trials(
                args.ids,
                scale=args.scale,
                seed=args.seed,
                processes=args.processes,
                trials=args.trials,
                store=store,
                ixp=args.ixp,
                attack=args.attack,
                failure_log=failure_log,
            )
        for result in results:
            print(result.render())
        print(f"   [{time.time() - started:.1f}s] {_store_summary(store)}\n")
        return _report_failures(failure_log)
    if args.command == "write-md":
        with ExitStack() as stack:
            store = _make_store(args, failure_log)
            if store is not None:
                stack.enter_context(store)
            results = write_markdown(
                args.out,
                scale=args.scale,
                seed=args.seed,
                processes=args.processes,
                include_ixp=not args.no_ixp,
                trials=args.trials,
                store=store,
                attack=args.attack,
                failure_log=failure_log,
            )
        print(f"wrote {args.out} ({len(results)} experiment blocks)")
        print(f"   {_store_summary(store)}")
        return _report_failures(failure_log)
    return 1  # pragma: no cover - argparse enforces commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
