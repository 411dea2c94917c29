"""Experiment execution context, the persistent worker pool, and the
scenario scheduler.

The paper parallelized its metric computations with MPI across
supercomputer nodes (Appendix H); here the unit of *parallelism* is a
bin of whole **destination groups** — (m, d) pairs grouped by ``d``,
bin-packed largest-first over the worker slots (:func:`_pack_groups`)
so skewed group sizes cannot starve the pool — fanned out over local
processes with ``fork`` so the topology is shared with the workers for
free (no per-task pickling of the graph).  Each worker evaluates its
bin with the destination-major routing fast path
(:func:`repro.core.metrics.batch_happiness` →
:class:`repro.core.routing.DestinationSweep`): every destination's
attacker-free baseline is fixed exactly once per worker and each
attacker costs only its dirty region.  Forked workers each own a
copy-on-write clone of the context, so scratch-buffer reuse is
race-free, and results are scattered back into request pair order so
parallel runs reproduce serial runs bit-for-bit.

Two layers live here:

* :class:`ExperimentContext` — topology + tiers + budgets + a
  **persistent fork pool**: created lazily on the first parallel call
  and reused for every subsequent one (the pool's workers inherit the
  routing context at fork time — on a numpy context including the
  int64 CSR views its kernels read, built just before the fork;
  per-call small state — deployment, model — rides along with each
  task).
* the **scenario scheduler** (:func:`run_experiments`) — collects the
  :class:`~repro.experiments.scenarios.EvalRequest` declarations of all
  experiments in a run, dedupes identical scenarios globally (baselines
  shared by several figures are computed once), consults the persistent
  :class:`~repro.experiments.store.ResultStore`, evaluates only the
  missing scenarios, and hands every experiment an
  :class:`~repro.experiments.scenarios.EvalResults` mapping to consume.
"""

from __future__ import annotations

import atexit
import multiprocessing
import random
import signal
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Sized, TypeVar

from ..core.attacks import DEFAULT_ATTACK, AttackStrategy, strategy_from_token
from ..core.deployment import Deployment, ScenarioCatalog
from ..core.metrics import (
    MetricResult,
    _mean_interval,
    batch_happiness,
    rollout_happiness,
)
from ..core.rank import RankModel
from ..core.routing import RoutingContext
from ..topology.generate import SyntheticTopology, TopologyParams, generate_topology
from ..topology.ixp import augment_with_ixp_peering
from ..topology.tiers import TierTable, classify_tiers
from .config import DEFAULT_SEED, Scale, get_scale
from .failures import EvaluationCancelled, EvaluationFailure, FailureLog
from .faults import active_plan
from .scenarios import EvalRequest, EvalResults, detect_chains

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import ExperimentResult, ExperimentSpec
    from .store import ResultStore

T = TypeVar("T")

#: The :class:`ExperimentContext` inherited by pool workers.  Set in the
#: parent just before the pool forks (so children snapshot it for free
#: via copy-on-write) and cleared immediately after; workers read their
#: inherited copy inside :func:`_supervised_worker_main`.
_WORKER_CTX: "ExperimentContext | None" = None

#: Every context built by :func:`make_context`, weakly held, so an
#: interpreter exit — including the ``SystemExit`` raised by the CLI's
#: SIGTERM handler — tears down the pools even of contexts nobody
#: closed (see :func:`_close_live_contexts`).
_LIVE_CONTEXTS: "weakref.WeakValueDictionary[int, ExperimentContext]" = (
    weakref.WeakValueDictionary()
)


def _close_live_contexts() -> None:  # pragma: no cover - atexit path
    """atexit hook: close every still-open experiment context."""
    for ectx in list(_LIVE_CONTEXTS.values()):
        ectx.close()


atexit.register(_close_live_contexts)


# ----------------------------------------------------------------------
# The supervised fork pool
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SupervisionPolicy:
    """Deadlines, retries and backoff of the :class:`SupervisedPool`.

    Deadlines scale with shard size: a shard of ``k`` size units (pairs,
    destinations) gets ``base_deadline + per_item_deadline * k`` seconds
    before its worker is declared hung.  The defaults are deliberately
    generous — tripping a deadline on a healthy run would *cause* work,
    not save it; supervision is for workers that are actually gone.
    """

    #: seconds every shard gets regardless of size.
    base_deadline: float = 300.0
    #: additional seconds per size unit in the shard.
    per_item_deadline: float = 2.0
    #: retries before a shard degrades to in-process serial evaluation.
    max_retries: int = 3
    #: base of the exponential retry backoff (``backoff * 2**attempt``).
    backoff: float = 0.5

    def deadline_for(self, size: int) -> float:
        return self.base_deadline + self.per_item_deadline * max(1, size)


def _supervised_worker_main(conn, slot: int) -> None:
    """Supervised-pool worker loop: recv shard, evaluate, send result.

    Runs in a fork child that inherited the parent's
    :class:`ExperimentContext` (via ``_WORKER_CTX``) at fork time.
    Exceptions are reported back as structured error replies so the
    supervisor can retry the shard; a crash (SIGKILL, segfault) simply
    drops the pipe, which the supervisor observes as EOF — and so does
    a ``KeyboardInterrupt`` (a terminal's Ctrl-C reaches the whole
    foreground process group) or ``SystemExit`` inside a task: it ends
    the worker instead of booking a failed attempt on a shard nobody
    wants any more.
    """
    # The parent may have turned SIGTERM into SystemExit (the CLI does,
    # so its own teardown unwinds); inherited here, that would turn
    # :meth:`SupervisedPool.terminate`'s signal into one more error
    # reply and leave the worker waiting on its pipe for the kill
    # fallback.  A worker owns nothing to unwind: die on SIGTERM.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    plan = active_plan()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - parent went away
            return
        if msg is None:
            conn.close()
            return
        seq, attempt, tasks = msg
        try:
            if plan is not None:
                plan.fire_worker(shard=seq, attempt=attempt, slot=slot)
            out = [worker(_WORKER_CTX, item, state)
                   for worker, item, state in tasks]
        except Exception as exc:
            reply = (
                "err",
                seq,
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            )
        else:
            reply = ("ok", seq, out)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            return


class _Shard:
    """One retryable unit of work: a chunk of tasks plus its deadline."""

    __slots__ = ("seq", "tasks", "indices", "attempt", "size", "deadline",
                 "not_before", "started")

    def __init__(self, seq, tasks, indices, size, deadline):
        self.seq = seq
        self.tasks = tasks          # [(worker, item, state), ...]
        self.indices = indices      # result positions, parallel to tasks
        self.attempt = 0
        self.size = size
        self.deadline = deadline
        self.not_before = 0.0       # monotonic time gating retry dispatch
        self.started = 0.0          # monotonic dispatch time


class _Worker:
    """Parent-side handle of one supervised fork worker."""

    __slots__ = ("proc", "conn", "slot", "shard")

    def __init__(self, proc, conn, slot):
        self.proc = proc
        self.conn = conn
        self.slot = slot
        self.shard: _Shard | None = None


class SupervisedPool:
    """A fork pool that survives its workers.

    The plain ``multiprocessing.Pool`` dies wholesale — or worse, hangs
    forever — when one worker segfaults, is OOM-killed, or wedges; fine
    for a batch CLI, fatal for a long-lived evaluation service.  This
    pool supervises every dispatched shard:

    * a **dead** worker (EOF on its result pipe, SIGKILL, segfault) is
      detected immediately, its shard re-enqueued, and a replacement
      forked from the parent — which still holds the warm
      :class:`~repro.core.routing.RoutingContext`, so the respawn
      re-inherits everything for free;
    * a **hung** worker is declared dead when its shard's size-scaled
      deadline (:meth:`SupervisionPolicy.deadline_for`) expires, then
      killed and replaced the same way;
    * a worker that *reports* an exception (e.g. ``MemoryError``) keeps
      running; only its shard is retried;
    * retries are bounded (:attr:`SupervisionPolicy.max_retries`) with
      exponential backoff; a shard that exhausts them **degrades to
      in-process serial evaluation** in the supervisor — a scenario is
      never simply lost.  Only if that last resort also raises does the
      pool raise :class:`~repro.experiments.failures.EvaluationFailure`,
      which the scheduler catches *per scenario*.

    Every incident lands in the run's :class:`~repro.experiments.
    failures.FailureLog`.  Results are scattered back into submission
    order, and evaluation is deterministic, so a run with any number of
    recovered failures is bit-identical to a clean one (chaos-tested in
    ``tests/test_faults.py``).

    In the fault-free steady state the supervisor adds no polling: it
    sleeps in ``multiprocessing.connection.wait`` until a result
    arrives, exactly like ``Pool.map`` — the deadline only bounds the
    sleep.  ``perfbench`` reports what dispatch costs end to end
    (``sweep_pool_medium``: ``experiments.runner.dispatch_overhead_s``,
    ``parallel_efficiency``).
    """

    def __init__(
        self,
        ectx: "ExperimentContext",
        policy: SupervisionPolicy | None = None,
        failure_log: FailureLog | None = None,
    ):
        self._ctx_ref = weakref.ref(ectx)
        self._policy = policy or SupervisionPolicy()
        self._log = failure_log if failure_log is not None else FailureLog()
        self._mp = multiprocessing.get_context("fork")
        self._seq = 0
        self._closed = False
        self._workers = [self._spawn(slot) for slot in range(ectx.processes)]

    # -- worker lifecycle ----------------------------------------------
    def _spawn(self, slot: int) -> _Worker:
        """Fork one worker (it snapshots the warm context copy-on-write)."""
        ectx = self._ctx_ref()
        global _WORKER_CTX
        _WORKER_CTX = ectx
        try:
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_supervised_worker_main,
                args=(child_conn, slot),
                daemon=True,
            )
            proc.start()
        finally:
            _WORKER_CTX = None
        child_conn.close()
        return _Worker(proc, parent_conn, slot)

    def _replace(self, worker: _Worker) -> None:
        """Kill a dead/hung worker and fork a fresh one in its slot."""
        try:
            worker.proc.kill()
        except (ProcessLookupError, ValueError):  # pragma: no cover
            pass
        worker.proc.join(timeout=10)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        fresh = self._spawn(worker.slot)
        worker.proc, worker.conn = fresh.proc, fresh.conn
        worker.shard = None

    @property
    def worker_pids(self) -> tuple[int, ...]:
        return tuple(w.proc.pid for w in self._workers)

    # -- the supervision loop ------------------------------------------
    def run(
        self,
        tasks: "list[tuple]",
        chunksize: int,
        sizes: "Sequence[int] | None" = None,
    ) -> list:
        """Evaluate ``tasks`` (``(worker, item, state)`` tuples), fanned
        out as shards of ``chunksize`` consecutive tasks; returns
        results in submission order."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if sizes is None:
            sizes = [1] * len(tasks)
        results: list = [None] * len(tasks)
        pending: deque[_Shard] = deque()
        for start in range(0, len(tasks), chunksize):
            indices = list(range(start, min(start + chunksize, len(tasks))))
            size = sum(sizes[i] for i in indices)
            pending.append(
                _Shard(
                    seq=self._seq,
                    tasks=[tasks[i] for i in indices],
                    indices=indices,
                    size=size,
                    deadline=self._policy.deadline_for(size),
                )
            )
            self._seq += 1
        remaining = len(pending)
        while remaining:
            now = time.monotonic()
            self._dispatch_ready(pending, now)
            busy = [w for w in self._workers if w.shard is not None]
            if not busy:
                # Every outstanding shard is backing off; sleep to the
                # earliest retry time.
                wake = min(s.not_before for s in pending)
                time.sleep(min(max(wake - now, 0.0) + 0.001, 1.0))
                continue
            timeout = self._wait_timeout(busy, pending, now)
            ready = mp_connection.wait([w.conn for w in busy], timeout)
            by_conn = {w.conn: w for w in busy}
            for conn in ready:
                remaining -= self._on_message(
                    by_conn[conn], results, pending
                )
            now = time.monotonic()
            for worker in self._workers:
                shard = worker.shard
                if shard is not None and now - shard.started > shard.deadline:
                    remaining -= self._on_failure(
                        worker,
                        "worker_hung",
                        f"no result after {now - shard.started:.1f}s "
                        f"(deadline {shard.deadline:.1f}s); worker killed",
                        results,
                        pending,
                    )
        return results

    def _dispatch_ready(self, pending: deque, now: float) -> None:
        for worker in self._workers:
            if worker.shard is not None or not pending:
                continue
            shard = self._next_ready(pending, now)
            if shard is None:
                return
            shard.started = now
            try:
                worker.conn.send((shard.seq, shard.attempt, shard.tasks))
            except (BrokenPipeError, OSError):
                # The idle worker died between shards; replace it and
                # put the shard back (no attempt consumed — it never
                # started).
                self._log.record(
                    "worker_dead",
                    detail="worker died while idle (dispatch failed)",
                    shard=shard.seq,
                    attempt=shard.attempt,
                    worker_pid=worker.proc.pid,
                )
                self._replace(worker)
                pending.appendleft(shard)
                continue
            worker.shard = shard

    @staticmethod
    def _next_ready(pending: deque, now: float) -> _Shard | None:
        """Pop the first shard whose backoff window has passed."""
        for _ in range(len(pending)):
            shard = pending.popleft()
            if shard.not_before <= now:
                return shard
            pending.append(shard)
        return None

    @staticmethod
    def _wait_timeout(busy, pending, now: float) -> float:
        """Sleep until the earliest deadline or retry time (a result
        arriving wakes the wait immediately)."""
        timeout = min(
            shard.started + shard.deadline - now
            for shard in (w.shard for w in busy)
        )
        for shard in pending:
            if shard.not_before > now:
                timeout = min(timeout, shard.not_before - now)
        return max(timeout, 0.01)

    def _on_message(self, worker: _Worker, results, pending) -> int:
        """Handle one readable worker pipe; returns shards completed."""
        shard = worker.shard
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            if shard is None:  # pragma: no cover - stray EOF while idle
                self._replace(worker)
                return 0
            return self._on_failure(
                worker,
                "worker_dead",
                "worker crashed (EOF on result pipe — killed or segfaulted)",
                results,
                pending,
            )
        kind, seq, payload = msg
        if shard is None or seq != shard.seq:  # pragma: no cover - stale
            return 0
        if kind == "ok":
            for index, value in zip(shard.indices, payload):
                results[index] = value
            worker.shard = None
            return 1
        # The worker survived and reported an exception: retry the
        # shard without respawning.
        self._log.record(
            "worker_error",
            detail=payload.splitlines()[0] if payload else "",
            shard=shard.seq,
            attempt=shard.attempt,
            worker_pid=worker.proc.pid,
            elapsed=time.monotonic() - shard.started,
        )
        worker.shard = None
        return self._retry_or_degrade(shard, results, pending)

    def _on_failure(
        self, worker: _Worker, kind: str, detail: str, results, pending
    ) -> int:
        """A worker died or hung: record, respawn, retry its shard."""
        shard = worker.shard
        self._log.record(
            kind,
            detail=detail,
            shard=shard.seq,
            attempt=shard.attempt,
            worker_pid=worker.proc.pid,
            elapsed=time.monotonic() - shard.started,
        )
        self._replace(worker)
        return self._retry_or_degrade(shard, results, pending)

    def _retry_or_degrade(self, shard: _Shard, results, pending) -> int:
        """Re-enqueue with backoff, or run serially after max retries.

        Returns the number of shards thereby *completed* (0 for a
        retry, 1 for a successful degradation).
        """
        shard.attempt += 1
        if shard.attempt <= self._policy.max_retries:
            shard.not_before = time.monotonic() + self._policy.backoff * (
                2 ** (shard.attempt - 1)
            )
            pending.append(shard)
            return 0
        # Graceful degradation: the shard failed every pooled attempt;
        # evaluate it in-process so the scenario is not lost.  Workers
        # for *other* shards keep running meanwhile.
        self._log.record(
            "shard_degraded",
            detail=(
                f"exhausted {self._policy.max_retries} retries; "
                "evaluating in-process serially"
            ),
            shard=shard.seq,
            attempt=shard.attempt,
        )
        ectx = self._ctx_ref()
        plan = active_plan()
        try:
            if plan is not None:
                plan.fire_worker(
                    shard=shard.seq, attempt=shard.attempt, in_worker=False
                )
            for index, (worker_fn, item, state) in zip(
                shard.indices, shard.tasks
            ):
                results[index] = worker_fn(ectx, item, state)
        except Exception as exc:
            raise EvaluationFailure(
                f"shard {shard.seq} failed {self._policy.max_retries} "
                f"pooled retries and the in-process serial fallback: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return 1

    # -- teardown (mirrors multiprocessing.Pool's API) ------------------
    def terminate(self) -> None:
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
            try:
                worker.proc.terminate()
            except (ProcessLookupError, ValueError):  # pragma: no cover
                pass

    def join(self) -> None:
        """Reap every worker; one shared deadline, then the kill."""
        deadline = time.monotonic() + 10
        for worker in self._workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.kill()
                worker.proc.join()


def _metric_chunk_worker(
    ectx: "ExperimentContext", chunk: Sequence[tuple[int, int]], state: dict
):
    """Evaluate one task of (m, d) pairs with the destination-major
    batched fast path (pairs arrive destination-contiguous, so each
    worker runs every destination's attacker-free baseline exactly
    once)."""
    return batch_happiness(
        ectx.graph_ctx, chunk, state["deployment"], state["model"],
        attack=state["attack"],
    )


def _metric_chain_worker(
    ectx: "ExperimentContext", chunk: Sequence[tuple[int, int]], state: dict
):
    """Evaluate one task of (m, d) pairs across a whole nested-deployment
    chain, rollout-major: each destination in the chunk walks every
    chain step on warm engine state (one converged baseline advanced per
    step instead of re-fixed from scratch).  Returns per-step lists in
    chunk pair order."""
    return rollout_happiness(
        ectx.graph_ctx, chunk, state["deployments"], state["model"],
        attack=state["attack"],
    )


def _destination_groups(
    pairs: Sequence[tuple[int | None, int]],
) -> list[list[int]]:
    """Group pair *indices* by destination (first-appearance order;
    input order is preserved within each group)."""
    groups: dict[int, list[int]] = {}
    for i, (_m, d) in enumerate(pairs):
        existing = groups.get(d)
        if existing is None:
            groups[d] = [i]
        else:
            existing.append(i)
    return list(groups.values())


def _gather_bins(
    pairs: Sequence[tuple[int, int]],
    bins: Sequence[Sequence[int]],
    parts: Sequence[Sequence],
) -> MetricResult:
    """Scatter per-bin worker results back into input pair order and
    average them — the single reassembly behind :meth:`ExperimentContext.metric`
    and each step of :meth:`ExperimentContext.metric_chain` (parallel
    must equal serial bit-for-bit)."""
    flat: list = [None] * len(pairs)
    for bin_, part in zip(bins, parts):
        for i, r in zip(bin_, part):
            flat[i] = r
    results = tuple(flat)
    return MetricResult(value=_mean_interval(results), per_pair=results)


def _pack_groups(
    groups: Sequence[Sequence[T]], slots: int, max_unit: int | None = None
) -> list[list[T]]:
    """Greedy largest-first bin-pack of destination groups over ``slots``.

    The contiguous pair chunking this replaces starved the pool whenever
    destination groups had skewed sizes (one giant group serialized a
    worker while the rest idled).  Here every group larger than ``max_unit`` is first
    split (the only case where a destination's baseline is recomputed —
    once per shard), then shards are placed largest-first onto the
    currently lightest bin, the classic LPT heuristic whose makespan is
    within 4/3 of optimal.  Returns the non-empty bins, heaviest first.
    """
    slots = max(1, slots)
    shards: list[Sequence[T]] = []
    for group in groups:
        if max_unit is not None and len(group) > max_unit:
            for start in range(0, len(group), max_unit):
                shards.append(group[start : start + max_unit])
        else:
            shards.append(group)
    # Deterministic largest-first order (ties broken by first element).
    shards.sort(key=lambda s: (-len(s), s[0] if len(s) else 0))
    bins: list[list[T]] = [[] for _ in range(min(slots, len(shards)) or 1)]
    loads = [0] * len(bins)
    for shard in shards:
        i = loads.index(min(loads))
        bins[i].extend(shard)
        loads[i] += len(shard)
    packed = [b for b in bins if b]
    packed.sort(key=len, reverse=True)
    return packed


@dataclass
class ExperimentContext:
    """Everything an experiment needs: topology, tiers, budgets, caching.

    Build one with :func:`make_context`.  The ``cache`` dict lets related
    figures share intermediate computations (e.g. the partition figures
    share per-pair sweeps); keys are scoped by (seed, graph variant,
    scale) via :func:`cached` so intermediates can never collide across
    contexts even if a cache dict is ever shared.

    Contexts own OS resources once a parallel call has run (the
    persistent fork pool): call :meth:`close` when done, or use the
    context as a ``with`` block.
    """

    scale: Scale
    seed: int
    ixp: bool
    topo: SyntheticTopology
    graph_ctx: RoutingContext
    tiers: TierTable
    catalog: ScenarioCatalog
    processes: int = 1
    #: run-wide attacker strategy: the default threat model for every
    #: request declared without an explicit ``attack`` (CLI ``--attack``).
    attack: AttackStrategy = DEFAULT_ATTACK
    #: deadlines/retry/backoff policy of the supervised pool.
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    #: structured audit trail of every recovered (and fatal) incident.
    failure_log: FailureLog = field(default_factory=FailureLog)
    cache: dict = field(default_factory=dict)
    #: scenarios evaluated through :meth:`metric` /
    #: :meth:`metric_chain` (the acceptance counter: a warm-store rerun
    #: must leave this at zero).
    metric_evaluations: int = 0
    _pool: SupervisedPool | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def graph(self):
        return self.graph_ctx.graph

    def rng(self, salt: str) -> random.Random:
        """A fresh deterministic RNG for one sampling purpose."""
        return random.Random(f"{self.seed}/{self.scale.name}/{salt}")

    # ------------------------------------------------------------------
    # The persistent worker pool
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> SupervisedPool:
        """Fork the worker pool once; reuse it for every parallel call.

        A numpy context builds its int64 CSR views first, so workers
        and respawns inherit them copy-on-write instead of each
        rebuilding them on its first pass (the per-pass scratch stays
        lazy: every worker writes its own).
        """
        if self._pool is None:
            if self.graph_ctx.vectorized:
                self.graph_ctx._np_adjacency()
            self._pool = SupervisedPool(
                self, policy=self.supervision, failure_log=self.failure_log
            )
        return self._pool

    def map_tasks(
        self,
        worker: Callable[["ExperimentContext", T, dict], object],
        items: Iterable[T],
        state: dict | None = None,
        chunksize: int | None = None,
        min_parallel: int = 8,
    ) -> list:
        """Map ``worker(ectx, item, state)`` over ``items``.

        Serial below ``min_parallel`` items or with ``processes <= 1``;
        otherwise fanned out over the persistent fork pool.  ``state``
        must be small and picklable (it travels with every task); large
        shared inputs — the topology, tiers — are read from the context,
        which workers inherited at fork time.
        """
        items = list(items)
        state = state or {}
        if self.processes <= 1 or len(items) < min_parallel:
            return [worker(self, item, state) for item in items]
        pool = self._ensure_pool()
        tasks = [(worker, item, state) for item in items]
        if chunksize is None:
            chunksize = max(1, len(tasks) // (self.processes * 4))
        # Shard deadlines scale with how much work each item holds
        # (a bin of pairs is len(bin) units, an opaque item one).
        sizes = [len(item) if isinstance(item, Sized) else 1 for item in items]
        return pool.run(tasks, chunksize=chunksize, sizes=sizes)

    def close(self) -> None:
        """Release owned OS resources (idempotent).

        Shuts down the persistent fork pool (no-op if never forked).
        Runs on every exit path: ``with`` blocks and explicit calls on
        the happy path, the module atexit hook (which the CLI's SIGTERM
        handler reaches via ``SystemExit``) on interrupted ones.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Metric evaluation (serial or fork-parallel)
    # ------------------------------------------------------------------
    def metric(
        self,
        pairs: Sequence[tuple[int, int]],
        deployment: Deployment,
        model: RankModel,
        attack: AttackStrategy | None = None,
    ) -> MetricResult:
        """``H_{M,D}(S)`` over explicit pairs, parallelized if configured.

        This is the *evaluation* primitive the scheduler calls for each
        missing scenario; experiments declare
        :class:`~repro.experiments.scenarios.EvalRequest` objects instead
        of calling it directly, so ``metric_evaluations`` counts exactly
        the scenarios actually computed.  ``attack`` defaults to the
        context's run-wide attacker strategy.
        """
        pairs = list(pairs)
        attack = self.attack if attack is None else attack
        self.metric_evaluations += 1
        # Shard whole *destination groups* (not raw pair chunks) across
        # the pool so each worker fixes every destination's attacker-free
        # baseline exactly once (see _shard_pairs).  Tasks are consumed
        # one at a time (chunksize=1 — the packing here *is* the
        # batching); results are scattered back into input pair order, so
        # parallel and serial runs stay bit-identical.
        bins = self._shard_pairs(pairs)
        parts = self.map_tasks(
            _metric_chunk_worker,
            [[pairs[i] for i in bin_] for bin_ in bins],
            state={"deployment": deployment, "model": model, "attack": attack},
            chunksize=1,
            min_parallel=2,
        )
        return _gather_bins(pairs, bins, parts)

    def _shard_pairs(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[list[int]]:
        """Bin-pack pair *indices* by whole destination groups.

        The single sharding policy behind :meth:`metric` and
        :meth:`metric_chain` (they must stay in lockstep: each chain
        step reproduces a :meth:`metric` call bit-for-bit): groups are
        placed largest-first so skewed sizes cannot starve the pool, and
        only groups bigger than one bin's fair share are split.
        """
        slots = self.processes * 4 if self.processes > 1 else 1
        max_unit = max(1, -(-len(pairs) // slots)) if pairs else None
        return _pack_groups(_destination_groups(pairs), slots, max_unit)

    def metric_chain(
        self,
        pairs: Sequence[tuple[int, int]],
        deployments: Sequence[Deployment],
        model: RankModel,
        attack: AttackStrategy | None = None,
    ) -> list[MetricResult]:
        """``H_{M,D}(S_t)`` for every step of a nested-deployment chain.

        The rollout-major twin of :meth:`metric`: one result per
        deployment, over the same pairs.  Whole ``(destination, chain)``
        units are sharded across the fork pool — the same largest-first
        destination-group bin-packing as :meth:`metric`, but each worker
        walks its destinations through *all* chain steps on warm sweeps
        (:func:`repro.core.metrics.rollout_happiness`), so a chain of T
        steps costs one converged baseline plus T-1 advances per
        destination instead of T full re-fixes.  Per-step results are
        scattered back into input pair order, so each step reproduces
        :meth:`metric` on that deployment bit-for-bit.
        """
        pairs = list(pairs)
        deployments = list(deployments)
        attack = self.attack if attack is None else attack
        self.metric_evaluations += len(deployments)
        bins = self._shard_pairs(pairs)
        parts = self.map_tasks(
            _metric_chain_worker,
            [[pairs[i] for i in bin_] for bin_ in bins],
            state={
                "deployments": deployments,
                "model": model,
                "attack": attack,
            },
            chunksize=1,
            min_parallel=2,
        )
        return [
            _gather_bins(pairs, bins, [part[t] for part in parts])
            for t in range(len(deployments))
        ]


def make_context(
    scale: str | Scale = "small",
    seed: int = DEFAULT_SEED,
    ixp: bool = False,
    processes: int = 1,
    attack: AttackStrategy | str = DEFAULT_ATTACK,
    vectorized: bool | None = None,
    supervision: SupervisionPolicy | None = None,
    failure_log: FailureLog | None = None,
) -> ExperimentContext:
    """Build an :class:`ExperimentContext`.

    Args:
        scale: scale name (see :mod:`repro.experiments.config`) or a
            custom :class:`Scale`.
        seed: topology + sampling seed.
        ixp: run on the IXP-augmented graph (Appendix J).
        processes: worker processes for metric fan-out (1 = serial).
        attack: run-wide attacker strategy (instance or token, e.g.
            ``"forged_origin"``) used by every request that does not pin
            its own threat model.
        vectorized: force the numpy bucket kernels on (True) or off
            (False); None picks them for graphs of
            :data:`repro.core.routing.VECTORIZED_MIN_N` ASes or more —
            every shipped scale but ``tiny``.
        supervision: deadline/retry/backoff policy for the supervised
            pool (defaults are generous; see :class:`SupervisionPolicy`).
        failure_log: the :class:`~repro.experiments.failures.FailureLog`
            incidents are recorded to (a fresh one by default; the CLI
            shares one log across trials and the store).
    """
    scale_obj = scale if isinstance(scale, Scale) else get_scale(scale)
    if isinstance(attack, str):
        attack = strategy_from_token(attack)
    if failure_log is None:
        failure_log = FailureLog()
    topo = generate_topology(TopologyParams(n=scale_obj.n, seed=seed))
    graph = topo.graph
    if ixp:
        graph = augment_with_ixp_peering(graph, topo.ixp_members).graph
    tiers = classify_tiers(graph)
    ectx = ExperimentContext(
        scale=scale_obj,
        seed=seed,
        ixp=ixp,
        topo=topo,
        graph_ctx=RoutingContext(graph, vectorized=vectorized),
        tiers=tiers,
        catalog=ScenarioCatalog(graph, tiers),
        processes=processes,
        attack=attack,
        supervision=supervision or SupervisionPolicy(),
        failure_log=failure_log,
    )
    _LIVE_CONTEXTS[id(ectx)] = ectx
    return ectx


def cached(ectx: ExperimentContext, key: str, build: Callable[[], T]) -> T:
    """Fetch-or-compute an intermediate shared between experiments.

    Keys are scoped by ``(seed, graph variant, scale)`` so intermediates
    built for one topology can never be served to another — even if a
    cache dict were shared across contexts (base vs IXP graphs, or
    multi-seed trials).
    """
    scoped = (ectx.seed, ectx.ixp, ectx.scale.name, key)
    if scoped not in ectx.cache:
        ectx.cache[scoped] = build()
    return ectx.cache[scoped]


# ----------------------------------------------------------------------
# The scenario scheduler
# ----------------------------------------------------------------------

def evaluate_requests(
    ectx: ExperimentContext,
    requests: Iterable[EvalRequest],
    store: "ResultStore | None" = None,
    cancel: "Callable[[], bool] | None" = None,
) -> EvalResults:
    """Evaluate (or fetch) every request, deduped by scenario hash.

    Identical scenarios declared by different experiments collapse onto
    one evaluation; scenarios already in ``store`` are loaded instead of
    recomputed, and fresh evaluations are persisted immediately so an
    interrupted run is resumable.

    The missing scenarios are first partitioned into nested-deployment
    chains (:func:`repro.experiments.scenarios.detect_chains`): a
    rollout's steps — same pairs, model and threat model, deployments
    totally ordered by ⊑ — are evaluated in one warm chain walk
    (:meth:`ExperimentContext.metric_chain`) instead of step by step.
    Store-cached steps simply drop out of the chain (the advance jumps
    over them with a bigger delta).  Every scenario hash, store record
    and result is byte-identical to evaluating each step on its own
    with :meth:`ExperimentContext.metric`.

    ``cancel`` (if given) is polled between chains; when it turns true
    the scheduler raises
    :class:`~repro.experiments.failures.EvaluationCancelled` instead of
    starting the next chain.  Chains already evaluated were persisted,
    the in-flight pool shard is never interrupted mid-chain, so a
    cancelled run leaves the store consistent and resumable.

    Raises ``ValueError`` before anything is evaluated when a request
    targets another topology than the context's, puts a transit AS
    in simplex mode (:meth:`~repro.core.routing.RoutingContext.
    require_stub_simplex`), or — a request the store does not already
    hold — names a pair with an AS outside the graph or with
    ``m == d``.
    """
    unique: dict[str, EvalRequest] = {}
    for request in requests:
        unique.setdefault(request.scenario_hash, request)
    by_hash: dict[str, MetricResult] = {}
    missing: list[EvalRequest] = []
    for scenario_hash, request in unique.items():
        if (
            request.scale != ectx.scale.name
            or request.seed != ectx.seed
            or request.ixp != ectx.ixp
        ):
            raise ValueError(
                f"request {scenario_hash} targets topology "
                f"({request.scale}, seed {request.seed}, ixp {request.ixp}) "
                f"but the context is ({ectx.scale.name}, seed {ectx.seed}, "
                f"ixp {ectx.ixp})"
            )
        if request.deployment_simplex:
            # Here, not in a worker: the pool would retry and degrade a
            # request that cannot succeed.
            ectx.graph_ctx.require_stub_simplex(request.to_deployment())
        if store is not None:
            hit = store.get(scenario_hash)
            if hit is not None:
                store.hits += 1
                by_hash[scenario_hash] = hit
                continue
            store.misses += 1
        # Likewise in the parent: serially an unroutable pair would
        # abort the batch midway, with earlier chains already stored.
        for attacker, destination in request.pairs:
            ectx.graph_ctx._check_pair(destination, attacker)
        missing.append(request)
    chains = detect_chains(missing)
    for done, chain in enumerate(chains):
        if cancel is not None and cancel():
            raise EvaluationCancelled(
                f"evaluation cancelled with {len(chains) - done} of "
                f"{len(chains)} chain(s) unevaluated"
            )
        try:
            if len(chain) == 1:
                request = chain[0]
                results = [
                    ectx.metric(
                        request.pairs,
                        request.to_deployment(),
                        request.to_model(),
                        attack=request.to_attack(),
                    )
                ]
            else:
                results = ectx.metric_chain(
                    chain[0].pairs,
                    [request.to_deployment() for request in chain],
                    chain[0].to_model(),
                    attack=chain[0].to_attack(),
                )
        except EvaluationFailure as exc:
            # The supervised pool already burned its retries *and* the
            # serial fallback; losing this scenario must not lose the
            # rest of the run.  Record it and keep going — the CLI
            # turns these into a nonzero exit with a summary.
            for request in chain:
                ectx.failure_log.record(
                    "scenario_failed",
                    detail=str(exc),
                    scenario=request.scenario_hash,
                )
            continue
        for request, result in zip(chain, results):
            if store is not None:
                store.put(request, result)
            by_hash[request.scenario_hash] = result
    return EvalResults(by_hash)


def run_experiments(
    ectx: ExperimentContext,
    experiment_ids: Sequence[str] | None = None,
    store: "ResultStore | None" = None,
    cancel: "Callable[[], bool] | None" = None,
) -> "list[ExperimentResult]":
    """Run experiments through the scenario plane.

    Phase 1 collects every experiment's declared requests; phase 2
    evaluates the global dedupe of those requests (against the store if
    given); phase 3 hands each experiment the shared results mapping.
    """
    from .registry import all_experiments, get_experiment

    if experiment_ids is None:
        specs: list[ExperimentSpec] = list(all_experiments().values())
    else:
        specs = [get_experiment(eid) for eid in experiment_ids]
    requests: list[EvalRequest] = []
    for spec in specs:
        requests.extend(spec.requests(ectx))
    results = evaluate_requests(ectx, requests, store=store, cancel=cancel)
    out = []
    for spec in specs:
        try:
            result = spec.run(ectx, results)
        except KeyError as exc:
            # Only swallow the KeyError when a declared scenario really
            # failed evaluation (recorded above); a KeyError on a fully
            # evaluated run is an experiment bug and must surface.
            if not ectx.failure_log.scenario_failures():
                raise
            from .registry import ExperimentResult

            ectx.failure_log.record(
                "experiment_failed",
                detail=f"{spec.experiment_id}: missing scenario ({exc})",
            )
            result = ExperimentResult(
                experiment_id=spec.experiment_id,
                title=spec.title,
                paper_reference=spec.paper_reference,
                paper_expectation=spec.paper_expectation,
                rows=[],
                text=(
                    "FAILED: one or more scenarios this experiment "
                    "depends on could not be evaluated (see the failure "
                    "summary)."
                ),
            )
        result.seed = ectx.seed
        result.ixp = ectx.ixp
        out.append(result)
    return out


def run_experiment(
    ectx: ExperimentContext,
    experiment_id: str,
    store: "ResultStore | None" = None,
    cancel: "Callable[[], bool] | None" = None,
) -> "ExperimentResult":
    """Declare-evaluate-consume for a single experiment."""
    return run_experiments(ectx, [experiment_id], store=store, cancel=cancel)[0]
