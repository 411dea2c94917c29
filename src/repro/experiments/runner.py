"""Experiment execution context, the persistent worker pool, and the
scenario scheduler.

The paper parallelized its metric computations with MPI across
supercomputer nodes (Appendix H); here the unit of *work* is a **row**
— one fixing pass for one ``(m, d, S_t)`` — and the unit of
*parallelism* a **bin** of about one kernel batch of rows: the chains
of a batch are cut, destination group by destination group, into bins
(:func:`~repro.experiments.scenarios.cut_bins`) that go over local
``fork`` processes in one pass, the topology shared with the workers
for free (no per-task pickling of the graph).  A worker evaluates its
bin with :func:`repro.core.jobs.jobs_happiness_counts`, which runs
each distinct pass of the bin once, as rows of shared numpy kernel
batches.  Forked workers
each own a copy-on-write clone of the context, so scratch-buffer reuse
is race-free, and results are scattered back into request pair order
so parallel runs reproduce serial runs bit-for-bit.

Two layers live here:

* :class:`ExperimentContext` — topology + tiers + budgets + a
  **persistent fork pool**: created lazily on the first parallel call
  and reused for every subsequent one (the pool's workers inherit the
  routing context at fork time — the graph's own arrays, which its
  kernels read as they are; what a
  bin needs besides — pairs, deployments, model — rides with its task).
  :meth:`ExperimentContext.close` ends a context and releases its
  topology.
* the **scenario scheduler** (:func:`run_experiments`) — collects the
  :class:`~repro.experiments.scenarios.EvalRequest` declarations of all
  experiments in a run, dedupes identical scenarios globally (baselines
  shared by several figures are computed once), consults the persistent
  :class:`~repro.experiments.store.ResultStore`, plans the missing
  scenarios as one pass, and hands every experiment an
  :class:`~repro.experiments.scenarios.EvalResults` mapping to consume.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import random
import signal
import threading
import time
import traceback
import weakref
from collections import deque
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from multiprocessing import connection as mp_connection
from collections.abc import Iterator
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, Sized, TypeVar

from ..core.attacks import DEFAULT_ATTACK, AttackStrategy, strategy_from_token
from ..core.deployment import Deployment, ScenarioCatalog
from ..core.metrics import MetricResult, metric_of_counts
from ..core.rank import RankModel
from ..core.context import RoutingContext
from ..core.jobs import jobs_happiness_counts
from ..topology.generate import TopologyParams, generate_topology
from ..topology.ixp import augment_with_ixp_peering
from ..topology.tiers import TierTable, classify_tiers
from .config import DEFAULT_SEED, Scale, get_scale
from .failures import EvaluationCancelled, EvaluationFailure, FailureLog
from .faults import active_plan
from .scenarios import (
    EvalRequest,
    EvalResults,
    cut_bins,
    deployment_memo,
    detect_chains,
)

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

#: One :func:`make_context` build at a time (the service builds on a
#: thread pool): the collector pause is process-wide, and two builds
#: saving and restoring it concurrently could leave it off for good.
_BUILD_LOCK = threading.Lock()


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
    # fallback.  A worker owns nothing to unwind: die on SIGTERM.  The
    # fork left SIGTERM blocked (:meth:`SupervisedPool._spawn`), so one
    # sent before this line is held, not swallowed by the inherited
    # handler (an asyncio server's is a no-op), and kills us here.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
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

    __slots__ = ("seq", "tasks", "indices", "attempt", "deadline",
                 "not_before", "started")

    def __init__(self, seq, tasks, indices, deadline):
        self.seq = seq
        self.tasks = tasks          # [(worker, item, state), ...]
        self.indices = indices      # result positions, parallel to tasks
        self.attempt = 0
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
      :class:`~repro.core.context.RoutingContext`, so the respawn
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
      shard come back as an :class:`~repro.experiments.failures.
      EvaluationFailure`, which the scheduler books *per scenario*.

    Every incident lands in the run's :class:`~repro.experiments.
    failures.FailureLog`.  Results carry their submission positions,
    and evaluation is deterministic, so a run with any number of
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
        """Fork one worker (it snapshots the warm context copy-on-write).

        SIGTERM stays blocked across the fork until the child has reset
        its handler: a :meth:`terminate` that follows a fresh fork at
        once would otherwise reach the parent's handler in the child,
        and a worker that survives it holds its own pipe open, so only
        :meth:`join`'s 10 s kill would end it."""
        ectx = self._ctx_ref()
        global _WORKER_CTX
        _WORKER_CTX = ectx
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            parent_conn, child_conn = self._mp.Pipe()
            proc = self._mp.Process(
                target=_supervised_worker_main,
                args=(child_conn, slot),
                daemon=True,
            )
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
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
        self, tasks: "list[tuple]", chunksize: int, sizes: Sequence[int]
    ) -> "Iterator[tuple[list[int], list | None, EvaluationFailure | None]]":
        """Evaluate ``tasks`` (``(worker, item, state)`` tuples, of
        ``sizes`` units each), fanned out as shards of ``chunksize``
        consecutive tasks; yields ``(indices, values, error)`` per
        shard, as it completes — its tasks' submission positions with
        their results, or with the :class:`EvaluationFailure` of a
        shard that failed every pooled attempt *and* the in-process
        fallback (the other shards still come).  Closing the generator
        early abandons the pass: workers still busy are killed and
        replaced, so the pool is idle again for the next call."""
        if self._closed:
            raise RuntimeError("pool is closed")
        pending: deque[_Shard] = deque()
        for start in range(0, len(tasks), chunksize):
            indices = list(range(start, min(start + chunksize, len(tasks))))
            deadline = self._policy.deadline_for(sum(sizes[i] for i in indices))
            pending.append(
                _Shard(self._seq, [tasks[i] for i in indices], indices, deadline)
            )
            self._seq += 1
        remaining = len(pending)
        done: list[tuple] = []
        try:
            while remaining:
                now = time.monotonic()
                # Before anything is handed over: a freed worker gets
                # its next shard now, not when the consumer comes back.
                self._dispatch_ready(pending, now)
                if done:
                    remaining -= len(done)
                    yield from done
                    done = []
                    continue
                busy = [w for w in self._workers if w.shard is not None]
                if not busy:
                    # Every outstanding shard is backing off; sleep to
                    # the earliest retry time.
                    wake = min(s.not_before for s in pending)
                    time.sleep(min(max(wake - now, 0.0) + 0.001, 1.0))
                    continue
                timeout = self._wait_timeout(busy, pending, now)
                ready = mp_connection.wait([w.conn for w in busy], timeout)
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    self._on_message(by_conn[conn], done, pending)
                now = time.monotonic()
                for worker in self._workers:
                    shard = worker.shard
                    if shard is not None and now - shard.started > shard.deadline:
                        self._on_failure(
                            worker,
                            "worker_hung",
                            f"no result after {now - shard.started:.1f}s "
                            f"(deadline {shard.deadline:.1f}s); worker killed",
                            done,
                            pending,
                        )
        finally:
            for worker in self._workers:
                if worker.shard is not None and not self._closed:
                    self._replace(worker)

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

    def _on_message(self, worker: _Worker, done: list, pending) -> None:
        """Handle one readable worker pipe; a shard thereby completed
        goes to ``done`` as what :meth:`run` yields for it."""
        shard = worker.shard
        try:
            msg = worker.conn.recv()
        except (EOFError, OSError):
            if shard is None:  # pragma: no cover - stray EOF while idle
                self._replace(worker)
                return
            return self._on_failure(
                worker,
                "worker_dead",
                "worker crashed (EOF on result pipe — killed or segfaulted)",
                done,
                pending,
            )
        kind, seq, payload = msg
        if shard is None or seq != shard.seq:  # pragma: no cover - stale
            return
        if kind == "ok":
            worker.shard = None
            done.append((shard.indices, payload, None))
            return
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
        self._retry_or_degrade(shard, done, pending)

    def _on_failure(
        self, worker: _Worker, kind: str, detail: str, done: list, pending
    ) -> None:
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
        self._retry_or_degrade(shard, done, pending)

    def _retry_or_degrade(self, shard: _Shard, done: list, pending) -> None:
        """Re-enqueue with backoff, or run serially after max retries:
        the shard is then ``done``, with its values or the failure of
        this last resort."""
        shard.attempt += 1
        if shard.attempt <= self._policy.max_retries:
            shard.not_before = time.monotonic() + self._policy.backoff * (
                2 ** (shard.attempt - 1)
            )
            pending.append(shard)
            return
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
        values = failure = None
        try:
            if plan is not None:
                plan.fire_worker(
                    shard=shard.seq, attempt=shard.attempt, in_worker=False
                )
            values = [
                worker_fn(ectx, item, state)
                for worker_fn, item, state in shard.tasks
            ]
        except Exception as exc:
            failure = EvaluationFailure(
                f"shard {shard.seq} failed {self._policy.max_retries} "
                f"pooled retries and the in-process serial fallback: "
                f"{type(exc).__name__}: {exc}"
            )
            failure.__cause__ = exc
        done.append((shard.indices, values, failure))

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


def _bin_worker(ectx: "ExperimentContext", jobs: list[tuple], state: dict):
    """Evaluate one bin of a plan — parts of one or more chains, as
    ``(pairs, deployments, model, attack)`` jobs: the count triples per
    job, per step, per pair.  Its pair-steps share kernel batches, and
    its blind ones passes, whatever chain they belong to."""
    return jobs_happiness_counts(ectx.graph_ctx, jobs)


class _Job:
    """One planned chain — ``(pairs, deployments, model, attack)``, a
    single scenario being a chain of one step — and what has come back
    of it: ``cells[t][i]`` the count triple of pair ``i`` at step ``t``,
    ``waiting`` the bins that still hold a part of it, ``error`` the
    failure of one that was lost."""

    __slots__ = ("pairs", "deployments", "model", "attack", "cells",
                 "waiting", "error")

    def __init__(self, pairs, deployments, model, attack):
        self.pairs, self.deployments = pairs, deployments
        self.model, self.attack = model, attack
        self.cells: list[list] = [[None] * len(pairs) for _ in deployments]
        self.waiting = 0
        self.error: EvaluationFailure | None = None


#: A bin holds about one kernel batch of rows
#: (:attr:`repro.core.context.RoutingContext.batch_rows`), and never
#: under this many where that is few (one, at 80k ASes): every bin
#: derives its chains' steps and deployment masks again.
_MIN_BIN_ROWS = 32


class _Pass:
    """A plan in flight: jobs cut into bins, the bins one pass over the
    pool (or, serially, evaluated one by one as they are asked for),
    each job collected when its last bin is in."""

    def __init__(self, ectx: "ExperimentContext", keys: Iterable[tuple]):
        #: ``(pairs, deployments, model, attack)`` → job, until collected
        self.jobs = {key: _Job(*key) for key in keys}
        jobs = list(self.jobs.values())
        chains = [(job.pairs, len(job.deployments)) for job in jobs]
        total = sum(len(pairs) * steps for pairs, steps in chains)
        share = -(-total // (2 * ectx.processes if ectx.processes > 1 else 1))
        cap = min(max(ectx.graph_ctx.batch_rows, _MIN_BIN_ROWS), share)
        #: per bin its ``(job, pair indices)`` parts
        self.bins = [
            [(jobs[j], idxs) for j, idxs in parts]
            for parts in cut_bins(chains, cap, share)
        ]
        for parts in self.bins:
            for job, _ in parts:
                job.waiting += 1
        # A deployment object several chains share (evaluate_requests
        # keeps one per distinct value) is pickled once a bin and one
        # object in the worker, which remembers checks and masks by it.
        tasks = [
            [
                ([job.pairs[i] for i in idxs], job.deployments, job.model, job.attack)
                for job, idxs in parts
            ]
            for parts in self.bins
        ]
        # A bin's deadline scales with its rows: a 19-step chain's pair
        # is 19 passes, not one.
        sizes = [
            sum(len(idxs) * len(job.deployments) for job, idxs in parts)
            for parts in self.bins
        ]
        self.stream = ectx._run_tasks(_bin_worker, tasks, {}, sizes, 1, 2)

    def collect(self, key: tuple) -> list[MetricResult]:
        """The results of one planned job, per step: waits for the bins
        it has parts in (scattering whatever else arrives meanwhile);
        raises the :class:`EvaluationFailure` of a bin that was lost."""
        job = self.jobs.pop(key)
        while job.waiting:
            (index,), values, error = next(self.stream)  # chunksize 1
            replies = values[0] if error is None else repeat(None)
            for (part, idxs), per_step in zip(self.bins[index], replies):
                part.waiting -= 1
                part.error = part.error or error
                for cells, counts in zip(part.cells, per_step or ()):
                    for i, triple in zip(idxs, counts):
                        cells[i] = triple
        if job.error is not None:
            raise job.error
        return [metric_of_counts(job.pairs, cells) for cells in job.cells]


#: What :meth:`ExperimentContext.close` drops: the topology and all
#: that was derived from it.
_RELEASED = ("graph_ctx", "tiers", "catalog", "cache")


@dataclass(eq=False)
class ExperimentContext:
    """Everything an experiment needs: topology, tiers, budgets, caching.

    Build one with :func:`make_context`.  The ``cache`` dict lets related
    figures share intermediate computations (e.g. the partition figures
    share per-pair sweeps); keys are scoped by (seed, graph variant,
    scale) via :func:`cached` so intermediates can never collide across
    contexts even if a cache dict is ever shared.

    A context holds its topology and, once a parallel call has run, a
    persistent fork pool, until :meth:`close` ends it: call it when
    done, or use the context as a ``with`` block.  A closed context has
    released both, so a name still bound to one holds no graph, and
    using it raises ``RuntimeError``: build a new one.
    """

    scale: Scale
    seed: int
    ixp: bool
    graph_ctx: RoutingContext = field(repr=False)
    tiers: TierTable = field(repr=False)
    catalog: ScenarioCatalog = field(repr=False)
    processes: int = 1
    #: run-wide attacker strategy: the default threat model for every
    #: request declared without an explicit ``attack`` (CLI ``--attack``).
    attack: AttackStrategy = DEFAULT_ATTACK
    #: deadlines/retry/backoff policy of the supervised pool.
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    #: structured audit trail of every recovered (and fatal) incident.
    failure_log: FailureLog = field(default_factory=FailureLog)
    cache: dict = field(default_factory=dict, repr=False)
    #: scenarios evaluated through :meth:`metric` /
    #: :meth:`metric_chain` (the acceptance counter: a warm-store rerun
    #: must leave this at zero).
    metric_evaluations: int = 0
    _pool: SupervisedPool | None = field(
        default=None, repr=False, compare=False
    )
    #: the plan in flight (:meth:`_planned`), None between plans
    _pass: "_Pass | None" = field(default=None, repr=False, compare=False)
    #: set by :meth:`close`, which released the topology
    closed: bool = field(default=False, init=False)

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: one that
        # close() released, or none at all.
        if name in _RELEASED and self.__dict__.get("closed"):
            raise _closed_error(f"its {name} was released")
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
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

        Workers inherit the graph copy-on-write and read its arrays as
        they are (the per-pass scratch stays lazy: every worker writes
        its own).  A closed context forks none again.
        """
        if self.closed:
            raise _closed_error("it forks no pool")
        if self._pool is None:
            self._pool = SupervisedPool(
                self, policy=self.supervision, failure_log=self.failure_log
            )
        return self._pool

    def map_tasks(
        self,
        worker: Callable[["ExperimentContext", T, dict], object],
        items: Iterable[T],
        state: dict | None = None,
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
        # Shard deadlines scale with how much work each item holds
        # (a list of pairs is len(item) units, an opaque item one).
        sizes = [len(item) if isinstance(item, Sized) else 1 for item in items]
        results: list = [None] * len(items)
        args = (worker, items, state or {}, sizes, None, min_parallel)
        with closing(self._run_tasks(*args)) as shards:
            for indices, values, error in shards:
                if error is not None:
                    raise error
                for index, value in zip(indices, values):
                    results[index] = value
        return results

    def _run_tasks(
        self, worker, items: list, state: dict, sizes: Sequence[int],
        chunksize: int | None, min_parallel: int,
    ) -> Iterator[tuple]:
        """The one dispatch path: yields :meth:`SupervisedPool.run`'s
        ``(indices, values, error)`` per finished shard — from the pool,
        or, serial (see :meth:`map_tasks`), one item per step, evaluated
        in process when the consumer asks for it, exceptions raised as
        they are."""
        if self.processes <= 1 or len(items) < min_parallel:
            for index, item in enumerate(items):
                yield [index], [worker(self, item, state)], None
            return
        tasks = [(worker, item, state) for item in items]
        if chunksize is None:
            chunksize = max(1, len(tasks) // (self.processes * 4))
        yield from self._ensure_pool().run(tasks, chunksize, sizes)

    def close(self) -> None:
        """End the context (idempotent): shut down the persistent fork
        pool (if one was forked) and release the topology — the routing
        context with its scratch and masks, the tiers, the catalog and
        the plan cache — so the graph is freed even while a name is
        still bound to this context.

        Runs on every exit path: ``with`` blocks and explicit calls on
        the happy path, the module atexit hook (which the CLI's SIGTERM
        handler reaches via ``SystemExit``) on interrupted ones.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        for name in _RELEASED:
            self.__dict__.pop(name, None)
        self.closed = True

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

        The *evaluation* primitive (:meth:`metric_chain`'s, for a chain
        of one step); experiments declare
        :class:`~repro.experiments.scenarios.EvalRequest` objects instead
        of calling it directly, so ``metric_evaluations`` counts exactly
        the scenarios actually computed.  ``attack`` defaults to the
        context's run-wide attacker strategy.
        """
        self.metric_evaluations += 1
        return self._collect(pairs, [deployment], model, attack)[0]

    def metric_chain(
        self,
        pairs: Sequence[tuple[int, int]],
        deployments: Sequence[Deployment],
        model: RankModel,
        attack: AttackStrategy | None = None,
    ) -> list[MetricResult]:
        """``H_{M,D}(S_t)`` for every step of a nested-deployment chain:
        one result per deployment, in input pair order, each
        reproducing :meth:`metric` on that deployment bit-for-bit.

        The chain is a *job* of a plan (:class:`_Pass`): cut by
        destination group into bins of about one kernel batch of rows,
        evaluated bin by bin — one pass over the fork pool, if there is
        one — and scattered back into pair order, so parallel and
        serial runs stay bit-identical.  Inside :func:`evaluate_requests`,
        which plans a batch's chains into one pass, this *collects* the
        chain from the pass in flight, waiting for its bins if need be;
        on its own it plans, runs and collects a pass of this one job.
        """
        deployments = list(deployments)
        self.metric_evaluations += len(deployments)
        return self._collect(pairs, deployments, model, attack)

    def _collect(self, pairs, deployments, model, attack) -> list[MetricResult]:
        key = (
            tuple(pairs), tuple(deployments), model,
            self.attack if attack is None else attack,
        )
        if self._pass is None:
            with self._planned([key]):
                return self._pass.collect(key)
        # KeyError: a job the plan in flight does not hold (a second
        # pass would read the first one's shards off the pool)
        return self._pass.collect(key)

    @contextmanager
    def _planned(self, keys: Iterable[tuple]) -> Iterator[None]:
        """Plan jobs — ``(pairs, deployments, model, attack)``, tuples —
        as the pass :meth:`metric` / :meth:`metric_chain` collect from
        inside the block; leaving it abandons what was not collected."""
        self._pass = _Pass(self, keys)
        try:
            yield
        finally:
            self._pass, planned = None, self._pass
            planned.stream.close()


def _closed_error(why: str) -> RuntimeError:
    return RuntimeError(
        f"the experiment context is closed, so {why}; build a new one "
        f"with make_context"
    )


def make_context(
    scale: str | Scale = "small",
    seed: int = DEFAULT_SEED,
    ixp: bool = False,
    processes: int = 1,
    attack: AttackStrategy | str = DEFAULT_ATTACK,
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
    # The build makes no reference cycles, so the cyclic collector is
    # paused for it and one young collection afterwards walks what it
    # kept.  The pause saves no full collection (with the collector on,
    # an 80k build triggers one young collection and no full one); it
    # stays because removing it was not shown free: without it,
    # rollout_large read wall_s worse in 11 of 14 pairs of
    # tools/alternate_bench.py (medians +8 % and +9 %, 2-vCPU VM) and
    # peak RSS 3 MB lower, and one of its two trials read unresolved.
    with _BUILD_LOCK:
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            topo = generate_topology(TopologyParams(n=scale_obj.n, seed=seed))
            graph = topo.graph
            if ixp:
                graph = augment_with_ixp_peering(graph, topo.ixp_members).graph
            tiers = classify_tiers(graph)
            ectx = ExperimentContext(
                scale=scale_obj,
                seed=seed,
                ixp=ixp,
                graph_ctx=RoutingContext(graph),
                tiers=tiers,
                catalog=ScenarioCatalog(graph, tiers),
                processes=processes,
                attack=attack,
                supervision=supervision or SupervisionPolicy(),
                failure_log=failure_log,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
    gc.collect(1)
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
    recomputed.  The missing ones are partitioned into nested-deployment
    chains (:func:`repro.experiments.scenarios.detect_chains`: a
    rollout's steps — same pairs, model and threat model, deployments
    totally ordered by ⊑; store-cached steps simply drop out) and all
    chains are planned, before any is evaluated, as **one** pass over
    the pool (:meth:`ExperimentContext.metric_chain`).  The loop then
    collects chain after chain from the pass in flight and persists
    each the moment it is whole, so an interrupted run is resumable.
    Every scenario hash, store record and result is byte-identical to
    evaluating each step on its own with :meth:`ExperimentContext.metric`.

    ``cancel`` (if given) is polled between chains; when it turns true
    the scheduler raises
    :class:`~repro.experiments.failures.EvaluationCancelled` instead of
    collecting the next chain and abandons the rest of the pass.  Chains
    already collected were persisted, so a cancelled run leaves the
    store consistent and resumable, and the pool usable.

    Raises ``ValueError`` before anything is evaluated when a request
    targets another topology than the context's, puts a transit AS
    in simplex mode (:meth:`~repro.core.context.RoutingContext.
    require_stub_simplex`), or — a request the store does not already
    hold — names a pair with an AS outside the graph or with
    ``m == d``.
    """
    unique: dict[str, EvalRequest] = {}
    for request in requests:
        unique.setdefault(request.scenario_hash, request)
    by_hash: dict[str, MetricResult] = {}
    missing: list[EvalRequest] = []
    # One object per distinct deployment of the batch, built once: the
    # engine remembers stub-simplex verdict and masks per object, and
    # chain detection compares these.
    deployment_of = deployment_memo()
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
            ectx.graph_ctx.require_stub_simplex(deployment_of(request))
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
    # Same-model chains adjacent: their rows share kernel batches.
    chains = sorted(
        detect_chains(missing, deployment_of), key=lambda chain: chain[0].model
    )
    jobs = [
        (
            chain[0].pairs,
            tuple(deployment_of(request) for request in chain),
            chain[0].to_model(),
            chain[0].to_attack(),
        )
        for chain in chains
    ]
    with ectx._planned(jobs):
        for done, (chain, job) in enumerate(zip(chains, jobs)):
            if cancel is not None and cancel():
                raise EvaluationCancelled(
                    f"evaluation cancelled with {len(chains) - done} of "
                    f"{len(chains)} chain(s) unevaluated"
                )
            try:
                results = ectx.metric_chain(*job)
            except EvaluationFailure as exc:
                # The supervised pool already burned its retries *and*
                # the serial fallback on a bin this chain has a part
                # in; losing these scenarios must not lose the rest of
                # the run.  Record them and keep going — the CLI turns
                # these into a nonzero exit with a summary.
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
    given); phase 3 hands each experiment its plan and the shared
    results mapping, and wraps what it returns in an
    :class:`~repro.experiments.registry.ExperimentResult` carrying the
    spec's metadata.
    """
    from .registry import ExperimentResult, all_experiments, get_experiment

    if experiment_ids is None:
        specs: list[ExperimentSpec] = list(all_experiments().values())
    else:
        specs = [get_experiment(eid) for eid in experiment_ids]
    requests = [request for spec in specs for request in spec.requests(ectx)]
    results = evaluate_requests(ectx, requests, store=store, cancel=cancel)
    out = []
    for spec in specs:
        try:
            rows, text = spec.run(ectx, spec.planned(ectx), results)
        except KeyError as exc:
            # Only swallow the KeyError when one of this experiment's
            # own declared scenarios failed evaluation (recorded
            # above); any other KeyError is an experiment bug.
            if all(request in results for request in spec.requests(ectx)):
                raise
            ectx.failure_log.record(
                "experiment_failed",
                detail=f"{spec.experiment_id}: missing scenario ({exc})",
            )
            rows, text = [], (
                "FAILED: one or more scenarios this experiment "
                "depends on could not be evaluated (see the failure "
                "summary)."
            )
        out.append(
            ExperimentResult(
                experiment_id=spec.experiment_id,
                title=spec.title,
                paper_reference=spec.paper_reference,
                paper_expectation=spec.paper_expectation,
                rows=rows,
                text=text,
                seed=ectx.seed,
                ixp=ectx.ixp,
            )
        )
    return out


def run_experiment(
    ectx: ExperimentContext,
    experiment_id: str,
    store: "ResultStore | None" = None,
    cancel: "Callable[[], bool] | None" = None,
) -> "ExperimentResult":
    """Declare-evaluate-consume for a single experiment."""
    return run_experiments(ectx, [experiment_id], store=store, cancel=cancel)[0]
