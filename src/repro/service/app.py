"""The evaluation service: warm contexts, read-through cache, streaming.

One :class:`Service` owns

* a :class:`~repro.experiments.store.ResultStoreBase` (sqlite by
  default under ``repro serve`` — it tolerates a concurrent batch CLI
  writing the same cache),
* a small LRU of resident :class:`~repro.experiments.runner.
  ExperimentContext`\\ s keyed by (scale, seed, ixp) — the expensive
  part of a cold metric is topology construction and pool warm-up, so
  the service keeps them hot across requests,
* a single-flight map: concurrent requests for the same scenario hash
  share one pool evaluation, with per-entry waiter refcounts so a
  deadline-expired or disconnected client *detaches* without killing
  work other clients still wait on,
* an in-memory hot cache of results (safe because scenario hashes are
  content addresses over every evaluation input — a hash's result can
  never go stale), and
* the shared :class:`~repro.experiments.failures.FailureLog` every
  layer (store, pool, jobs) records incidents to.

The request journey for ``POST /v1/metrics``: parse canonical requests
→ hash → *admission* (hot cache → breaker-guarded store lookup →
coalesce onto in-flight work → cold misses claim evaluation budget or
are shed with ``429`` + ``Retry-After``) → chains evaluate on the
resident context's ``SupervisedPool`` in service-owned background
tasks → results persist to the store and stream back per step (chunked
NDJSON when ``"stream": true``), each wait bounded by the request's
deadline.

Resilience invariants this module maintains:

* **reads never queue behind evaluations** — hot/cached hashes answer
  even when the evaluation budget is saturated or the store breaker is
  open;
* **every store touch goes through the circuit breaker** and runs in
  the executor, so a sick sqlite file slows a thread, never the event
  loop;
* **a single-flight entry can never strand its waiters** — the owning
  chain task resolves every entry (result, error marker, or
  cancellation marker) and evicts it from the map on all exit paths;
* **abandoned work is cancelled** — when the last waiter detaches
  (deadline, disconnect) before a chain starts, the chain is dropped
  without evaluating; mid-evaluation the chain completes and its
  results are cached (they were paid for).
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import math
import sqlite3
import time
from concurrent.futures import ThreadPoolExecutor

from ..experiments.config import DEFAULT_SEED, SCALES
from ..experiments.failures import EvaluationCancelled, FailureLog
from ..experiments.faults import active_plan
from ..experiments.registry import all_experiments
from ..experiments.runner import evaluate_requests, make_context
from ..experiments.scenarios import EvalRequest, detect_chains
from ..experiments.store import ResultStoreBase
from .http import (
    DEFAULT_KEEP_ALIVE_TIMEOUT,
    HTTPError,
    HTTPServer,
    Request,
    Response,
    Router,
)
from .jobs import JobManager
from .schemas import (
    experiment_payload,
    parse_metrics_body,
    result_event,
    scenario_payload,
)

#: Default cap on resident contexts; the LRU evicts (and closes) beyond
#: it, skipping contexts mid-evaluation.
DEFAULT_MAX_CONTEXTS = 4

#: Default evaluation budget: unique scenarios admitted (and not yet
#: finished) before cold misses are shed with 429.
DEFAULT_MAX_INFLIGHT = 64

#: Server-side default deadline for a metrics request; clients override
#: per request with ``deadline_ms``.
DEFAULT_DEADLINE_MS = 60_000

#: Results kept in the in-memory hot cache (content-addressed, so
#: never stale; exists so warm hashes survive a sick store).
DEFAULT_HOT_CACHE = 4096

#: Circuit breaker defaults: consecutive store failures to trip, and
#: seconds to stay open before probing.
BREAKER_THRESHOLD = 5
BREAKER_COOLDOWN_S = 5.0

#: Evaluation durations remembered for Retry-After estimation.
_EVAL_WINDOW = 32


class StoreUnavailable(Exception):
    """One guarded store call failed (the breaker counted it)."""


class CircuitBreaker:
    """Closed → open → half-open breaker over the service's store calls.

    ``threshold`` *consecutive* failures trip it open; while open every
    guarded call is refused for ``cooldown`` seconds, after which a
    single probe call is let through (half-open).  A probe success
    closes the breaker; a probe failure re-opens it for another
    cooldown.  Transitions are recorded as ``FailureLog`` incidents so
    a breaker episode is auditable after the fact.
    """

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD,
        cooldown: float = BREAKER_COOLDOWN_S,
        failure_log: FailureLog | None = None,
        clock=time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failure_log = failure_log
        self._clock = clock
        self.state = "closed"
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self._probing = False

    def _record(self, kind: str, detail: str) -> None:
        if self.failure_log is not None:
            self.failure_log.record(kind, detail=detail)

    def allow(self) -> bool:
        """Whether a guarded call may proceed right now."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self.opened_at < self.cooldown:
                return False
            self.state = "half_open"
            self._probing = False
            self._record(
                "breaker_half_open",
                "cooldown elapsed; letting one probe through",
            )
        if self._probing:
            return False
        self._probing = True
        return True

    def success(self) -> None:
        self._probing = False
        self.consecutive_failures = 0
        if self.state != "closed":
            self.state = "closed"
            self._record("breaker_closed", "store probe succeeded")

    def failure(self, detail: str = "") -> None:
        self._probing = False
        self.consecutive_failures += 1
        if self.state == "half_open" or (
            self.state == "closed"
            and self.consecutive_failures >= self.threshold
        ):
            self.state = "open"
            self.opened_at = self._clock()
            self.trips += 1
            self._record(
                "breaker_open",
                f"{self.consecutive_failures} consecutive store "
                f"failure(s); open for {self.cooldown}s"
                + (f" ({detail})" if detail else ""),
            )
        elif self.state == "open":
            self.opened_at = self._clock()

    def retry_after(self) -> int:
        """Whole seconds until a retry could be admitted."""
        if self.state != "open":
            return 1
        remaining = self.cooldown - (self._clock() - self.opened_at)
        return max(1, math.ceil(remaining))

    def payload(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "threshold": self.threshold,
            "cooldown_s": self.cooldown,
            "trips": self.trips,
        }


class _EvalError:
    """Marker resolved into a single-flight future when evaluation
    failed or was abandoned (plain result, so no unretrieved-exception
    noise when a detached waiter never looks)."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class _Inflight:
    """One single-flight entry: the shared future plus a refcount of
    attached waiters (the owner counts as one)."""

    __slots__ = ("scenario_hash", "future", "waiters")

    def __init__(self, scenario_hash: str, future: asyncio.Future):
        self.scenario_hash = scenario_hash
        self.future = future
        self.waiters = 0


class _Resolution:
    """One admitted metrics request: its classified batch plus the
    bookkeeping needed to detach cleanly on any exit path."""

    def __init__(self, unique, deadline_ms, deadline_at):
        self.unique: dict[str, EvalRequest] = unique
        self.deadline_ms = deadline_ms
        self.deadline_at = deadline_at
        self.cached: dict[str, object] = {}
        self.coalesced: list[str] = []
        self.chains: list[list[EvalRequest]] = []
        self.attached: dict[str, _Inflight] = {}
        self._released = False

    def attach(self, entry: _Inflight) -> None:
        if entry.scenario_hash not in self.attached:
            entry.waiters += 1
            self.attached[entry.scenario_hash] = entry

    def release(self) -> None:
        """Detach from every attached entry (idempotent) — the owning
        chain task polls waiter counts to decide whether the work is
        still wanted."""
        if self._released:
            return
        self._released = True
        for entry in self.attached.values():
            entry.waiters -= 1


class _EventStream:
    """Streaming wrapper whose ``aclose`` always releases the
    resolution, even when the generator body never started (header
    write failed) — an unstarted generator's ``finally`` never runs."""

    def __init__(self, gen, release):
        self._gen = gen
        self._release = release

    def __aiter__(self):
        return self._gen.__aiter__()

    async def aclose(self):
        try:
            await self._gen.aclose()
        finally:
            self._release()


class Service:
    """Application state + handlers; wire to HTTP with :meth:`router`."""

    def __init__(
        self,
        store: ResultStoreBase,
        *,
        processes: int = 1,
        attack: str | None = None,
        max_contexts: int = DEFAULT_MAX_CONTEXTS,
        default_scale: str = "small",
        default_seed: int = DEFAULT_SEED,
        failure_log: FailureLog | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        default_deadline_ms: int | None = DEFAULT_DEADLINE_MS,
        breaker: CircuitBreaker | None = None,
    ):
        if max_contexts < 1:
            raise ValueError("max_contexts must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.store = store
        self.processes = processes
        self.attack = attack
        self.max_contexts = max_contexts
        self.default_scale = default_scale
        self.default_seed = default_seed
        self.max_inflight = max_inflight
        self.default_deadline_ms = default_deadline_ms
        # Explicit None checks: an *empty* FailureLog is falsy (it has
        # __len__), and a caller-provided log must win even when empty.
        if failure_log is None:
            failure_log = store.failure_log
        if failure_log is None:
            failure_log = FailureLog()
        self.failure_log = failure_log
        if store.failure_log is None:
            store.failure_log = self.failure_log
        self.breaker = breaker or CircuitBreaker(
            failure_log=self.failure_log
        )
        if self.breaker.failure_log is None:
            self.breaker.failure_log = self.failure_log
        #: resident contexts, insertion order = LRU order (oldest first).
        self._contexts: dict[tuple, object] = {}
        #: per-key lock serializing context creation and pool access.
        self._locks: dict[tuple, asyncio.Lock] = {}
        #: single-flight map: scenario hash → refcounted entry.
        self._inflight: dict[str, _Inflight] = {}
        #: hot result cache, insertion order = LRU order (oldest first).
        self._hot: dict[str, object] = {}
        #: background chain-evaluation tasks (drained in aclose).
        self._chain_tasks: set[asyncio.Task] = set()
        #: unique scenarios admitted and not yet finished.
        self._eval_load = 0
        #: monotonically increasing store-call index (fault coordinates).
        self._store_ops = 0
        #: recent per-scenario evaluation seconds (Retry-After estimate).
        self._recent_eval_s: list[float] = []
        #: evaluation threads — per-key locks serialize same-context
        #: work, so width only matters across distinct topologies (+2
        #: so store calls never queue behind long evaluations).
        self.executor = ThreadPoolExecutor(
            max_workers=max(4, max_contexts + 2),
            thread_name_prefix="repro-service",
        )
        self.jobs = JobManager(self)
        self.started_at = time.time()
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evaluations = 0
        self.shed = 0
        self.deadline_timeouts = 0
        self.chains_cancelled = 0
        self._closed = False

    # -- hot cache ------------------------------------------------------
    def _hot_get(self, scenario_hash: str):
        result = self._hot.pop(scenario_hash, None)
        if result is not None:
            self._hot[scenario_hash] = result  # re-insert at MRU
        return result

    def _hot_put(self, scenario_hash: str, result) -> None:
        self._hot.pop(scenario_hash, None)
        self._hot[scenario_hash] = result
        while len(self._hot) > DEFAULT_HOT_CACHE:
            self._hot.pop(next(iter(self._hot)))

    # -- breaker-guarded store access ----------------------------------
    async def _store_call(self, what: str, fn, *args):
        """Run one store operation in the executor behind the breaker.

        Raises :class:`HTTPError` 503 (with breaker state and
        ``Retry-After``) when the breaker refuses the call, and
        :class:`StoreUnavailable` when the call itself fails — the
        failure is counted toward tripping the breaker either way.
        Never blocks the event loop on sqlite.
        """
        if not self.breaker.allow():
            raise HTTPError(
                503,
                f"store circuit breaker is open ({what} refused); warm "
                "cached scenarios still serve",
                headers={"Retry-After": str(self.breaker.retry_after())},
                extra={"breaker": self.breaker.payload()},
            )
        op_index = self._store_ops
        self._store_ops += 1
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self.executor,
                functools.partial(_guarded_store_op, op_index, fn, *args),
            )
        except (sqlite3.Error, OSError) as exc:
            self.failure_log.record(
                "store_call_failed",
                detail=f"{what}: {type(exc).__name__}: {exc}",
            )
            self.breaker.failure(f"{what}: {exc}")
            raise StoreUnavailable(f"{what}: {exc}") from exc
        self.breaker.success()
        return result

    async def _lookup(self, scenario_hash: str):
        """Breaker-guarded ``store.get``; a *failing* store degrades to
        a miss (we can still evaluate), an *open breaker* raises 503."""
        try:
            return await self._store_call(
                "get", self.store.get, scenario_hash
            )
        except StoreUnavailable:
            return None

    async def _persist(self, request: EvalRequest, result) -> bool:
        """Best-effort persist of a fresh result; the hot cache already
        holds it, so a failed put degrades durability, not service."""
        try:
            await self._store_call("put", self.store.put, request, result)
            return True
        except (StoreUnavailable, HTTPError):
            self.failure_log.record(
                "result_not_persisted",
                detail=(
                    f"scenario {request.scenario_hash} evaluated but not "
                    "persisted (store unavailable); serving from memory"
                ),
                scenario=request.scenario_hash,
            )
            return False

    # -- resident contexts --------------------------------------------
    def _lock_for(self, key: tuple) -> asyncio.Lock:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    async def context_for(self, scale: str, seed: int, ixp: bool):
        """The resident (context, lock) for a topology, building on miss.

        Holds the key's lock during construction so concurrent requests
        for the same topology build it once; marks the key
        most-recently-used and evicts the coldest unlocked context when
        over :attr:`max_contexts`.
        """
        if self._closed:
            raise HTTPError(503, "service is shutting down")
        key = (scale, seed, bool(ixp))
        lock = self._lock_for(key)
        ectx = self._contexts.pop(key, None)
        if ectx is None:
            async with lock:
                ectx = self._contexts.pop(key, None)
                if ectx is None:
                    kwargs = dict(
                        scale=scale,
                        seed=seed,
                        ixp=ixp,
                        processes=self.processes,
                        failure_log=self.failure_log,
                    )
                    if self.attack is not None:
                        kwargs["attack"] = self.attack
                    ectx = await asyncio.get_running_loop().run_in_executor(
                        self.executor, lambda: make_context(**kwargs)
                    )
        self._contexts[key] = ectx  # (re)insert at MRU position
        await self._evict(keep=key)
        return ectx, lock

    @contextlib.asynccontextmanager
    async def resident(self, scale: str, seed: int, ixp: bool):
        """The resident context of a topology (:meth:`context_for`),
        its lock held for the block.  Another request's eviction can
        close the context between the lookup and the lock, and a closed
        context holds no topology: then it looks the key up again."""
        while True:
            ectx, lock = await self.context_for(scale, seed, ixp)
            async with lock:
                if not ectx.closed:
                    yield ectx
                    return

    async def _evict(self, keep: tuple | None = None) -> None:
        """Close least-recently-used contexts beyond the cap (skipping
        any whose pool is mid-evaluation, and ``keep``, the one being
        handed out).  Each closes under its key's lock, so a request
        that looked it up before finds it closed (:meth:`resident`),
        never half closed."""
        evictable = [
            key
            for key in self._contexts
            if key != keep and not self._lock_for(key).locked()
        ]
        excess = len(self._contexts) - self.max_contexts
        for key in evictable[:max(0, excess)]:
            ectx = self._contexts.pop(key, None)
            if ectx is None:  # evicted meanwhile by another request
                continue
            async with self._lock_for(key):
                await asyncio.get_running_loop().run_in_executor(
                    self.executor, ectx.close
                )

    # -- admission ------------------------------------------------------
    def _retry_after_s(self) -> int:
        """Retry-After estimate from recent per-scenario eval times."""
        if self._recent_eval_s:
            window = sorted(self._recent_eval_s)
            per_scenario = window[len(window) // 2]
        else:
            per_scenario = 1.0
        return max(1, min(60, math.ceil(per_scenario)))

    @property
    def saturated(self) -> bool:
        return self._eval_load >= self.max_inflight

    async def _admit(
        self, requests: list[EvalRequest], deadline_ms: int | None
    ) -> _Resolution:
        """Classify a batch and claim evaluation budget *eagerly* —
        before any response bytes — so saturation and breaker-open are
        real 429/503 statuses, not mid-stream surprises.

        Order per unique hash: hot cache → coalesce onto in-flight →
        breaker-guarded store lookup → cold.  Cold scenarios must fit
        the remaining evaluation budget or the whole request is shed
        with 429 (its cached portion will serve on retry); admitted
        colds are claimed in the single-flight map and handed to
        background chain tasks.
        """
        if self._closed:
            raise HTTPError(503, "service is shutting down")
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        loop = asyncio.get_running_loop()
        deadline_at = (
            None if deadline_ms is None else loop.time() + deadline_ms / 1000
        )
        unique: dict[str, EvalRequest] = {}
        for request in requests:
            unique.setdefault(request.scenario_hash, request)
        res = _Resolution(unique, deadline_ms, deadline_at)
        try:
            pending: list[EvalRequest] = []
            for scenario_hash, request in unique.items():
                hot = self._hot_get(scenario_hash)
                if hot is not None:
                    self.hits += 1
                    res.cached[scenario_hash] = hot
                    continue
                entry = self._inflight.get(scenario_hash)
                if entry is not None:
                    self.coalesced += 1
                    res.attach(entry)
                    res.coalesced.append(scenario_hash)
                    continue
                hit = await self._lookup(scenario_hash)
                if hit is not None:
                    self.hits += 1
                    self._hot_put(scenario_hash, hit)
                    res.cached[scenario_hash] = hit
                    continue
                pending.append(request)
            # The store lookups above awaited the executor, so another
            # request may have claimed one of these hashes meanwhile:
            # re-check the map before claiming budget.
            cold: list[EvalRequest] = []
            for request in pending:
                entry = self._inflight.get(request.scenario_hash)
                if entry is not None:
                    self.coalesced += 1
                    res.attach(entry)
                    res.coalesced.append(request.scenario_hash)
                else:
                    self.misses += 1
                    cold.append(request)
            if cold:
                if self._eval_load + len(cold) > self.max_inflight:
                    self.shed += 1
                    raise HTTPError(
                        429,
                        f"evaluation budget saturated "
                        f"({self._eval_load}/{self.max_inflight} scenarios "
                        f"in flight, {len(cold)} more requested); retry "
                        "after the window — cached scenarios still serve",
                        headers={"Retry-After": str(self._retry_after_s())},
                        extra={
                            "admission": {
                                "inflight": self._eval_load,
                                "max_inflight": self.max_inflight,
                                "requested": len(cold),
                            }
                        },
                    )
                self._eval_load += len(cold)
                for request in cold:
                    entry = _Inflight(
                        request.scenario_hash, loop.create_future()
                    )
                    self._inflight[request.scenario_hash] = entry
                    res.attach(entry)
                res.chains = detect_chains(cold)
                for chain in res.chains:
                    task = loop.create_task(self._evaluate_chain(chain))
                    self._chain_tasks.add(task)
                    task.add_done_callback(self._chain_tasks.discard)
        except BaseException:
            res.release()
            raise
        return res

    # -- the evaluation path ------------------------------------------
    def _abandon_chain(self, chain: list[EvalRequest], why: str) -> None:
        """Drop a chain whose waiters all detached before it ran."""
        self.chains_cancelled += 1
        self.failure_log.record(
            "chain_cancelled",
            detail=f"{len(chain)}-step chain abandoned: {why}",
            scenario=chain[0].scenario_hash,
        )
        marker = _EvalError(f"cancelled: {why}")
        for request in chain:
            entry = self._inflight.pop(request.scenario_hash, None)
            if entry is not None and not entry.future.done():
                entry.future.set_result(marker)

    async def _evaluate_chain(self, chain: list[EvalRequest]) -> None:
        """Own one chain end to end: evaluate on the resident context,
        hot-cache + persist each step, resolve the single-flight
        futures.  Every exit path resolves and evicts every entry (the
        single-flight map cannot leak) and returns the chain's share of
        the evaluation budget.
        """
        entries = [self._inflight.get(r.scenario_hash) for r in chain]

        def wanted() -> bool:
            return any(
                e is not None and e.waiters > 0 for e in entries
            )

        loop = asyncio.get_running_loop()
        try:
            first = chain[0]
            async with self.resident(first.scale, first.seed, first.ixp) as ectx:
                if not wanted():
                    # Every waiter detached (deadline or disconnect)
                    # while we queued for the context: the work is
                    # unwanted, drop it before paying for it.
                    self._abandon_chain(chain, "every waiter detached")
                    return
                started = loop.time()
                results = await loop.run_in_executor(
                    self.executor,
                    functools.partial(
                        evaluate_requests,
                        ectx,
                        list(chain),
                        None,
                        lambda: not wanted(),
                    ),
                )
                self._recent_eval_s.append(
                    max(0.001, (loop.time() - started) / len(chain))
                )
                del self._recent_eval_s[:-_EVAL_WINDOW]
            self.evaluations += len(chain)
            for request in chain:
                result = (
                    results.for_request(request)
                    if request in results
                    else None  # scenario lost despite degradation
                )
                if result is not None:
                    self._hot_put(request.scenario_hash, result)
                    await self._persist(request, result)
                entry = self._inflight.pop(request.scenario_hash, None)
                if entry is not None and not entry.future.done():
                    entry.future.set_result(result)
        except EvaluationCancelled as exc:
            self._abandon_chain(chain, str(exc))
        except Exception as exc:  # noqa: BLE001 - single-flight boundary
            # A raising evaluation must wake its waiters with the error
            # and evict the entries — never strand them on a dead
            # future.
            self.failure_log.record(
                "chain_failed",
                detail=f"{type(exc).__name__}: {exc}",
                scenario=chain[0].scenario_hash,
            )
            marker = _EvalError(f"{type(exc).__name__}: {exc}")
            for request in chain:
                entry = self._inflight.pop(request.scenario_hash, None)
                if entry is not None and not entry.future.done():
                    entry.future.set_result(marker)
        finally:
            for request in chain:
                entry = self._inflight.pop(request.scenario_hash, None)
                if entry is not None and not entry.future.done():
                    entry.future.set_result(
                        _EvalError("evaluation ended without a result")
                    )
            self._eval_load -= len(chain)

    async def _await_result(self, res: _Resolution, scenario_hash: str):
        """Wait for one attached entry within the request's deadline.

        The shield matters: ``wait_for`` cancels its awaitable on
        timeout, and the future is *shared* — a timed-out waiter must
        detach without killing the evaluation other waiters ride on.
        """
        future = res.attached[scenario_hash].future
        if res.deadline_at is None:
            return await asyncio.shield(future)
        remaining = res.deadline_at - asyncio.get_running_loop().time()
        if remaining > 0:
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), remaining
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass
        self.deadline_timeouts += 1
        self.failure_log.record(
            "deadline_exceeded",
            detail=(
                f"waiter detached after {res.deadline_ms}ms "
                f"(scenario {scenario_hash})"
            ),
            scenario=scenario_hash,
        )
        raise HTTPError(
            503,
            f"deadline of {res.deadline_ms}ms exceeded waiting for "
            f"scenario {scenario_hash}; this waiter detached (the "
            "evaluation continues only while other waiters remain)",
            headers={"Retry-After": str(self._retry_after_s())},
            extra={"deadline_ms": res.deadline_ms},
        )

    def _value_event(
        self, request: EvalRequest, value, **kwargs
    ) -> dict:
        if isinstance(value, _EvalError):
            return result_event(
                request, None, error=value.message, **kwargs
            )
        return result_event(request, value, **kwargs)

    async def _events(self, res: _Resolution):
        """Async-iterate per-scenario events for an admitted batch.

        Yields a ``plan`` event, then one ``result`` event per unique
        scenario — cached ones immediately, then chain-by-chain as the
        pool finishes, then coalesced waits on evaluations other
        requests own — and finally a ``done`` event.  Both the batch
        and streaming endpoints consume this; streaming writes each
        event as its own chunk.  However iteration ends — completion,
        deadline, client disconnect — the resolution detaches from its
        single-flight entries.
        """
        try:
            yield {
                "event": "plan",
                "scenarios": len(res.unique),
                "cached": len(res.cached),
                "coalesced": len(res.coalesced),
                "chains": len(res.chains),
            }
            for scenario_hash, result in res.cached.items():
                yield result_event(
                    res.unique[scenario_hash],
                    result,
                    step=0,
                    steps=1,
                    cached=True,
                )
            for chain in res.chains:
                for step, request in enumerate(chain):
                    value = await self._await_result(
                        res, request.scenario_hash
                    )
                    yield self._value_event(
                        request,
                        value,
                        step=step,
                        steps=len(chain),
                        cached=False,
                    )
            for scenario_hash in res.coalesced:
                value = await self._await_result(res, scenario_hash)
                yield self._value_event(
                    res.unique[scenario_hash],
                    value,
                    step=0,
                    steps=1,
                    cached=False,
                    coalesced=True,
                )
            yield {"event": "done", "scenarios": len(res.unique)}
        finally:
            res.release()

    # -- handlers ------------------------------------------------------
    async def handle_metrics(self, request: Request):
        requests, stream, deadline_ms = parse_metrics_body(request.json())
        res = await self._admit(requests, deadline_ms)
        if stream:
            return _EventStream(self._events(res), res.release)
        events = [event async for event in self._events(res)]
        results = {
            event["hash"]: event
            for event in events
            if event.get("event") == "result"
        }
        failed = sum(1 for event in results.values() if not event["ok"])
        return Response(
            {
                "results": [results[r.scenario_hash] for r in requests],
                "failed": failed,
            }
        )

    async def handle_scenario(self, request: Request) -> Response:
        try:
            record = await self._store_call(
                "raw_record", self.store.raw_record, request.params["hash"]
            )
        except StoreUnavailable as exc:
            raise HTTPError(
                503,
                f"store unavailable: {exc}",
                headers={"Retry-After": "1"},
                extra={"breaker": self.breaker.payload()},
            ) from exc
        if record is None:
            raise HTTPError(
                404, f"no result for scenario {request.params['hash']!r}"
            )
        return Response(scenario_payload(record))

    async def handle_experiments(self, request: Request) -> Response:
        return Response(
            {
                "experiments": [
                    experiment_payload(spec)
                    for spec in all_experiments().values()
                ],
                "jobs": [job.payload() for job in self.jobs.all()],
            }
        )

    async def handle_run(self, request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict):
            raise HTTPError(400, "body must be a JSON object")
        scale = body.get("scale", self.default_scale)
        seed = body.get("seed", self.default_seed)
        ixp = body.get("ixp", False)
        if not isinstance(scale, str) or scale not in SCALES:
            known = ", ".join(sorted(SCALES))
            raise HTTPError(400, f"unknown scale {scale!r} (known: {known})")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise HTTPError(400, "seed must be an integer")
        if not isinstance(ixp, bool):
            raise HTTPError(400, "ixp must be true or false")
        job = self.jobs.submit(
            request.params["id"], scale=scale, seed=seed, ixp=ixp
        )
        return Response(job.payload(), status=202)

    async def handle_job(self, request: Request) -> Response:
        job = self.jobs.get(request.params["id"])
        return Response(job.payload(full=True))

    async def handle_job_cancel(self, request: Request) -> Response:
        job = self.jobs.cancel(request.params["id"])
        return Response(job.payload(full=True), status=202)

    async def handle_healthz(self, request: Request) -> Response:
        """Liveness: the event loop answers.  Always 200 — a saturated
        or breaker-open service is *busy*, not dead, and supervisors
        must not kill it (readiness is ``/v1/readyz``)."""
        return Response(
            {
                "status": "ok",
                "uptime_s": round(time.time() - self.started_at, 3),
            }
        )

    async def handle_readyz(self, request: Request) -> Response:
        """Readiness: whether *new* work would be admitted right now.

        503 while the breaker is open or admission is saturated, so
        load balancers steer cold traffic away; existing cached hashes
        still serve either way (and liveness stays 200)."""
        blockers = []
        if self.breaker.state == "open":
            blockers.append("store breaker open")
        if self.saturated:
            blockers.append(
                f"admission saturated "
                f"({self._eval_load}/{self.max_inflight})"
            )
        if self._closed:
            blockers.append("shutting down")
        payload = {
            "status": "ready" if not blockers else "unready",
            "blockers": blockers,
            "admission": {
                "inflight": self._eval_load,
                "max_inflight": self.max_inflight,
            },
            "breaker": self.breaker.payload(),
        }
        if not blockers:
            return Response(payload)
        return Response(
            payload,
            status=503,
            headers={"Retry-After": str(self.breaker.retry_after())},
        )

    async def handle_stats(self, request: Request) -> Response:
        lookups = self.hits + self.misses + self.coalesced
        incidents: dict[str, int] = {}
        for incident in self.failure_log:
            incidents[incident.kind] = incidents.get(incident.kind, 0) + 1
        try:
            records = await self._store_call("len", self.store.__len__)
        except (StoreUnavailable, HTTPError):
            records = None  # sick store: stats must still answer
        return Response(
            {
                "cache": {
                    "hits": self.hits,
                    "misses": self.misses,
                    "coalesced": self.coalesced,
                    "hit_rate": (
                        round(self.hits / lookups, 4) if lookups else None
                    ),
                    "hot_entries": len(self._hot),
                },
                "store": {
                    "backend": type(self.store).__name__,
                    "records": records,
                },
                "contexts": {
                    "resident": [
                        {"scale": scale, "seed": seed, "ixp": ixp}
                        for scale, seed, ixp in self._contexts
                    ],
                    "max": self.max_contexts,
                },
                "evaluations": self.evaluations,
                "inflight": len(self._inflight),
                "admission": {
                    "inflight": self._eval_load,
                    "max_inflight": self.max_inflight,
                    "shed": self.shed,
                    "saturated": self.saturated,
                },
                "breaker": self.breaker.payload(),
                "deadlines": {
                    "default_ms": self.default_deadline_ms,
                    "timeouts": self.deadline_timeouts,
                },
                "chains_cancelled": self.chains_cancelled,
                "jobs": {
                    "total": len(self.jobs.all()),
                    "running": sum(
                        1
                        for job in self.jobs.all()
                        if job.state in ("pending", "running")
                    ),
                },
                "incidents": {
                    "total": len(self.failure_log),
                    "by_kind": incidents,
                },
            }
        )

    # -- wiring --------------------------------------------------------
    def router(self) -> Router:
        router = Router()
        router.add("POST", "/v1/metrics", self.handle_metrics)
        router.add("GET", "/v1/scenarios/{hash}", self.handle_scenario)
        router.add("GET", "/v1/experiments", self.handle_experiments)
        router.add("POST", "/v1/experiments/{id}/run", self.handle_run)
        router.add("GET", "/v1/jobs/{id}", self.handle_job)
        router.add("DELETE", "/v1/jobs/{id}", self.handle_job_cancel)
        router.add("GET", "/v1/healthz", self.handle_healthz)
        router.add("GET", "/v1/readyz", self.handle_readyz)
        router.add("GET", "/v1/stats", self.handle_stats)
        return router

    async def aclose(self) -> None:
        """Graceful shutdown: drain jobs and chain tasks, close
        contexts (terminating their pools), release the executor.

        The store stays open — the caller that opened it closes it.
        """
        if self._closed:
            return
        self._closed = True
        await self.jobs.drain()
        if self._chain_tasks:
            await asyncio.gather(
                *list(self._chain_tasks), return_exceptions=True
            )
        loop = asyncio.get_running_loop()
        while self._contexts:
            _key, ectx = self._contexts.popitem()
            await loop.run_in_executor(self.executor, ectx.close)
        self.executor.shutdown(wait=True)


def _guarded_store_op(op_index: int, fn, *args):
    """Executor-side store call: fire any armed service store fault
    (``slow_store`` sleeps, ``store_error`` raises) then run the op."""
    plan = active_plan()
    if plan is not None:
        plan.fire_store(op_index)
    return fn(*args)


def create_server(
    service: Service,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    keep_alive_timeout: float | None = DEFAULT_KEEP_ALIVE_TIMEOUT,
) -> HTTPServer:
    """An (unstarted) HTTP server bound to the service's routes."""
    return HTTPServer(
        service.router(),
        host=host,
        port=port,
        keep_alive_timeout=keep_alive_timeout,
    )


async def serve(
    service: Service,
    host: str = "127.0.0.1",
    port: int = 8642,
    *,
    shutdown: asyncio.Event | None = None,
    on_ready=None,
    keep_alive_timeout: float | None = DEFAULT_KEEP_ALIVE_TIMEOUT,
) -> None:
    """Run the service until ``shutdown`` is set (or forever).

    The CLI's signal handlers set ``shutdown``; tests set it directly.
    ``on_ready(server)`` fires after the port is bound — with port 0 the
    server object then carries the ephemeral port actually chosen.
    """
    server = create_server(
        service, host=host, port=port, keep_alive_timeout=keep_alive_timeout
    )
    await server.start()
    if on_ready is not None:
        on_ready(server)
    try:
        if shutdown is None:  # pragma: no cover - CLI always passes one
            await asyncio.Event().wait()
        else:
            await shutdown.wait()
    finally:
        await server.stop()
        await service.aclose()
