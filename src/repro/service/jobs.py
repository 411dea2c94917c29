"""Job semantics for experiment runs over HTTP.

``POST /v1/experiments/{id}/run`` cannot block the connection for a
whole figure reproduction, so runs are *jobs*: submitted 202, executed
on the service's resident context for the requested topology, and
polled via ``GET /v1/jobs/{id}``.  Each job snapshots the
:class:`~repro.experiments.failures.FailureLog` length around its run,
so the incidents *this* run produced — worker crashes the supervised
pool absorbed, scenarios lost past retry — surface on the job itself
rather than hiding in a server log.

Jobs are **durable**: every state transition is written through the
service's ResultStore backend as a record under the reserved
``job:{id}`` hash namespace (which cannot collide with scenario hashes
— those are hex), so ``GET /v1/jobs/{id}`` answers across a service
restart.  Jobs found mid-flight at startup are marked failed
("interrupted by service restart") rather than silently vanishing.

Jobs are **cancellable**: ``DELETE /v1/jobs/{id}`` requests
cooperative cancellation, which the scheduler honors *between* rollout
chains — the in-flight SupervisedPool shard always finishes its chain,
so the pool unwinds cleanly and everything evaluated so far stays
persisted.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from dataclasses import dataclass, field

from ..experiments.failures import EvaluationCancelled
from ..experiments.registry import ExperimentResult, get_experiment
from ..experiments.runner import run_experiment
from ..experiments.store import build_record
from .http import HTTPError

#: Allowed job states, in lifecycle order (``cancelled`` and ``failed``
#: are both terminal alternatives to ``done``).
JOB_STATES = ("pending", "running", "done", "failed", "cancelled")

#: The states a job can still be cancelled from.
CANCELLABLE_STATES = ("pending", "running")

#: Store-hash namespace for durable job records.
JOB_HASH_PREFIX = "job:"


@dataclass
class Job:
    """One submitted experiment run."""

    id: str
    experiment_id: str
    scale: str
    seed: int
    ixp: bool
    state: str = "pending"
    error: str = ""
    #: incidents recorded in the shared FailureLog while this job ran.
    incidents: list[str] = field(default_factory=list)
    result: ExperimentResult | None = None
    #: the persisted ``result`` payload of a restored job (the live
    #: ExperimentResult does not survive a restart; its JSON shape does).
    restored_result: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    cancel_requested: bool = False
    #: polled by the scheduler between chains (thread-safe: the run
    #: executes in the service executor).
    _cancel: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def payload(self, *, full: bool = False) -> dict:
        """The JSON shape; ``full`` adds rows/text of a finished run."""
        payload = {
            "id": self.id,
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "seed": self.seed,
            "ixp": self.ixp,
            "state": self.state,
            "incidents": list(self.incidents),
            "submitted_at": round(self.submitted_at, 3),
        }
        if self.cancel_requested:
            payload["cancel_requested"] = True
        if self.error:
            payload["error"] = self.error
        if self.finished_at is not None:
            payload["elapsed_s"] = round(
                self.finished_at - self.submitted_at, 3
            )
        if full:
            if self.result is not None:
                payload["result"] = {
                    "title": self.result.title,
                    "paper_reference": self.result.paper_reference,
                    "rows": self.result.rows,
                    "text": self.result.text,
                }
            elif self.restored_result is not None:
                payload["result"] = self.restored_result
        return payload

    def record(self) -> dict:
        """The durable store record for this job's current state."""
        record, _line = build_record(
            f"{JOB_HASH_PREFIX}{self.id}",
            {
                "kind": "job",
                "experiment_id": self.experiment_id,
                "scale": self.scale,
                "seed": self.seed,
                "ixp": self.ixp,
            },
            self.payload(full=True),
        )
        return record


class JobManager:
    """Submit, track, cancel and drain experiment jobs for one service.

    On construction the store's ``job:`` namespace is replayed so job
    history survives restarts; jobs that were pending/running when the
    previous process died are marked failed with an explanatory error.
    """

    def __init__(self, service):
        self._service = service
        self._jobs: dict[str, Job] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._next_id = 0
        self._restore()

    def _restore(self) -> None:
        """Rebuild job history from the store (best effort: a sick
        store at boot degrades to an empty history, not a dead boot)."""
        store = self._service.store
        log = self._service.failure_log
        try:
            job_hashes = sorted(
                h for h in store.hashes()
                if h.startswith(JOB_HASH_PREFIX)
            )
            for job_hash in job_hashes:
                record = store.raw_record(job_hash)
                if record is None:
                    continue
                job = self._from_record(record)
                if job is None:
                    continue
                self._jobs[job.id] = job
                suffix = job.id.rsplit("-", 1)[-1]
                if suffix.isdigit():
                    self._next_id = max(self._next_id, int(suffix))
                if job.state in CANCELLABLE_STATES:
                    # Found mid-flight: the previous process died under
                    # it.  Terminal-ize rather than pretend it runs.
                    job.state = "failed"
                    job.error = "interrupted by service restart"
                    job.finished_at = time.time()
                    log.record(
                        "job_interrupted",
                        detail=(
                            f"{job.id} ({job.experiment_id}) was "
                            f"{record['result'].get('state')} at restart"
                        ),
                    )
                    store.put_record(job.record())
        except Exception as exc:  # noqa: BLE001 - boot must survive this
            log.record(
                "job_restore_failed",
                detail=f"{type(exc).__name__}: {exc}",
            )

    @staticmethod
    def _from_record(record: dict) -> Job | None:
        payload = record.get("result")
        if not isinstance(payload, dict) or "id" not in payload:
            return None
        submitted_at = float(payload.get("submitted_at") or time.time())
        finished_at = None
        if "elapsed_s" in payload:
            finished_at = submitted_at + float(payload["elapsed_s"])
        return Job(
            id=str(payload["id"]),
            experiment_id=str(payload.get("experiment_id", "")),
            scale=str(payload.get("scale", "")),
            seed=int(payload.get("seed", 0)),
            ixp=bool(payload.get("ixp", False)),
            state=str(payload.get("state", "failed")),
            error=str(payload.get("error", "")),
            incidents=list(payload.get("incidents", ())),
            restored_result=payload.get("result"),
            submitted_at=submitted_at,
            finished_at=finished_at,
            cancel_requested=bool(payload.get("cancel_requested", False)),
        )

    def submit(
        self, experiment_id: str, scale: str, seed: int, ixp: bool
    ) -> Job:
        """Validate and enqueue one run; returns the pending job."""
        try:
            get_experiment(experiment_id)
        except KeyError as exc:
            raise HTTPError(404, str(exc)) from exc
        self._next_id += 1
        job = Job(
            id=f"job-{self._next_id:04d}",
            experiment_id=experiment_id,
            scale=scale,
            seed=seed,
            ixp=ixp,
        )
        self._jobs[job.id] = job
        self._tasks[job.id] = asyncio.get_running_loop().create_task(
            self._run(job)
        )
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise HTTPError(404, f"unknown job {job_id!r}") from None

    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation of a live job (409 when it
        already reached a terminal state)."""
        job = self.get(job_id)
        if job.state not in CANCELLABLE_STATES:
            raise HTTPError(
                409, f"job {job_id!r} is already {job.state}"
            )
        job.cancel_requested = True
        job._cancel.set()
        return job

    def all(self) -> list[Job]:
        return list(self._jobs.values())

    async def drain(self) -> None:
        """Wait for every submitted job to finish (shutdown path)."""
        tasks = list(self._tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    async def _persist(self, job: Job) -> None:
        """Write the job's current state through the breaker-guarded
        store path; durability degrades under a sick store, the job
        itself keeps running."""
        from .app import StoreUnavailable  # local: avoid import cycle

        try:
            await self._service._store_call(
                "put_record", self._service.store.put_record, job.record()
            )
        except (StoreUnavailable, HTTPError):
            self._service.failure_log.record(
                "job_not_persisted",
                detail=f"{job.id}: state {job.state!r} not durable "
                "(store unavailable)",
            )

    async def _run(self, job: Job) -> None:
        service = self._service
        log = service.failure_log
        before = len(log)
        await self._persist(job)  # durable from the moment it exists
        try:
            if job._cancel.is_set():
                raise EvaluationCancelled("cancelled before start")
            async with service.resident(job.scale, job.seed, job.ixp) as ectx:
                if job._cancel.is_set():
                    raise EvaluationCancelled("cancelled before start")
                job.state = "running"
                job.result = await asyncio.get_running_loop().run_in_executor(
                    service.executor,
                    functools.partial(
                        run_experiment,
                        ectx,
                        job.experiment_id,
                        service.store,
                        cancel=job._cancel.is_set,
                    ),
                )
            job.state = "done"
        except EvaluationCancelled as exc:
            job.state = "cancelled"
            job.error = str(exc)
            log.record(
                "job_cancelled",
                detail=f"{job.id} ({job.experiment_id}): {exc}",
            )
        except Exception as exc:  # noqa: BLE001 - job boundary: surface it
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            log.record(
                "job_failed", detail=f"{job.id} ({job.experiment_id}): {exc}"
            )
        finally:
            job.finished_at = time.time()
            job.incidents = [
                incident.render()
                for incident in list(log)[before:]
            ]
            self._tasks.pop(job.id, None)
            await self._persist(job)
