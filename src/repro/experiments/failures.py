"""Structured failure audit trail for the evaluation plane.

Production BGP tooling keeps an explicit record of every external
interaction that went wrong (timeouts, dead peers, truncated files)
instead of letting one failure kill the run; the evaluation plane does
the same.  Every recoverable incident — a crashed or hung fork worker,
a shard retried or degraded to serial, a torn store tail truncated, a
scenario that exhausted its retries — is recorded as one
:class:`Incident` in the run's :class:`FailureLog`.  The CLI renders
the log after each run and turns *unrecovered* scenario failures into a
nonzero exit code; everything else is audit trail.

The log is deliberately dumb: an append-only in-memory list with an
optional JSONL sink, no levels, no filtering.  Whether an incident is
fatal is the caller's decision (``scenario_failed`` is; everything else
was already recovered by the supervisor when it was recorded).
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator

#: Incident kinds that mean a scenario was *lost* (retries and the
#: serial fallback both failed); any of these makes a CLI run exit
#: nonzero.  Everything else in a log was recovered.
FATAL_KINDS = frozenset({"scenario_failed"})


class EvaluationFailure(RuntimeError):
    """A shard failed its retries *and* the in-process serial fallback.

    Raised by the supervised pool as the end of the graceful-degradation
    ladder; the scheduler catches it per scenario, records a
    ``scenario_failed`` incident, and carries on with the remaining
    scenarios instead of unwinding the whole run.
    """


class EvaluationCancelled(RuntimeError):
    """A cooperative-cancellation request stopped an evaluation early.

    Raised by the scheduler between rollout chains when the caller's
    ``cancel`` callable turns true (a deleted service job, a waiterless
    single-flight entry).  Everything evaluated before the check was
    already persisted; nothing is torn down mid-chain, so the store
    stays consistent and the supervised pool unwinds cleanly.
    """


@dataclass(frozen=True)
class Incident:
    """One recorded failure event (see :data:`FATAL_KINDS` for which
    kinds are fatal; all others were recovered when recorded)."""

    kind: str
    detail: str = ""
    #: scenario hash, for incidents attributable to one scenario.
    scenario: str | None = None
    #: supervised-pool shard sequence number, for worker incidents.
    shard: int | None = None
    attempt: int | None = None
    worker_pid: int | None = None
    #: seconds the failed operation ran before the incident, if known.
    elapsed: float | None = None
    #: wall-clock time the incident was recorded (``time.time()``).
    timestamp: float = 0.0

    def render(self) -> str:
        coords = [
            f"{name}={value}"
            for name, value in (
                ("scenario", self.scenario),
                ("shard", self.shard),
                ("attempt", self.attempt),
                ("pid", self.worker_pid),
            )
            if value is not None
        ]
        if self.elapsed is not None:
            coords.append(f"after {self.elapsed:.1f}s")
        tail = f" [{', '.join(coords)}]" if coords else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"{self.kind}{tail}{detail}"


class FailureLog:
    """Append-only incident log shared by the whole evaluation plane.

    One log is threaded through the experiment context, the supervised
    pool, the result store and the shared-memory reclaimer, so a run's
    entire failure history lives in one place.  Thread-safe (the
    supervisor and store can record from ``finally`` paths); optionally
    mirrored to a JSONL file as a durable audit trail.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._incidents: list[Incident] = []
        self._lock = threading.Lock()

    def record(self, kind: str, detail: str = "", **fields) -> Incident:
        """Append one incident (and mirror it to the JSONL sink)."""
        incident = Incident(
            kind=kind, detail=detail, timestamp=time.time(), **fields
        )
        with self._lock:
            self._incidents.append(incident)
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(
                        json.dumps(asdict(incident), sort_keys=True) + "\n"
                    )
        return incident

    # -- views ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._incidents)

    def __iter__(self) -> Iterator[Incident]:
        return iter(list(self._incidents))

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self._incidents)
        return sum(1 for i in self._incidents if i.kind == kind)

    def kinds(self) -> frozenset[str]:
        return frozenset(i.kind for i in self._incidents)

    def of_kind(self, kind: str) -> list[Incident]:
        return [i for i in self._incidents if i.kind == kind]

    def scenario_failures(self) -> list[Incident]:
        """The fatal incidents: scenarios lost despite degradation."""
        return [i for i in self._incidents if i.kind in FATAL_KINDS]

    def summary(self) -> str:
        """Human-readable one-line-per-incident rendering."""
        if not self._incidents:
            return "no incidents"
        lines = [f"{len(self._incidents)} incident(s):"]
        lines += [f"  - {incident.render()}" for incident in self._incidents]
        return "\n".join(lines)
