"""Deterministic fault injection for the evaluation plane.

The fault-tolerance layer (supervised pool, durable store) is only
trustworthy if its failure paths are *provably* exercised, so this
module injects faults at seeded, reproducible points instead of relying
on chance:

* ``worker_kill`` — the fork worker handling shard ``j`` SIGKILLs
  itself (the segfault / OOM-killer case: no cleanup, no goodbye);
* ``worker_hang`` — the worker sleeps past its shard deadline (the
  wedged-worker case);
* ``worker_oom`` — the worker raises :class:`MemoryError` (allocation
  failure with the worker still alive to report it);
* ``eval_error`` — the evaluation itself raises, in workers *and* in
  the in-process serial fallback (the unrecoverable-scenario case that
  exercises the CLI's nonzero-exit contract);
* ``torn_write`` — the store writes only a prefix of record ``k``'s
  line, simulating a crash mid-``put`` (the torn-tail-recovery case);
* ``slow_store`` — the service's store call sleeps ``seconds`` before
  proceeding (the lock-convoy / saturated-disk case: the operation
  succeeds, late);
* ``store_error`` — the service's store call raises :class:`OSError`
  (the sick-sqlite case that trips the service circuit breaker);
* ``client_disconnect`` — the HTTP server aborts the client transport
  after streaming chunk ``chunk`` (the vanished-reader case that must
  tear down orphaned chain work).

A :class:`FaultPlan` is a list of :class:`Fault` coordinates.  Worker
faults address shards by the supervised pool's *dispatch sequence
number* (assigned in submission order over the pool's lifetime, so
deterministic run to run) and optionally by retry ``attempt`` (``None``
fires on every attempt — that is how max-retries degradation is
forced).  On the evaluation path a sequence number is a *bin* of the
scheduler's one pass per batch
(:func:`repro.experiments.scenarios.cut_bins`): parts of one or more
chains, so a fault that outlasts the retries and the in-process
fallback fails every chain with a part in that bin, and those only.
Store faults address ``put`` calls by index.

Plans are armed through the :data:`ENV_VAR` environment variable
(JSON), so fork workers inherit the plan for free, or through the CLI's
``--fault-plan``.  With the variable unset, :func:`active_plan` returns
``None`` and every injection point is a single dict lookup away from
zero overhead.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from typing import Iterable

#: Environment variable carrying the JSON fault plan (inherited by
#: fork workers, so one setting arms the whole process tree).
ENV_VAR = "REPRO_FAULTS"

#: Fault kinds that only make sense inside a fork worker (firing them
#: in the parent would kill or hang the supervisor itself).
_WORKER_ONLY = frozenset({"worker_kill", "worker_hang"})

#: Fault kinds addressed by supervised-pool shard coordinates.
_WORKER_KINDS = frozenset(
    {"worker_kill", "worker_hang", "worker_oom", "eval_error"}
)

#: Fault kinds fired by the service's store-call wrapper.
_STORE_KINDS = frozenset({"slow_store", "store_error"})

#: All understood kinds, for validation.
KINDS = frozenset(
    {
        "worker_kill",
        "worker_hang",
        "worker_oom",
        "eval_error",
        "torn_write",
        "slow_store",
        "store_error",
        "client_disconnect",
    }
)


@dataclass(frozen=True)
class Fault:
    """One injection coordinate (see module docs for the kinds)."""

    kind: str
    #: supervised-pool shard sequence number (worker/eval kinds).
    shard: int | None = None
    #: retry attempt to fire on; ``None`` fires on every attempt.
    attempt: int | None = 0
    #: worker slot to fire on; ``None`` fires on any slot.
    slot: int | None = None
    #: store ``put`` index (``torn_write``).
    put: int | None = None
    #: service store-call index (``slow_store``/``store_error``);
    #: ``None`` fires on every call.
    op: int | None = None
    #: NDJSON stream chunk index (``client_disconnect``); ``None``
    #: fires after the first chunk.
    chunk: int | None = None
    #: hang/delay duration (``worker_hang``, ``slow_store``).
    seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(KINDS)}"
            )


class FaultPlan:
    """An immutable set of faults plus the matching/firing logic.

    Example:
        >>> plan = FaultPlan([Fault(kind="worker_kill", shard=1)])
        >>> plan.worker_fault(shard=1, attempt=0, slot=0).kind
        'worker_kill'
        >>> plan.worker_fault(shard=1, attempt=1, slot=0) is None
        True
        >>> FaultPlan.from_json(plan.to_json()).faults == plan.faults
        True
    """

    def __init__(self, faults: Iterable[Fault] = ()):
        self.faults: tuple[Fault, ...] = tuple(faults)

    # -- (de)serialization ---------------------------------------------
    @classmethod
    def from_obj(cls, obj: list[dict]) -> "FaultPlan":
        return cls(Fault(**spec) for spec in obj)

    @classmethod
    def from_json(cls, blob: str) -> "FaultPlan":
        return cls.from_obj(json.loads(blob))

    def to_json(self) -> str:
        out = []
        for fault in self.faults:
            spec = {"kind": fault.kind}
            for name in ("shard", "attempt", "slot", "put", "op", "chunk"):
                value = getattr(fault, name)
                if value != Fault.__dataclass_fields__[name].default:
                    spec[name] = value
            if fault.seconds != 3600.0:
                spec["seconds"] = fault.seconds
            out.append(spec)
        return json.dumps(out)

    def arm(self, environ=os.environ) -> None:
        """Publish the plan in the environment (inherited by workers)."""
        environ[ENV_VAR] = self.to_json()

    # -- matching -------------------------------------------------------
    def worker_fault(
        self, shard: int, attempt: int, slot: int | None
    ) -> Fault | None:
        """The first worker/eval fault matching these coordinates."""
        for fault in self.faults:
            if fault.kind not in _WORKER_KINDS:
                continue
            if fault.shard is not None and fault.shard != shard:
                continue
            if fault.attempt is not None and fault.attempt != attempt:
                continue
            if fault.slot is not None and fault.slot != slot:
                continue
            return fault
        return None

    def torn_write(self, put_index: int) -> Fault | None:
        """The ``torn_write`` fault matching this store ``put`` index."""
        for fault in self.faults:
            if fault.kind == "torn_write" and fault.put == put_index:
                return fault
        return None

    def store_fault(self, op_index: int) -> Fault | None:
        """The service store fault matching this store-call index."""
        for fault in self.faults:
            if fault.kind in _STORE_KINDS and (
                fault.op is None or fault.op == op_index
            ):
                return fault
        return None

    def client_disconnect(self, chunk_index: int) -> bool:
        """Whether to abort the client transport after this chunk."""
        for fault in self.faults:
            if fault.kind == "client_disconnect" and (
                fault.chunk is None or fault.chunk == chunk_index
            ):
                return True
        return False

    # -- firing ---------------------------------------------------------
    def fire_worker(
        self,
        shard: int,
        attempt: int,
        slot: int | None = None,
        in_worker: bool = True,
    ) -> None:
        """Fire the matching worker fault, if any.

        ``in_worker`` is False when called from the supervisor's
        in-process serial fallback: kill/hang faults are suppressed
        there (they would take the supervisor down, which is not the
        failure mode they model), while ``worker_oom``/``eval_error``
        still raise — that is how a scenario is made to fail its last
        line of defense.
        """
        fault = self.worker_fault(shard, attempt, slot)
        if fault is None:
            return
        if fault.kind in _WORKER_ONLY and not in_worker:
            return
        if fault.kind == "worker_kill":  # pragma: no cover - kills itself
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == "worker_hang":  # pragma: no cover - killed hung
            time.sleep(fault.seconds)
        elif fault.kind == "worker_oom":
            raise MemoryError(
                f"injected ENOMEM (fault plan: shard {shard}, "
                f"attempt {attempt})"
            )
        elif fault.kind == "eval_error":
            raise RuntimeError(
                f"injected evaluation fault (fault plan: shard {shard}, "
                f"attempt {attempt})"
            )

    def fire_store(self, op_index: int) -> None:
        """Fire the matching service store fault, if any.

        ``slow_store`` sleeps and returns (the call then proceeds,
        late); ``store_error`` raises :class:`OSError` in the caller,
        standing in for a sick sqlite file or full disk.
        """
        fault = self.store_fault(op_index)
        if fault is None:
            return
        if fault.kind == "slow_store":
            time.sleep(fault.seconds)
        else:
            raise OSError(
                f"injected store I/O failure (fault plan: op {op_index})"
            )


#: Cache of the parsed plan, keyed by the raw env value so tests can
#: re-arm different plans in one process.
_CACHED: tuple[str, FaultPlan] | None = None


def active_plan() -> FaultPlan | None:
    """The armed :class:`FaultPlan`, or ``None`` (the fast path)."""
    global _CACHED
    blob = os.environ.get(ENV_VAR)
    if not blob:
        return None
    if _CACHED is not None and _CACHED[0] == blob:
        return _CACHED[1]
    plan = FaultPlan.from_json(blob)
    _CACHED = (blob, plan)
    return plan


def disarm(environ=os.environ) -> None:
    """Remove any armed plan from the environment."""
    environ.pop(ENV_VAR, None)
