"""Chaos suite: deterministic fault injection against the fault-
tolerance layer (supervised pool, durable store).

Every recovery path is driven by an armed
:class:`~repro.experiments.faults.FaultPlan` and held to the plane's
core invariant: a run with injected failures must produce **bit-
identical** results to a clean run, plus the matching
:class:`~repro.experiments.failures.FailureLog` incidents.  CI runs
this file over several topology seeds (``REPRO_CHAOS_SEED``) so the
shard layout the faults hit varies run to run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random

import pytest

from repro.core import SECURITY_SECOND, Deployment
from repro.experiments import (
    EvaluationFailure,
    FailureLog,
    SupervisionPolicy,
    make_context,
)
from repro.experiments.cli import EXIT_SCENARIO_FAILURES
from repro.experiments.cli import main as cli_main
from repro.experiments.failures import Incident
from repro.experiments.faults import (
    ENV_VAR,
    Fault,
    FaultPlan,
    active_plan,
    disarm,
)
from repro.experiments.runner import _supervised_worker_main
from repro.experiments.scenarios import request_for
from repro.experiments.store import FSYNC_POLICIES, ResultStore, _record_crc

#: CI varies this to move the injected faults onto different shard
#: layouts; the assertions are seed-independent.
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2013"))

#: Fast retry policy so degradation tests do not sit in backoff.
QUICK = SupervisionPolicy(backoff=0.05)


@pytest.fixture(autouse=True)
def _disarmed():
    """No fault plan leaks into (or out of) any test."""
    disarm()
    yield
    disarm()


@pytest.fixture(scope="module")
def ectx():
    with make_context(scale="tiny", seed=CHAOS_SEED) as ectx:
        yield ectx


def _skewed_pairs(ectx, rnd=None):
    """Pairs over 3 destinations with skewed group sizes (17/4/1), so a
    parallel run produces several shards of different sizes."""
    rnd = rnd or random.Random(5)
    asns = ectx.graph.asns
    dests = rnd.sample(asns, 3)
    pairs = []
    for d, count in zip(dests, (17, 4, 1)):
        others = [a for a in asns if a != d]
        pairs += [(m, d) for m in rnd.sample(others, count)]
    rnd.shuffle(pairs)
    return pairs, Deployment.of(rnd.sample(asns, 40))


@pytest.fixture(scope="module")
def workload(ectx):
    pairs, deployment = _skewed_pairs(ectx)
    clean = ectx.metric(pairs, deployment, SECURITY_SECOND)
    return pairs, deployment, clean


def _run_with_faults(plan, policy=QUICK, processes=2, **ctx_kwargs):
    """Arm ``plan``, run the module workload in a supervised parallel
    context, and return ``(result, failure_log)``."""
    log = FailureLog()
    plan.arm()
    try:
        with make_context(
            scale="tiny", seed=CHAOS_SEED, processes=processes,
            supervision=policy, failure_log=log, **ctx_kwargs,
        ) as pectx:
            pairs, deployment = _skewed_pairs(pectx)
            result = pectx.metric(pairs, deployment, SECURITY_SECOND)
    finally:
        disarm()
    return result, log


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            [
                Fault(kind="worker_kill", shard=3, attempt=None),
                Fault(kind="worker_hang", shard=1, seconds=7.5),
                Fault(kind="torn_write", put=2),
            ]
        )
        assert FaultPlan.from_json(plan.to_json()).faults == plan.faults

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="worker_explode")

    def test_attempt_none_fires_every_attempt(self):
        plan = FaultPlan([Fault(kind="worker_oom", shard=2, attempt=None)])
        for attempt in range(5):
            fault = plan.worker_fault(shard=2, attempt=attempt, slot=0)
            assert fault is not None and fault.kind == "worker_oom"
        assert plan.worker_fault(shard=1, attempt=0, slot=0) is None

    def test_torn_write_matches_by_put_index(self):
        plan = FaultPlan([Fault(kind="torn_write", put=4)])
        assert plan.torn_write(4).kind == "torn_write"
        assert plan.torn_write(3) is None
        assert plan.worker_fault(shard=4, attempt=0, slot=None) is None

    def test_arm_and_active_plan(self):
        plan = FaultPlan([Fault(kind="eval_error", shard=0)])
        plan.arm()
        assert active_plan().faults == plan.faults
        disarm()
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_fire_worker_raises_injected_errors(self):
        plan = FaultPlan([Fault(kind="worker_oom", shard=0)])
        with pytest.raises(MemoryError, match="injected ENOMEM"):
            plan.fire_worker(shard=0, attempt=0)
        plan = FaultPlan([Fault(kind="eval_error", shard=0)])
        with pytest.raises(RuntimeError, match="injected evaluation"):
            plan.fire_worker(shard=0, attempt=0, in_worker=False)

    def test_worker_only_kinds_suppressed_in_parent(self):
        # A kill/hang fault fired with in_worker=False must be a no-op:
        # it models a *worker* death, not a supervisor suicide.
        plan = FaultPlan([Fault(kind="worker_kill", shard=0, attempt=None)])
        plan.fire_worker(shard=0, attempt=4, in_worker=False)  # still here


class TestSupervisionPolicy:
    def test_deadline_scales_with_shard_size(self):
        policy = SupervisionPolicy(base_deadline=10.0, per_item_deadline=2.0)
        assert policy.deadline_for(5) == 20.0
        assert policy.deadline_for(0) == 12.0  # at least one size unit

    def test_a_planned_bin_is_sized_by_its_rows(self, ectx, monkeypatch):
        """A bin's deadline covers every pair-step it holds: a pair of
        a 19-step chain is 19 passes, not one size unit."""
        sized = []
        deadline_for = SupervisionPolicy.deadline_for

        def spying(policy, size):
            sized.append(size)
            return deadline_for(policy, size)

        monkeypatch.setattr(SupervisionPolicy, "deadline_for", spying)
        asns = ectx.graph.asns
        pairs = [(asns[-i], asns[i]) for i in range(1, 9)]
        chain = [Deployment.of(asns[20 : 20 + 3 * t]) for t in range(19)]
        with make_context(
            scale="tiny", seed=CHAOS_SEED, processes=2, supervision=QUICK
        ) as pectx:
            results = pectx.metric_chain(pairs, chain, SECURITY_SECOND)
        assert len(results) == 19
        # 152 rows over 2 × 2 bins: two pairs with all their steps each
        assert sized == [2 * 19] * 4


class TestFailureLog:
    def test_record_and_views(self):
        log = FailureLog()
        log.record("worker_dead", detail="gone", shard=3, worker_pid=42)
        log.record("scenario_failed", detail="lost", scenario="abc123")
        assert len(log) == 2
        assert log.count("worker_dead") == 1
        assert log.kinds() == {"worker_dead", "scenario_failed"}
        assert [i.kind for i in log.scenario_failures()] == [
            "scenario_failed"
        ]
        rendered = log.summary()
        assert "2 incident(s)" in rendered
        assert "worker_dead [shard=3, pid=42]: gone" in rendered

    def test_jsonl_sink(self, tmp_path):
        sink = tmp_path / "audit" / "failures.jsonl"
        log = FailureLog(sink)
        log.record("store_recovery", detail="truncated 12 bytes")
        log.record("worker_hung", shard=1, attempt=2, elapsed=3.5)
        lines = [
            json.loads(line)
            for line in sink.read_text().strip().splitlines()
        ]
        assert [entry["kind"] for entry in lines] == [
            "store_recovery",
            "worker_hung",
        ]
        assert lines[1]["shard"] == 1 and lines[1]["elapsed"] == 3.5

    def test_incident_render_coordinates(self):
        incident = Incident(
            kind="worker_hung", shard=2, attempt=1, elapsed=4.0,
            detail="no result",
        )
        assert incident.render() == (
            "worker_hung [shard=2, attempt=1, after 4.0s]: no result"
        )


class TestChaosRecovery:
    """Each fault class recovers with bit-identical results."""

    def test_worker_sigkill(self, workload):
        """A SIGKILL'd worker is respawned from the warm parent (fresh
        pid) and the results stay bit-identical."""
        pairs, deployment, clean = workload
        log = FailureLog()
        FaultPlan([Fault(kind="worker_kill", shard=0)]).arm()
        try:
            with make_context(
                scale="tiny", seed=CHAOS_SEED, processes=2,
                supervision=QUICK, failure_log=log,
            ) as pectx:
                pool = pectx._ensure_pool()
                pids_before = pool.worker_pids
                result = pectx.metric(pairs, deployment, SECURITY_SECOND)
                pids_after = pool.worker_pids
        finally:
            disarm()
        assert result.per_pair == clean.per_pair
        assert result.value == clean.value
        assert log.count("worker_dead") >= 1
        assert set(pids_after) != set(pids_before)
        assert not log.scenario_failures()

    def test_worker_hang_past_deadline(self, workload):
        pairs, deployment, clean = workload
        result, log = _run_with_faults(
            FaultPlan([Fault(kind="worker_hang", shard=1, seconds=30.0)]),
            policy=SupervisionPolicy(
                base_deadline=1.0, per_item_deadline=0.0, backoff=0.05
            ),
        )
        assert result.per_pair == clean.per_pair
        assert log.count("worker_hung") >= 1
        hung = log.of_kind("worker_hung")[0]
        assert hung.elapsed is not None and hung.elapsed >= 1.0
        assert not log.scenario_failures()

    def test_worker_oom_retried_without_respawn(self, workload):
        pairs, deployment, clean = workload
        result, log = _run_with_faults(
            FaultPlan([Fault(kind="worker_oom", shard=0)])
        )
        assert result.per_pair == clean.per_pair
        assert log.count("worker_error") == 1
        assert "MemoryError" in log.of_kind("worker_error")[0].detail
        # The worker survived to report the error: no respawn incident.
        assert log.count("worker_dead") == 0

    def test_max_retries_degrades_to_serial(self, workload):
        """A shard killed on *every* pooled attempt still completes —
        in-process — and the results remain bit-identical."""
        pairs, deployment, clean = workload
        result, log = _run_with_faults(
            FaultPlan([Fault(kind="worker_kill", shard=0, attempt=None)])
        )
        assert result.per_pair == clean.per_pair
        assert result.value == clean.value
        assert log.count("shard_degraded") == 1
        assert log.count("worker_dead") == QUICK.max_retries + 1
        assert not log.scenario_failures()

    def test_unrecoverable_shard_raises_evaluation_failure(self, ectx):
        """When even the serial fallback fails, the pool raises
        EvaluationFailure (the scheduler's per-scenario signal)."""
        plan = FaultPlan([Fault(kind="eval_error", shard=0, attempt=None)])
        log = FailureLog()
        plan.arm()
        try:
            with make_context(
                scale="tiny", seed=CHAOS_SEED, processes=2,
                supervision=QUICK, failure_log=log,
            ) as pectx:
                pairs, deployment = _skewed_pairs(pectx)
                with pytest.raises(EvaluationFailure, match="serial fallback"):
                    pectx.metric(pairs, deployment, SECURITY_SECOND)
        finally:
            disarm()
        assert log.count("shard_degraded") >= 1


def _raise_or_echo(_ectx, item, _state):
    """A pool task: raise ``item`` if it is an exception type."""
    if isinstance(item, type) and issubclass(item, BaseException):
        raise item("injected")
    return item


class TestWorkerLoop:
    def test_only_exceptions_become_error_replies(self):
        """A task's ``Exception`` comes back as an ``"err"`` reply and
        the worker serves the next shard; a ``KeyboardInterrupt`` ends
        the worker, which the supervisor sees as a death (pipe EOF),
        not as a failed attempt to retry."""
        mp = multiprocessing.get_context("fork")
        parent, child = mp.Pipe()
        proc = mp.Process(
            target=_supervised_worker_main, args=(child, 0), daemon=True
        )
        proc.start()
        child.close()
        try:
            parent.send((0, 0, [(_raise_or_echo, RuntimeError, None)]))
            assert parent.poll(10)
            kind, seq, detail = parent.recv()
            assert (kind, seq) == ("err", 0)
            assert "RuntimeError: injected" in detail
            parent.send((1, 0, [(_raise_or_echo, "alive", None)]))
            assert parent.poll(10)
            assert parent.recv() == ("ok", 1, ["alive"])
            parent.send((2, 0, [(_raise_or_echo, KeyboardInterrupt, None)]))
            assert parent.poll(10)
            with pytest.raises(EOFError):
                parent.recv()
            proc.join(10)
            assert not proc.is_alive()
        finally:
            proc.kill()
            proc.join(10)
            parent.close()


class TestDurableStore:
    def _evaluated(self, ectx, count=4, offset=1):
        asns = ectx.graph.asns
        pairs = [(asns[-i], asns[i]) for i in range(offset, offset + count)]
        dep = ectx.catalog.get("t12_full")
        req = request_for(ectx, pairs, dep, SECURITY_SECOND)
        return req, ectx.metric(req.pairs, dep, SECURITY_SECOND)

    def test_fsync_policy_validated(self, tmp_path):
        assert FSYNC_POLICIES == ("never", "always", "close")
        with pytest.raises(ValueError, match="fsync must be one of"):
            ResultStore(tmp_path / "cache", fsync="sometimes")

    @pytest.mark.parametrize("fsync", FSYNC_POLICIES)
    def test_round_trip_under_every_fsync_policy(
        self, ectx, tmp_path, fsync
    ):
        req, result = self._evaluated(ectx)
        with ResultStore(tmp_path / "cache", fsync=fsync) as store:
            store.put(req, result)
        loaded = ResultStore(tmp_path / "cache").get(req.scenario_hash)
        assert loaded.per_pair == result.per_pair

    def test_close_is_idempotent_and_observable(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        store = ResultStore(tmp_path / "cache")
        assert store.closed  # handles open lazily
        store.put(req, result)
        assert not store.closed
        store.close()
        store.close()  # second close is a no-op
        assert store.closed
        # A closed store reopens handles lazily and keeps working.
        assert store.get(req.scenario_hash) is not None

    def test_records_carry_a_crc_field(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        with ResultStore(tmp_path / "cache") as store:
            store.put(req, result)
        line = (tmp_path / "cache" / "results.jsonl").read_text()
        record = json.loads(line)
        assert record["crc"] == _record_crc(record)

    def test_crc_mismatch_falls_back_to_older_record(
        self, ectx, tmp_path
    ):
        """Bit-rot in the newest record must surface the superseded
        good record, not silently wrong data (and not a miss)."""
        req, result = self._evaluated(ectx)
        with ResultStore(tmp_path / "cache") as store:
            store.put(req, result)
            store.put(req, result)  # newest-wins duplicate
        path = tmp_path / "cache" / "results.jsonl"
        first, second = path.read_text().splitlines()
        crc = json.loads(second)["crc"]
        bad = "0" * 8 if crc != "0" * 8 else "f" * 8
        corrupted = second.replace(f'"crc":"{crc}"', f'"crc":"{bad}"')
        path.write_text(first + "\n" + corrupted + "\n")
        loaded = ResultStore(tmp_path / "cache").get(req.scenario_hash)
        assert loaded is not None
        assert loaded.per_pair == result.per_pair

    def test_crc_mismatch_with_no_fallback_is_a_miss(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        with ResultStore(tmp_path / "cache") as store:
            store.put(req, result)
        path = tmp_path / "cache" / "results.jsonl"
        text = path.read_text()
        crc = json.loads(text)["crc"]
        bad = "0" * 8 if crc != "0" * 8 else "f" * 8
        path.write_text(text.replace(f'"crc":"{crc}"', f'"crc":"{bad}"'))
        store = ResultStore(tmp_path / "cache")
        assert store.get(req.scenario_hash) is None

    def test_torn_write_repaired_on_next_append(self, ectx, tmp_path):
        """A put interrupted mid-write (injected) must not corrupt the
        next record: the torn fragment is truncated away first."""
        req1, result1 = self._evaluated(ectx, offset=1)
        req2, result2 = self._evaluated(ectx, offset=5)
        log = FailureLog()
        FaultPlan([Fault(kind="torn_write", put=0)]).arm()
        try:
            with ResultStore(
                tmp_path / "cache", failure_log=log
            ) as store:
                store.put(req1, result1)  # torn mid-line
                store.put(req2, result2)  # repairs, then appends
        finally:
            disarm()
        assert log.count("store_torn_write") == 1
        assert log.count("store_recovery") == 1
        reopened = ResultStore(tmp_path / "cache")
        assert reopened.get(req1.scenario_hash) is None  # crashed write
        loaded = reopened.get(req2.scenario_hash)
        assert loaded.per_pair == result2.per_pair
        # The file is fully consistent again: every line decodes.
        lines = (tmp_path / "cache" / "results.jsonl").read_bytes()
        assert lines.endswith(b"}\n")

    def test_torn_tail_detected_and_repaired_across_reopen(
        self, ectx, tmp_path
    ):
        """Crash consistency end-to-end: a run killed mid-put leaves a
        torn tail; the next store open detects it, replays the intact
        prefix, truncates the fragment before appending, and a re-put
        round-trips bit-identically."""
        req1, result1 = self._evaluated(ectx, offset=1)
        req2, result2 = self._evaluated(ectx, offset=5)
        write_log = FailureLog()
        FaultPlan([Fault(kind="torn_write", put=1)]).arm()
        try:
            with ResultStore(
                tmp_path / "cache", failure_log=write_log
            ) as store:
                store.put(req1, result1)
                store.put(req2, result2)  # "crash" mid-write, then exit
        finally:
            disarm()
        log = FailureLog()
        store = ResultStore(tmp_path / "cache", failure_log=log)
        torn = log.of_kind("store_torn_tail")
        assert len(torn) == 1 and "torn trailing bytes" in torn[0].detail
        # The intact prefix replays warm; the torn record is absent.
        assert store.get(req1.scenario_hash).per_pair == result1.per_pair
        assert store.get(req2.scenario_hash) is None
        # Re-putting the lost record first truncates the fragment.
        store.put(req2, result2)
        store.close()
        assert log.count("store_recovery") == 1
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 2
        assert reopened.get(req2.scenario_hash).per_pair == result2.per_pair


class TestCliExitContract:
    def test_clean_run_exits_zero(self, capsys):
        assert cli_main(
            ["run", "baseline", "--scale", "tiny", "--no-cache"]
        ) == 0
        assert "FAILED" not in capsys.readouterr().err

    def test_lost_scenarios_exit_nonzero_with_summary(self, capsys):
        """A scenario that fails every retry and the serial fallback
        must turn into exit code 3 plus a per-scenario summary — never
        a silent partial report."""
        plan = json.dumps([{"kind": "eval_error", "attempt": None}])
        try:
            code = cli_main(
                [
                    "run", "baseline", "--scale", "tiny", "--no-cache",
                    "--processes", "2", "--fault-plan", plan,
                ]
            )
        finally:
            disarm()
        captured = capsys.readouterr()
        assert code == EXIT_SCENARIO_FAILURES
        assert "scenario(s) exhausted retries" in captured.err
        assert "scenario_failed" in captured.err

    def test_fault_plan_from_file(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps([{"kind": "eval_error", "attempt": None}])
        )
        try:
            code = cli_main(
                [
                    "run", "baseline", "--scale", "tiny", "--no-cache",
                    "--processes", "2", "--fault-plan", f"@{plan_path}",
                ]
            )
        finally:
            disarm()
        assert code == EXIT_SCENARIO_FAILURES
