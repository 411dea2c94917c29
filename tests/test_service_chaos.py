"""Service-plane chaos suite: injected faults against the resilience
layer (admission control, deadlines, store circuit breaker, disconnect
teardown, drain-on-SIGTERM).

Where ``test_faults.py`` proves the *evaluation* plane degrades
gracefully, this file proves the *service* plane does: every injected
fault must surface as a structured, bounded response — 429/503 with
``Retry-After``, an ``ok: false`` result event with the error message —
never a hang, a 500 loop, or a stranded single-flight waiter.  Each
test tears down through a harness that asserts zero leaked asyncio
tasks, an empty single-flight map, and a returned evaluation budget.
CI runs the file over several seeds (``REPRO_CHAOS_SEED``) and, when
``REPRO_SERVICE_LOG_DIR`` is set, mirrors each test's FailureLog to a
JSONL artifact for post-mortem on red runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core import SECURITY_SECOND, Deployment
from repro.experiments import FailureLog, open_store
from repro.experiments.faults import Fault, FaultPlan, disarm
from repro.experiments.scenarios import EvalRequest
from repro.service import CircuitBreaker, Service, create_server

#: CI varies this to move the chaos onto different topologies; the
#: assertions are seed-independent (tiny-scale ASN ids are stable).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "2013"))

#: Generous bound on a warm-cache hit while the service is saturated or
#: its store is sick — "bounded", not "fast": a hit must never queue
#: behind an evaluation or a dead store.
WARM_HIT_BOUND_S = 1.0


@pytest.fixture(autouse=True)
def _disarmed():
    """No fault plan leaks into (or out of) any test."""
    disarm()
    yield
    disarm()


def _request(members, pairs=None, seed=CHAOS_SEED):
    return EvalRequest.build(
        scale="tiny",
        seed=seed,
        ixp=False,
        pairs=pairs or [(3, 2)],
        deployment=Deployment.of(members),
        model=SECURITY_SECOND,
    )


class _Client:
    """Raw-socket HTTP/1.1 client that, unlike ``test_service.py``'s,
    surfaces response *headers* — the chaos contract lives in
    ``Retry-After`` as much as in status codes."""

    def __init__(self, port):
        self.port = port
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def close(self):
        if self.writer is not None:
            self.writer.close()

    async def _send(self, method, path, body):
        payload = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        self.writer.write(head + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def request(self, method, path, body=None):
        """Buffered request → (status, headers, decoded JSON body)."""
        status, headers = await self._send(method, path, body)
        if headers.get("transfer-encoding") == "chunked":
            chunks = [chunk async for chunk in self._chunks()]
            return status, headers, [json.loads(c) for c in chunks]
        length = int(headers.get("content-length", 0))
        blob = await self.reader.readexactly(length) if length else b""
        return status, headers, json.loads(blob) if blob else None

    async def stream(self, method, path, body=None):
        """Streaming request → (status, headers, NDJSON event iterator)."""
        status, headers = await self._send(method, path, body)
        assert headers.get("transfer-encoding") == "chunked"
        return status, headers, self._chunks()

    async def _chunks(self):
        while True:
            size = int((await self.reader.readline()).strip(), 16)
            if size == 0:
                await self.reader.readline()
                return
            data = await self.reader.readexactly(size)
            await self.reader.readexactly(2)  # CRLF
            yield data


def _artifact_log() -> FailureLog | None:
    """A JSONL-sinking FailureLog when CI asked for artifacts."""
    log_dir = os.environ.get("REPRO_SERVICE_LOG_DIR")
    if not log_dir:
        return None
    current = os.environ.get("PYTEST_CURRENT_TEST", "chaos")
    name = current.split("::")[-1].split(" ")[0] or "chaos"
    return FailureLog(Path(log_dir) / f"{name}.seed{CHAOS_SEED}.jsonl")


def _run(test_coro_factory, tmp_path, **service_kwargs):
    """Boot store + service + server, run the test coroutine, tear
    down, then enforce the no-leak contract: no live asyncio tasks, an
    empty single-flight map, all evaluation budget returned."""

    async def _main():
        store = open_store(tmp_path / "cache", backend="sqlite")
        service = Service(
            store,
            default_scale="tiny",
            failure_log=_artifact_log(),
            **service_kwargs,
        )
        server = create_server(service, port=0)
        await server.start()
        client = await _Client(server.port).connect()
        try:
            result = await test_coro_factory(client, service, store)
        finally:
            await client.close()
            await server.stop()
            await service.aclose()
            store.close()
        leaked = []
        for _ in range(40):  # let cancelled tasks finish unwinding
            leaked = [
                t
                for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()
            ]
            if not leaked:
                break
            await asyncio.sleep(0.05)
        assert leaked == [], f"leaked asyncio tasks: {leaked}"
        assert service._inflight == {}, "single-flight map leaked entries"
        assert service._eval_load == 0, "evaluation budget never returned"
        assert service._chain_tasks == set()
        return result

    return asyncio.run(_main())


async def _poll(predicate, timeout=10.0, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover - failure aid
            raise AssertionError(f"timed out waiting for {what}")
        await asyncio.sleep(0.02)


class TestOverloadShedding:
    def test_saturation_sheds_cold_and_serves_warm(
        self, tmp_path, monkeypatch
    ):
        """With the evaluation budget held by a stuck evaluation, cold
        misses shed with 429 + Retry-After, readiness goes 503, but
        warm hits keep answering with bounded latency and liveness
        stays 200."""
        import repro.service.app as app_module

        real = app_module.evaluate_requests
        gate = {"block": False}
        release = threading.Event()

        def gated_evaluate(ectx, requests, store=None, cancel=None):
            if gate["block"]:
                release.wait(timeout=30)
            return real(ectx, requests, store, cancel=cancel)

        monkeypatch.setattr(app_module, "evaluate_requests", gated_evaluate)

        async def scenario(client, service, store):
            warm = _request([2, 3])
            warm_body = {"request": warm.canonical()}
            status, _headers, _reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200

            gate["block"] = True
            stuck = await _Client(client.port).connect()
            stuck_body = {"request": _request([2, 3, 4]).canonical()}
            stuck_post = asyncio.ensure_future(
                stuck.request("POST", "/v1/metrics", stuck_body)
            )
            await _poll(lambda: service.saturated, what="saturation")

            # Cold miss while saturated: structured shed, not a queue.
            status, headers, reply = await client.request(
                "POST",
                "/v1/metrics",
                {"request": _request([2, 3, 4, 5]).canonical()},
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            assert "saturated" in reply["error"]
            assert reply["admission"]["inflight"] >= 1
            assert reply["admission"]["max_inflight"] == 1
            assert service.shed == 1

            # Readiness refuses new work; liveness must not.
            status, headers, ready = await client.request(
                "GET", "/v1/readyz"
            )
            assert status == 503
            assert any("saturated" in b for b in ready["blockers"])
            assert "retry-after" in headers
            status, _headers, live = await client.request(
                "GET", "/v1/healthz"
            )
            assert status == 200 and live["status"] == "ok"

            # Warm hits never queue behind the stuck evaluation.
            latencies = []
            for _ in range(20):
                t0 = time.monotonic()
                status, _headers, reply = await client.request(
                    "POST", "/v1/metrics", warm_body
                )
                latencies.append(time.monotonic() - t0)
                assert status == 200
                assert reply["results"][0]["cached"]
            assert max(latencies) < WARM_HIT_BOUND_S, latencies

            release.set()
            status, _headers, reply = await stuck_post
            await stuck.close()
            assert status == 200 and reply["failed"] == 0

            await _poll(lambda: not service.saturated, what="drain")
            status, _headers, ready = await client.request(
                "GET", "/v1/readyz"
            )
            assert status == 200 and ready["status"] == "ready"
            status, _headers, stats = await client.request(
                "GET", "/v1/stats"
            )
            assert stats["admission"]["shed"] == 1

        _run(scenario, tmp_path, max_inflight=1)


class TestDeadlines:
    def test_deadline_detaches_waiter_and_cancels_orphan_chain(
        self, tmp_path
    ):
        """A waiter past its deadline gets a structured 503; once the
        last waiter detaches, the not-yet-started chain is abandoned
        without evaluating, and the scenario stays servable later."""

        async def scenario(client, service, store):
            # Hold the topology's context lock so the chain cannot
            # start until we say so.
            _ectx, lock = await service.context_for(
                "tiny", CHAOS_SEED, False
            )
            await lock.acquire()
            try:
                request = _request([2, 3])
                t0 = time.monotonic()
                status, headers, reply = await client.request(
                    "POST",
                    "/v1/metrics",
                    {"request": request.canonical(), "deadline_ms": 200},
                )
                elapsed = time.monotonic() - t0
                assert status == 503
                assert reply["deadline_ms"] == 200
                assert "deadline" in reply["error"]
                assert int(headers["retry-after"]) >= 1
                assert 0.15 < elapsed < 5.0  # bounded, not hung
                assert service.deadline_timeouts == 1
            finally:
                lock.release()
            await asyncio.gather(*list(service._chain_tasks))

            # The orphaned chain was dropped before paying for it.
            assert service.evaluations == 0
            assert service.chains_cancelled == 1
            assert service.failure_log.count("chain_cancelled") == 1
            assert service.failure_log.count("deadline_exceeded") == 1

            # The eviction did not poison the hash: retry succeeds.
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", {"request": request.canonical()}
            )
            assert status == 200 and reply["failed"] == 0
            assert service.evaluations == 1

        _run(scenario, tmp_path)


class TestStoreBreaker:
    def test_store_errors_trip_breaker_warm_keeps_serving(self, tmp_path):
        """Consecutive injected store failures trip the breaker: cold
        misses get structured 503s with breaker state, warm hashes keep
        serving from the hot cache, and the breaker recovers through a
        half-open probe after cooldown."""

        async def scenario(client, service, store):
            warm = _request([2, 3])
            warm_body = {"request": warm.canonical()}
            status, _headers, _reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200

            FaultPlan([Fault(kind="store_error")]).arm()

            # Hot hit: no store touch, the fault never fires.
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200 and reply["results"][0]["cached"]

            # Cold Y: lookup fails (1), persist fails (2) → breaker
            # opens — but the evaluation itself succeeded, so Y still
            # answers from memory.
            y = _request([2, 3, 4])
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", {"request": y.canonical()}
            )
            assert status == 200 and reply["failed"] == 0
            assert service.breaker.state == "open"
            assert service.breaker.trips == 1
            assert service.failure_log.count("store_call_failed") == 2
            assert service.failure_log.count("result_not_persisted") == 1

            # Cold Z while open: refused up front, with the breaker's
            # diagnosis and a Retry-After.
            z = _request([2, 3, 4, 5])
            status, headers, reply = await client.request(
                "POST", "/v1/metrics", {"request": z.canonical()}
            )
            assert status == 503
            assert reply["breaker"]["state"] == "open"
            assert "breaker" in reply["error"]
            assert int(headers["retry-after"]) >= 1

            # Warm X still serves; readiness says unready; the raw
            # scenario endpoint degrades to the same structured 503.
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200 and reply["results"][0]["cached"]
            status, _headers, ready = await client.request(
                "GET", "/v1/readyz"
            )
            assert status == 503
            assert "store breaker open" in ready["blockers"]
            status, _headers, reply = await client.request(
                "GET", f"/v1/scenarios/{warm.scenario_hash}"
            )
            assert status == 503

            # Store heals: after cooldown one probe closes the breaker
            # and cold work is admitted again.
            disarm()
            await asyncio.sleep(0.45)
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", {"request": z.canonical()}
            )
            assert status == 200 and reply["failed"] == 0
            assert service.breaker.state == "closed"
            kinds = service.failure_log.kinds()
            assert {
                "breaker_open", "breaker_half_open", "breaker_closed"
            } <= kinds

            status, _headers, stats = await client.request(
                "GET", "/v1/stats"
            )
            assert stats["breaker"]["trips"] == 1
            assert stats["breaker"]["state"] == "closed"

        _run(
            scenario,
            tmp_path,
            breaker=CircuitBreaker(threshold=2, cooldown=0.4),
        )

    def test_slow_store_never_stalls_the_event_loop(self, tmp_path):
        """A store stuck in I/O (every call sleeping) slows only the
        request that needs it: liveness and hot-cache hits stay fast
        because store calls run in the executor."""

        async def scenario(client, service, store):
            warm = _request([2, 3])
            warm_body = {"request": warm.canonical()}
            status, _headers, _reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200

            FaultPlan(
                [Fault(kind="slow_store", seconds=0.8)]
            ).arm()
            cold = await _Client(client.port).connect()
            t0 = time.monotonic()
            cold_post = asyncio.ensure_future(
                cold.request(
                    "POST",
                    "/v1/metrics",
                    {"request": _request([2, 3, 4]).canonical()},
                )
            )
            await asyncio.sleep(0.1)  # the cold lookup is now sleeping

            t1 = time.monotonic()
            status, _headers, live = await client.request(
                "GET", "/v1/healthz"
            )
            assert status == 200 and live["status"] == "ok"
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", warm_body
            )
            assert status == 200 and reply["results"][0]["cached"]
            assert time.monotonic() - t1 < WARM_HIT_BOUND_S

            status, _headers, reply = await cold_post
            await cold.close()
            assert status == 200 and reply["failed"] == 0
            # Both the lookup and the persist slept: the fault fired.
            assert time.monotonic() - t0 >= 1.6

        _run(scenario, tmp_path)


class TestDisconnectTeardown:
    def test_injected_disconnect_cancels_orphan_chain(self, tmp_path):
        """The ``client_disconnect`` fault aborts the transport after
        the first chunk; the stream's resolution detaches and the
        never-started chain is abandoned, not evaluated."""

        async def scenario(client, service, store):
            _ectx, lock = await service.context_for(
                "tiny", CHAOS_SEED, False
            )
            await lock.acquire()
            try:
                FaultPlan(
                    [Fault(kind="client_disconnect", chunk=0)]
                ).arm()
                streamer = await _Client(client.port).connect()
                status, _headers, chunks = await streamer.stream(
                    "POST",
                    "/v1/metrics",
                    {
                        "request": _request([2, 3]).canonical(),
                        "stream": True,
                    },
                )
                assert status == 200
                events = []
                with pytest.raises(
                    (
                        ConnectionError,
                        asyncio.IncompleteReadError,
                        ValueError,  # truncated chunk-size line
                    )
                ):
                    async for chunk in chunks:
                        events.append(json.loads(chunk))
                # At most the plan event made it out; never "done".
                assert all(e.get("event") != "done" for e in events)
                await streamer.close()
                disarm()
                await _poll(
                    lambda: all(
                        e.waiters == 0
                        for e in service._inflight.values()
                    ),
                    what="stream detach",
                )
            finally:
                lock.release()
            await asyncio.gather(*list(service._chain_tasks))
            assert service.evaluations == 0
            assert service.chains_cancelled == 1
            assert service.failure_log.count("chain_cancelled") == 1

        _run(scenario, tmp_path)

    def test_real_disconnect_mid_stream_cancels_orphan_chain(
        self, tmp_path
    ):
        """A client that vanishes mid-stream (socket closed, no fault
        plan) is noticed by the disconnect watcher; its chain work is
        released and abandoned."""

        async def scenario(client, service, store):
            _ectx, lock = await service.context_for(
                "tiny", CHAOS_SEED, False
            )
            await lock.acquire()
            try:
                streamer = await _Client(client.port).connect()
                status, _headers, chunks = await streamer.stream(
                    "POST",
                    "/v1/metrics",
                    {
                        "request": _request([2, 3]).canonical(),
                        "stream": True,
                    },
                )
                assert status == 200
                plan = json.loads(await chunks.__anext__())
                assert plan["event"] == "plan" and plan["chains"] == 1
                # Vanish: close the socket while the next event is
                # blocked on the lock we hold.
                streamer.writer.close()
                await _poll(
                    lambda: all(
                        e.waiters == 0
                        for e in service._inflight.values()
                    ),
                    what="watcher detach",
                )
            finally:
                lock.release()
            await asyncio.gather(*list(service._chain_tasks))
            assert service.evaluations == 0
            assert service.chains_cancelled == 1
            assert service.failure_log.count("chain_cancelled") == 1

        _run(scenario, tmp_path)


class TestSingleFlightFailure:
    def test_failed_evaluation_wakes_every_waiter_and_evicts(
        self, tmp_path, monkeypatch
    ):
        """A raising evaluation must answer the owner *and* every
        coalesced rider with the error, evict the single-flight entry,
        and leave the hash evaluatable afterwards."""
        import repro.service.app as app_module

        real = app_module.evaluate_requests
        gate = {"explode": True}
        release = threading.Event()

        def exploding(ectx, requests, store=None, cancel=None):
            if gate["explode"]:
                release.wait(timeout=30)
                raise RuntimeError("injected chaos boom")
            return real(ectx, requests, store, cancel=cancel)

        monkeypatch.setattr(app_module, "evaluate_requests", exploding)

        async def scenario(client, service, store):
            second = await _Client(client.port).connect()
            body = {"request": _request([2, 3]).canonical()}
            first_post = asyncio.ensure_future(
                client.request("POST", "/v1/metrics", body)
            )
            second_post = asyncio.ensure_future(
                second.request("POST", "/v1/metrics", body)
            )
            await _poll(
                lambda: service.coalesced == 1, what="coalescing"
            )
            release.set()
            (s1, _h1, r1), (s2, _h2, r2) = await asyncio.gather(
                first_post, second_post
            )
            await second.close()
            assert s1 == s2 == 200
            for reply in (r1, r2):
                (entry,) = reply["results"]
                assert entry["ok"] is False
                assert "injected chaos boom" in entry["error"]
                assert reply["failed"] == 1
            assert service._inflight == {}
            assert service.failure_log.count("chain_failed") == 1

            # The eviction is complete: the same hash evaluates fine
            # once the fault stops firing.
            gate["explode"] = False
            status, _headers, reply = await client.request(
                "POST", "/v1/metrics", body
            )
            assert status == 200 and reply["failed"] == 0
            assert reply["results"][0]["ok"] is True

        _run(scenario, tmp_path)


_DRAIN_CHILD = r"""
import asyncio, signal, sys, time
sys.path.insert(0, {src!r})
import repro.service.app as app_module
from repro.experiments import open_store
from repro.service import Service, create_server

real = app_module.evaluate_requests

def slow_evaluate(ectx, requests, store=None, cancel=None):
    time.sleep(1.2)  # widen the mid-stream SIGTERM window
    return real(ectx, requests, store, cancel=cancel)

app_module.evaluate_requests = slow_evaluate

async def main():
    store = open_store({cache!r}, backend="sqlite")
    service = Service(store, default_scale="tiny", processes=2)
    ectx, _lock = await service.context_for("tiny", {seed}, False)
    server = create_server(service, port=0)
    await server.start()
    shutdown = asyncio.Event()
    code = 0
    def stop(signum):
        nonlocal code
        code = 128 + signum
        shutdown.set()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop, signal.SIGTERM)
    print("READY", server.port, *ectx._ensure_pool().worker_pids, flush=True)
    await shutdown.wait()
    await server.stop()
    await service.aclose()
    store.close()
    return code

sys.exit(asyncio.run(main()))
"""


def _read_chunked(rfile):
    """Read a chunked NDJSON body (sync socket file) → decoded events."""
    events = []
    while True:
        size = int(rfile.readline().strip(), 16)
        if size == 0:
            rfile.readline()
            return events
        data = rfile.read(size)
        rfile.read(2)  # CRLF
        events.append(json.loads(data))


def test_sigterm_mid_stream_finishes_stream_and_reaps_workers(
    tmp_path, pid_alive, spawn_child
):
    """SIGTERM while a chunked NDJSON stream is mid-flight must *drain*:
    the stream runs to its ``done`` event and clean terminator, the
    process exits 128+SIGTERM promptly, and no pool worker survives."""
    proc = spawn_child(_DRAIN_CHILD, cache=str(tmp_path / "cache"), seed=CHAOS_SEED)
    line = proc.stdout.readline().split()
    assert line[0] == "READY" and len(line) == 4, line
    port = line[1]
    proc.workers = worker_pids = [int(pid) for pid in line[2:]]
    assert all(pid_alive(pid) for pid in worker_pids)

    request = _request([2, 3])
    body = json.dumps({"request": request.canonical(), "stream": True}).encode()
    with socket.create_connection(("127.0.0.1", int(port)), timeout=60) as sock:
        sock.settimeout(60)
        sock.sendall(
            (
                f"POST /v1/metrics HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        rfile = sock.makefile("rb")
        status_line = rfile.readline()
        assert b"200" in status_line, status_line
        while rfile.readline() not in (b"\r\n", b"\n"):
            pass
        # First chunk (the plan event) arrives before the evaluation's
        # 1.2s stall — SIGTERM lands mid-stream.
        size = int(rfile.readline().strip(), 16)
        plan = json.loads(rfile.read(size))
        rfile.read(2)
        assert plan["event"] == "plan" and plan["chains"] == 1
        proc.send_signal(signal.SIGTERM)
        signalled = time.monotonic()

        events = _read_chunked(rfile)
        assert events[-1]["event"] == "done"
        result_events = [e for e in events if e.get("event") == "result"]
        assert result_events and all(e["ok"] for e in result_events)
        assert rfile.readline() == b""  # draining: connection closed
        rfile.close()

    assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    assert time.monotonic() - signalled < 5.0
    assert not any(pid_alive(pid) for pid in worker_pids)
