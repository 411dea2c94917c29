"""Service integration tests: the app in-process over real sockets.

Each test spins the asyncio HTTP server on an ephemeral port inside
``asyncio.run`` and talks to it with a minimal raw-socket client (no
extra dependencies) — cold miss → evaluate → warm hit, single-flight
dedupe, chain-progress streaming, job semantics, and the SIGTERM
shutdown drain (reusing the leaked-worker pattern from
``test_vectorized.py``).
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core import SECURITY_SECOND, Deployment
from repro.experiments import open_store
from repro.experiments.scenarios import EvalRequest
from repro.service import Service, create_server

SEED = 2013


def _request(members, pairs=None, seed=SEED):
    return EvalRequest.build(
        scale="tiny",
        seed=seed,
        ixp=False,
        pairs=pairs or [(3, 2)],
        deployment=Deployment.of(members),
        model=SECURITY_SECOND,
    )


class _Client:
    """Minimal HTTP/1.1 client: one keep-alive connection, JSON bodies,
    buffered or chunk-by-chunk NDJSON streaming reads."""

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
        """Buffered request → (status, decoded JSON body)."""
        status, headers = await self._send(method, path, body)
        if headers.get("transfer-encoding") == "chunked":
            chunks = [chunk async for chunk in self._chunks()]
            return status, [json.loads(c) for c in chunks]
        length = int(headers.get("content-length", 0))
        blob = await self.reader.readexactly(length) if length else b""
        return status, json.loads(blob) if blob else None

    async def stream(self, method, path, body=None):
        """Streaming request → (status, async iterator of NDJSON events)."""
        status, headers = await self._send(method, path, body)
        assert headers.get("transfer-encoding") == "chunked"
        assert headers.get("content-type") == "application/x-ndjson"
        return status, self._chunks()

    async def _chunks(self):
        while True:
            size = int((await self.reader.readline()).strip(), 16)
            if size == 0:
                await self.reader.readline()
                return
            data = await self.reader.readexactly(size)
            await self.reader.readexactly(2)  # CRLF
            yield data


def _run(test_coro_factory, tmp_path, backend="sqlite", **service_kwargs):
    """Boot store + service + server, run the coroutine, tear down."""

    async def _main():
        store = open_store(tmp_path / "cache", backend=backend)
        service = Service(store, default_scale="tiny", **service_kwargs)
        server = create_server(service, port=0)
        await server.start()
        client = await _Client(server.port).connect()
        try:
            return await test_coro_factory(client, service, store)
        finally:
            await client.close()
            await server.stop()
            await service.aclose()
            store.close()

    return asyncio.run(_main())


class TestMetricsEndpoint:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        async def scenario(client, service, store):
            request = _request([2, 3])
            body = {"request": request.canonical()}
            status, cold = await client.request("POST", "/v1/metrics", body)
            assert status == 200
            (entry,) = cold["results"]
            assert entry["hash"] == request.scenario_hash
            assert entry["ok"] and not entry["cached"]
            assert cold["failed"] == 0
            assert request.scenario_hash in store

            status, warm = await client.request("POST", "/v1/metrics", body)
            assert status == 200
            (entry2,) = warm["results"]
            assert entry2["cached"]
            assert entry2["result"] == entry["result"]
            assert service.evaluations == 1  # the warm hit evaluated nothing
            assert service.hits == 1 and service.misses == 1

        _run(scenario, tmp_path)

    def test_simplex_is_for_stubs(self, tmp_path):
        """A simplex member with customers is that scenario's failed
        result (the sweeps reject it); stub-only simplex evaluates."""
        from repro.experiments import make_context

        with make_context("tiny", seed=SEED) as ectx:
            graph = ectx.graph
        stub = next(a for a in graph.asns if graph.is_stub(a) and a > 3)
        transit = next(a for a in graph.asns if not graph.is_stub(a) and a > 3)

        def simplex_request(member):
            return EvalRequest.build(
                scale="tiny", seed=SEED, ixp=False, pairs=[(3, 2)],
                deployment=Deployment(simplex=frozenset([member])),
                model=SECURITY_SECOND,
            )

        async def scenario(client, service, store):
            good, bad = simplex_request(stub), simplex_request(transit)
            status, reply = await client.request(
                "POST", "/v1/metrics",
                {"requests": [good.canonical(), bad.canonical()]},
            )
            assert status == 200
            ok, failed = reply["results"]
            assert ok["ok"] and ok["hash"] == good.scenario_hash
            assert not failed["ok"] and failed["hash"] == bad.scenario_hash
            assert f"{transit} have customers" in failed["error"]
            assert reply["failed"] == 1
            assert bad.scenario_hash not in store
            assert service.failure_log.kinds() == {"chain_failed"}

        _run(scenario, tmp_path)

    def test_unroutable_pair_is_that_scenarios_failed_result(self, tmp_path):
        """``parse_metrics_body`` cannot know the graph: a self-pair or
        an ASN outside it is rejected by the scheduler, before any
        evaluation, and comes back as a structured failure."""

        async def scenario(client, service, store):
            good = _request([2])
            self_pair = _request([2], pairs=[(3, 3)])
            unknown = _request([2], pairs=[(10**6, 2)])
            status, reply = await client.request(
                "POST", "/v1/metrics",
                {"requests": [r.canonical() for r in (good, self_pair, unknown)]},
            )
            assert status == 200
            ok, same, outside = reply["results"]
            assert ok["ok"] and ok["hash"] == good.scenario_hash
            assert not same["ok"] and "must differ" in same["error"]
            assert not outside["ok"]
            assert f"AS {10**6} not in graph" in outside["error"]
            assert reply["failed"] == 2
            assert self_pair.scenario_hash not in store
            assert unknown.scenario_hash not in store

        _run(scenario, tmp_path)

    def test_batch_is_deduped_and_ordered(self, tmp_path):
        async def scenario(client, service, store):
            a, b = _request([2]), _request([2, 3])
            body = {
                "requests": [a.canonical(), b.canonical(), a.canonical()]
            }
            status, reply = await client.request("POST", "/v1/metrics", body)
            assert status == 200
            hashes = [entry["hash"] for entry in reply["results"]]
            assert hashes == [
                a.scenario_hash,
                b.scenario_hash,
                a.scenario_hash,
            ]
            # The duplicate collapsed onto one evaluation.
            assert service.evaluations == 2

        _run(scenario, tmp_path)

    def test_single_flight_dedupes_concurrent_identicals(
        self, tmp_path, monkeypatch
    ):
        """Two concurrent identical requests → one pool evaluation; the
        second coalesces onto the first's in-flight future."""
        import repro.service.app as app_module

        real = app_module.evaluate_requests
        calls = []

        def slow_evaluate(ectx, requests, store=None, cancel=None):
            calls.append([r.scenario_hash for r in requests])
            time.sleep(0.3)  # hold the evaluation open for the 2nd rider
            return real(ectx, requests, store, cancel=cancel)

        monkeypatch.setattr(app_module, "evaluate_requests", slow_evaluate)

        async def scenario(client, service, store):
            second = await _Client(client.port).connect()
            request = _request([2, 3])
            body = {"request": request.canonical()}

            async def post(c, delay):
                await asyncio.sleep(delay)
                return await c.request("POST", "/v1/metrics", body)

            (s1, r1), (s2, r2) = await asyncio.gather(
                post(client, 0), post(second, 0.1)
            )
            await second.close()
            assert s1 == s2 == 200
            assert len(calls) == 1, calls  # exactly one pool evaluation
            assert service.coalesced == 1
            one, two = r1["results"][0], r2["results"][0]
            assert one["ok"] and two["ok"]
            assert one["result"] == two["result"]
            assert [e for e in (one, two) if e.get("coalesced")]

        _run(scenario, tmp_path)

    def test_chain_progress_streams_per_step(self, tmp_path):
        """A nested-deployment rollout streams one chunked NDJSON event
        per step, plus plan/done framing — and a cached step answers
        from the store on the next streamed request."""

        async def scenario(client, service, store):
            chain = [
                _request([2]),
                _request([2, 3]),
                _request([2, 3, 4]),
            ]
            body = {
                "requests": [r.canonical() for r in chain],
                "stream": True,
            }
            status, chunks = await client.stream(
                "POST", "/v1/metrics", body
            )
            assert status == 200
            events = [json.loads(chunk) async for chunk in chunks]
            assert events[0]["event"] == "plan"
            assert events[0] == {
                "event": "plan",
                "scenarios": 3,
                "cached": 0,
                "coalesced": 0,
                "chains": 1,
            }
            assert events[-1] == {"event": "done", "scenarios": 3}
            results = [e for e in events if e["event"] == "result"]
            assert [(e["step"], e["steps"]) for e in results] == [
                (0, 3),
                (1, 3),
                (2, 3),
            ]
            assert [e["hash"] for e in results] == [
                r.scenario_hash for r in chain
            ]
            assert all(e["ok"] and not e["cached"] for e in results)

            # Second streamed run: every step is a store hit now.
            status, chunks = await client.stream(
                "POST", "/v1/metrics", body
            )
            warm = [json.loads(chunk) async for chunk in chunks]
            assert warm[0]["event"] == "plan"
            assert warm[0]["cached"] == 3 and warm[0]["chains"] == 0
            warm_results = [e for e in warm if e["event"] == "result"]
            assert all(e["cached"] for e in warm_results)
            assert {e["hash"] for e in warm_results} == {
                r.scenario_hash for r in chain
            }

        _run(scenario, tmp_path)

    def test_validation_errors(self, tmp_path):
        async def scenario(client, service, store):
            status, reply = await client.request("POST", "/v1/metrics", {})
            assert status == 400 and "error" in reply
            status, reply = await client.request(
                "POST",
                "/v1/metrics",
                {"request": dict(_request([2]).canonical(), scale="galaxy")},
            )
            assert status == 400
            assert "galaxy" in reply["error"]
            status, _ = await client.request("GET", "/v1/nope")
            assert status == 404
            status, _ = await client.request("DELETE", "/v1/metrics")
            assert status == 405

        _run(scenario, tmp_path)


class TestScenarioEndpoint:
    def test_get_scenario_serves_stored_record(self, tmp_path):
        async def scenario(client, service, store):
            request = _request([2, 3])
            await client.request(
                "POST", "/v1/metrics", {"request": request.canonical()}
            )
            status, record = await client.request(
                "GET", f"/v1/scenarios/{request.scenario_hash}"
            )
            assert status == 200
            assert record["hash"] == request.scenario_hash
            assert record["request"] == request.canonical()
            assert "crc" not in record
            status, reply = await client.request(
                "GET", "/v1/scenarios/doesnotexist"
            )
            assert status == 404 and "error" in reply

        _run(scenario, tmp_path)


class TestExperimentsAndJobs:
    def test_run_job_to_completion_with_incidents(self, tmp_path):
        async def scenario(client, service, store):
            status, listing = await client.request("GET", "/v1/experiments")
            assert status == 200
            ids = [e["id"] for e in listing["experiments"]]
            assert "baseline" in ids
            status, job = await client.request(
                "POST", "/v1/experiments/baseline/run", {"scale": "tiny"}
            )
            assert status == 202
            assert job["state"] in ("pending", "running")
            deadline = time.monotonic() + 120
            while True:
                status, job = await client.request(
                    "GET", f"/v1/jobs/{job['id']}"
                )
                assert status == 200
                if job["state"] in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, job
                await asyncio.sleep(0.05)
            assert job["state"] == "done", job
            assert job["result"]["rows"]
            assert isinstance(job["incidents"], list)
            assert len(store) > 0  # the run persisted its scenarios
            # The job shows up in the experiments listing.
            status, listing = await client.request("GET", "/v1/experiments")
            assert [j["id"] for j in listing["jobs"]] == [job["id"]]

        _run(scenario, tmp_path)

    def test_cancel_running_job(self, tmp_path, monkeypatch):
        """``DELETE /v1/jobs/{id}`` cooperatively cancels a running
        job; cancelling a terminal job is a 409; the cancelled state is
        durable in the store."""
        import repro.service.jobs as jobs_module

        from repro.experiments.failures import EvaluationCancelled

        entered = threading.Event()
        release = threading.Event()

        def stalled_run(ectx, experiment_id, store, cancel=None):
            entered.set()
            release.wait(timeout=30)
            if cancel is not None and cancel():
                raise EvaluationCancelled("cancelled between chains")
            raise AssertionError("job was never cancelled")

        monkeypatch.setattr(jobs_module, "run_experiment", stalled_run)

        async def scenario(client, service, store):
            status, job = await client.request(
                "POST", "/v1/experiments/baseline/run", {"scale": "tiny"}
            )
            assert status == 202
            deadline = time.monotonic() + 30
            while not entered.is_set():
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            status, reply = await client.request(
                "DELETE", f"/v1/jobs/{job['id']}"
            )
            assert status == 202 and reply["cancel_requested"]
            release.set()
            deadline = time.monotonic() + 30
            while True:
                status, reply = await client.request(
                    "GET", f"/v1/jobs/{job['id']}"
                )
                if reply["state"] not in ("pending", "running"):
                    break
                assert time.monotonic() < deadline, reply
                await asyncio.sleep(0.02)
            assert reply["state"] == "cancelled", reply
            assert "cancelled" in reply["error"]
            assert any("job_cancelled" in i for i in reply["incidents"])
            status, reply = await client.request(
                "DELETE", f"/v1/jobs/{job['id']}"
            )
            assert status == 409 and "already cancelled" in reply["error"]
            # The terminal state becomes durable (the final persist can
            # land a beat after the in-memory transition).
            deadline = time.monotonic() + 30
            while True:
                record = store.raw_record(f"job:{job['id']}")
                if record["result"]["state"] == "cancelled":
                    break
                assert time.monotonic() < deadline, record
                await asyncio.sleep(0.02)

        _run(scenario, tmp_path)

    def test_unknown_experiment_and_job_404(self, tmp_path):
        async def scenario(client, service, store):
            status, reply = await client.request(
                "POST", "/v1/experiments/figure99/run", {}
            )
            assert status == 404 and "figure99" in reply["error"]
            status, _ = await client.request("GET", "/v1/jobs/job-9999")
            assert status == 404

        _run(scenario, tmp_path)

    @pytest.mark.parametrize(
        "body",
        [
            {"seed": "abc"},
            {"scale": "bogus"},
            {"scale": "tiny", "ixp": "false"},
            {"scale": ["tiny"]},
        ],
        ids=["seed-str", "scale-unknown", "ixp-str", "scale-list"],
    )
    def test_run_body_is_validated_before_a_job_exists(self, tmp_path, body):
        async def scenario(client, service, store):
            status, reply = await client.request(
                "POST", "/v1/experiments/baseline/run", body
            )
            assert status == 400, reply
            status, listing = await client.request("GET", "/v1/experiments")
            assert status == 200 and listing["jobs"] == []

        _run(scenario, tmp_path)


class TestHealthAndStats:
    def test_healthz_and_stats_shape(self, tmp_path):
        async def scenario(client, service, store):
            status, health = await client.request("GET", "/v1/healthz")
            assert status == 200 and health["status"] == "ok"
            request = _request([2, 3])
            body = {"request": request.canonical()}
            await client.request("POST", "/v1/metrics", body)
            await client.request("POST", "/v1/metrics", body)
            status, stats = await client.request("GET", "/v1/stats")
            assert status == 200
            assert stats["cache"]["hits"] == 1
            assert stats["cache"]["misses"] == 1
            assert stats["cache"]["hit_rate"] == 0.5
            assert stats["store"]["backend"] == "SqliteResultStore"
            assert stats["store"]["records"] == 1
            assert stats["contexts"]["resident"] == [
                {"scale": "tiny", "seed": SEED, "ixp": False}
            ]
            assert stats["evaluations"] == 1
            assert stats["inflight"] == 0
            assert "incidents" in stats

        _run(scenario, tmp_path)

    def test_lru_eviction_caps_resident_contexts(self, tmp_path):
        async def scenario(client, service, store):
            for seed in (1, 2, 3):
                await client.request(
                    "POST",
                    "/v1/metrics",
                    {"request": _request([2], seed=seed).canonical()},
                )
            status, stats = await client.request("GET", "/v1/stats")
            resident = stats["contexts"]["resident"]
            assert len(resident) == 2  # max_contexts enforced
            assert [c["seed"] for c in resident] == [2, 3]  # LRU evicted 1

        _run(scenario, tmp_path, max_contexts=2)


class TestServiceRestart:
    def test_warm_across_service_restarts(self, tmp_path):
        """The cache outlives the service: a new Service over the same
        store answers the same scenario without re-evaluating."""
        request = _request([2, 3])
        body = {"request": request.canonical()}

        async def cold(client, service, store):
            _, reply = await client.request("POST", "/v1/metrics", body)
            assert not reply["results"][0]["cached"]
            return reply["results"][0]["result"]

        async def warm(client, service, store):
            _, reply = await client.request("POST", "/v1/metrics", body)
            assert reply["results"][0]["cached"]
            assert service.evaluations == 0
            return reply["results"][0]["result"]

        first = _run(cold, tmp_path)
        second = _run(warm, tmp_path)
        assert first == second  # bit-identical payload across restarts

    def test_jobs_survive_restart_and_mid_flight_are_failed(
        self, tmp_path
    ):
        """Job records outlive the process: a finished job still
        answers ``GET /v1/jobs/{id}`` after a restart, and a job the
        previous process died under is terminal-ized as failed
        ("interrupted by service restart") instead of vanishing."""
        from repro.service.jobs import Job

        async def first_life(client, service, store):
            status, job = await client.request(
                "POST", "/v1/experiments/baseline/run", {"scale": "tiny"}
            )
            assert status == 202
            deadline = time.monotonic() + 120
            while True:
                status, job = await client.request(
                    "GET", f"/v1/jobs/{job['id']}"
                )
                if job["state"] in ("done", "failed"):
                    break
                assert time.monotonic() < deadline, job
                await asyncio.sleep(0.05)
            assert job["state"] == "done", job
            return job["id"]

        job_id = _run(first_life, tmp_path)

        # Plant a job the "previous process" never finished.
        store = open_store(tmp_path / "cache", backend="sqlite")
        zombie = Job(
            id="job-7777",
            experiment_id="baseline",
            scale="tiny",
            seed=SEED,
            ixp=False,
            state="running",
        )
        store.put_record(zombie.record())
        store.close()

        async def second_life(client, service, store):
            status, job = await client.request(
                "GET", f"/v1/jobs/{job_id}"
            )
            assert status == 200
            assert job["state"] == "done"
            assert job["result"]["rows"]  # full payload restored
            status, job = await client.request("GET", "/v1/jobs/job-7777")
            assert status == 200
            assert job["state"] == "failed"
            assert "interrupted by service restart" in job["error"]
            assert service.failure_log.count("job_interrupted") == 1
            # The id counter resumed past the restored history.
            status, fresh = await client.request(
                "POST", "/v1/experiments/baseline/run", {"scale": "tiny"}
            )
            assert status == 202
            assert int(fresh["id"].rsplit("-", 1)[-1]) > 7777

        _run(second_life, tmp_path)


class TestHTTPLayer:
    """The HTTP primitives directly — routing, parsing, error paths."""

    def test_router_match_and_errors(self):
        from repro.service import HTTPError, Router

        async def handler(request):  # pragma: no cover - never dispatched
            raise AssertionError

        router = Router()
        router.add("GET", "/v1/things/{name}", handler)
        matched, params = router.match("GET", "/v1/things/abc%20d")
        assert matched is handler
        assert params == {"name": "abc d"}  # %-decoded capture
        with pytest.raises(HTTPError) as excinfo:
            router.match("POST", "/v1/things/abc")
        assert excinfo.value.status == 405
        with pytest.raises(HTTPError) as excinfo:
            router.match("GET", "/v1/other")
        assert excinfo.value.status == 404

    def test_request_json_and_response_bodies(self):
        from repro.service import HTTPError, Request, Response

        assert Request("GET", "/").json() == {}
        with pytest.raises(HTTPError) as excinfo:
            Request("GET", "/", body=b"{nope").json()
        assert excinfo.value.status == 400
        assert Response().body == b""
        assert Response(body=b"raw").body == b"raw"
        assert json.loads(Response({"a": 1}).body) == {"a": 1}

    def test_parse_metrics_body_rejections(self):
        from repro.service.http import HTTPError
        from repro.service.schemas import MAX_BATCH, parse_metrics_body

        canonical = _request([2]).canonical()
        for payload, fragment in [
            ([], "JSON object"),
            ({"request": canonical, "requests": [canonical]}, "not both"),
            ({"requests": []}, "non-empty"),
            ({"requests": "nope"}, "non-empty"),
            ({"requests": [canonical] * (MAX_BATCH + 1)}, "exceeds"),
            ({"requests": [{"scale": "tiny"}]}, "requests[0]"),
            ({"request": canonical, "deadline_ms": 0}, "deadline_ms"),
            ({"request": canonical, "deadline_ms": -5}, "deadline_ms"),
            ({"request": canonical, "deadline_ms": "soon"}, "deadline_ms"),
            ({"request": canonical, "deadline_ms": True}, "deadline_ms"),
        ]:
            with pytest.raises(HTTPError) as excinfo:
                parse_metrics_body(payload)
            assert excinfo.value.status == 400
            assert fragment in excinfo.value.message
        requests, stream, deadline_ms = parse_metrics_body(
            {"requests": [canonical], "stream": True}
        )
        assert stream and requests[0].scenario_hash == (
            _request([2]).scenario_hash
        )
        assert deadline_ms is None  # server default applies
        _requests, _stream, deadline_ms = parse_metrics_body(
            {"requests": [canonical], "deadline_ms": 1500}
        )
        assert deadline_ms == 1500

    def test_idle_keep_alive_timeout_closes_connection(self):
        """A keep-alive connection idle past the timeout is closed by
        the server, so dangling clients cannot pin sockets forever."""
        from repro.service import HTTPServer, Response, Router

        async def ping(request):
            return Response({"pong": True})

        async def scenario():
            router = Router()
            router.add("GET", "/ping", ping)
            server = HTTPServer(router, port=0, keep_alive_timeout=0.2)
            await server.start()
            client = await _Client(server.port).connect()
            try:
                status, reply = await client.request("GET", "/ping")
                assert status == 200 and reply == {"pong": True}
                assert server.connections == 1
                # Idle past the timeout: the server hangs up cleanly.
                assert await client.reader.read(1) == b""
                for _ in range(40):
                    if server.connections == 0:
                        break
                    await asyncio.sleep(0.05)
                assert server.connections == 0
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())

    def test_wire_level_error_paths(self, tmp_path):
        """Malformed framing, handler crashes, and mid-stream failures
        answer cleanly instead of wedging the connection."""
        from repro.service import HTTPServer, Response, Router

        async def boom(request):
            raise RuntimeError("kaboom")

        async def half_stream(request):
            async def events():
                yield {"event": "plan"}
                raise RuntimeError("mid-stream")

            return events()

        async def echo_query(request):
            return Response({"query": request.query})

        async def scenario():
            router = Router()
            router.add("GET", "/boom", boom)
            router.add("GET", "/stream", half_stream)
            router.add("GET", "/echo", echo_query)
            server = HTTPServer(router, port=0)
            await server.start()
            client = await _Client(server.port).connect()
            try:
                status, reply = await client.request("GET", "/boom")
                assert status == 500
                assert "kaboom" in reply["error"]
                status, events = await client.request("GET", "/stream")
                assert status == 200  # status long gone when it failed
                assert events[0] == {"event": "plan"}
                assert "mid-stream" in events[1]["error"]
                status, reply = await client.request(
                    "GET", "/echo?a=1&b=two"
                )
                assert reply["query"] == {"a": "1", "b": "two"}

                # Garbage content-length: answered 400, connection drops.
                bad = await _Client(server.port).connect()
                bad.writer.write(
                    b"GET /echo HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
                await bad.writer.drain()
                head = await bad.reader.readline()
                assert b"400" in head
                await bad.close()

                # Malformed request line: same treatment.
                bad = await _Client(server.port).connect()
                bad.writer.write(b"NONSENSE\r\n\r\n")
                await bad.writer.drain()
                head = await bad.reader.readline()
                assert b"400" in head
                await bad.close()
                await client.close()
            finally:
                await server.stop()
                await server.stop()  # idempotent

        asyncio.run(scenario())


_SHUTDOWN_CHILD = r"""
import asyncio, signal, sys
sys.path.insert(0, {src!r})
from repro.core import Deployment, SECURITY_SECOND
from repro.experiments import open_store
from repro.experiments.runner import evaluate_requests
from repro.experiments.scenarios import EvalRequest
from repro.service import Service, create_server

async def main():
    store = open_store({cache!r}, backend="sqlite")
    service = Service(store, default_scale="tiny", processes=2)
    # Resident context with a forked, warmed pool.
    ectx, _lock = await service.context_for("tiny", 2013, False)
    request = EvalRequest.build(
        scale="tiny", seed=2013, ixp=False, pairs=[(3, 2)],
        deployment=Deployment.of([2, 3]), model=SECURITY_SECOND,
    )
    evaluate_requests(ectx, [request], store)
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


def test_sigterm_drains_and_takes_pool_workers_down(tmp_path, pid_alive):
    """SIGTERM on a serving process with a warm pool must drain
    gracefully: exit ``128+SIGTERM`` promptly and leave no pool worker
    behind (the pattern from ``test_vectorized.py``'s SIGTERM test,
    applied to the service)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = _SHUTDOWN_CHILD.format(
        src=os.path.abspath(src), cache=str(tmp_path / "cache")
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child], stdout=subprocess.PIPE, text=True
    )
    try:
        line = proc.stdout.readline().split()
        assert line[0] == "READY" and len(line) == 4, line
        worker_pids = [int(pid) for pid in line[2:]]
        assert all(pid_alive(pid) for pid in worker_pids)
        proc.send_signal(signal.SIGTERM)
        signalled = time.monotonic()
        returncode = proc.wait(timeout=60)
        exit_s = time.monotonic() - signalled
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert returncode == 128 + signal.SIGTERM
    assert exit_s < 5.0
    assert not any(pid_alive(pid) for pid in worker_pids)


def test_pool_torn_down_right_after_fork_reaps_promptly(pid_alive):
    """A pool terminated right after it forked still goes down at once:
    the fork holds SIGTERM blocked until a worker has reset the handler
    it inherited — here a no-op one, as an asyncio server installs —
    instead of the worker swallowing the signal and waiting out
    ``join``'s 10 s kill."""
    from repro.experiments import make_context

    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        with make_context("tiny", seed=2013, processes=2) as ectx:
            for _ in range(8):
                pids = ectx._ensure_pool().worker_pids
                started = time.monotonic()
                ectx.close()
                assert time.monotonic() - started < 5.0
                assert not any(pid_alive(pid) for pid in pids)
    finally:
        signal.signal(signal.SIGTERM, previous)
