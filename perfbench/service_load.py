"""``service_mixed_small``: the serve subprocess under a mixed load.

Closed loop, two clients, one keep-alive connection each — callers of
this service are scripts that wait for each reply.  A seeded script of
6 000 requests mixes warm singles (90 %), warm batches of 16 (5 %),
cold singles (4 %, each a store write) and cold streamed 3-step rollout
chains (1 %), so cache hits are served *beside* in-process cold
evaluations.  The script runs as 15 rounds of 400 requests (≈ 0.55 s);
every round holds exactly that mix for each client, in its own seeded
order, and both clients start a round together.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import checks, layers
from .harness import RunResult, Scratch, child_env, rss_mb
from .stats import median, percentile
from .trace import NullTracer, Tracer
from .workloads import Options, describe, end_to_end

WARM_HASHES = 64
PAIRS_PER_REQUEST = 4
BATCH = 16
COLD_DEPLOYMENT = 20

#: shares of the request mix; a client's script holds exactly these
#: shares of its requests, in a seeded order.
MIX = (("warm", 0.90), ("batch16", 0.05), ("cold", 0.04), ("stream", 0.01))
WARM_ONLY = (("warm", 1.0),)

#: the script: rounds x requests a round, a round split evenly
#: between the two clients.
ROUNDS, ROUND_REQUESTS = 15, 400
SMOKE_ROUNDS, SMOKE_ROUND_REQUESTS = 1, 200

#: spawn-and-prime set-ups (before, after) the script.
SETUPS = (2, 2)
OFFLINE_CHECKS = 8
POST = {"Content-Type": "application/json"}


class Inputs:
    """Everything the load generator sends, made from the seed."""

    def __init__(self, scale_name: str, seed: int):
        from repro.core.deployment import Deployment, tier12_rollout
        from repro.core.rank import SECURITY_MODELS
        from repro.experiments.config import get_scale
        from repro.experiments.scenarios import EvalRequest
        from repro.topology import TopologyParams, classify_tiers, generate_topology

        self.scale_name, self.seed = scale_name, seed
        self.graph = generate_topology(
            TopologyParams(n=get_scale(scale_name).n, seed=seed)
        ).graph
        tiers = classify_tiers(self.graph)
        self._attackers = tiers.non_stubs()
        self._asns = list(self.graph.asns)
        self._models = SECURITY_MODELS
        self._steps = [s.deployment for s in tier12_rollout(self.graph, tiers)]
        self._deployment_of = Deployment.of
        self._build = EvalRequest.build
        rng = random.Random(f"service/{seed}/warm")
        self.warm = [
            self.request(rng, self._steps[-1], self._models[i % len(self._models)])
            for i in range(WARM_HASHES)
        ]
        self.warm_bodies = [
            json.dumps({"request": r.canonical()}).encode() for r in self.warm
        ]
        self.prime_body = json.dumps(
            {"requests": [r.canonical() for r in self.warm]}
        ).encode()

    def request(self, rng: random.Random, deployment, model):
        pairs = set()
        while len(pairs) < PAIRS_PER_REQUEST:
            m, d = rng.choice(self._attackers), rng.choice(self._asns)
            if m != d:
                pairs.add((m, d))
        return self._build(
            scale=self.scale_name, seed=self.seed, ixp=False, pairs=pairs,
            deployment=deployment, model=model,
        )

    def cold_single(self, rng: random.Random):
        members = rng.sample(self._asns, COLD_DEPLOYMENT)
        return self.request(
            rng, self._deployment_of(members), rng.choice(self._models)
        )

    def cold_chain(self, rng: random.Random) -> list:
        head = self.request(rng, self._steps[0], rng.choice(self._models))
        return [head] + [
            self._build(
                scale=self.scale_name, seed=self.seed, ixp=False,
                pairs=head.pairs, deployment=step, model=head.to_model(),
            )
            for step in self._steps[1:]
        ]


class Server:
    """The ``serve`` subprocess, CLI defaults, on an ephemeral port."""

    def __init__(self, inputs: Inputs, scratch: Scratch):
        self._log = open(scratch.fresh("serve-stderr"), "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "--port", "0", "--scale", inputs.scale_name,
                "--seed", str(inputs.seed), "--preload",
                "--cache-dir", str(scratch.fresh("serve-cache")),
            ],
            env=child_env(), cwd=scratch.path, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"serve did not come up: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> int:
        """SIGTERM, wait; the exit status (143 after a clean drain)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def _post(conn, body: bytes) -> tuple[int, dict]:
    conn.request("POST", "/v1/metrics", body=body, headers=POST)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _set_up_again(times: int, inputs: Inputs, scratch: Scratch) -> list[float]:
    """``times`` more spawn-and-prime set-ups, each server stopped at
    once; their walls."""
    walls = []
    for _ in range(times):
        server, wall, _ = start_primed(inputs, scratch)
        server.stop()
        walls.append(wall)
    return walls


def start_primed(inputs: Inputs, scratch: Scratch) -> tuple[Server, float, dict]:
    """Spawn → listening → one batched POST priming the warm hashes.

    Returns the server, the set-up wall and hash → primed result."""
    started = time.perf_counter()
    server = Server(inputs, scratch)
    try:
        conn = server.connect()
        status, reply = _post(conn, inputs.prime_body)
        conn.close()
        wall = time.perf_counter() - started
        if status != 200 or reply["failed"]:
            raise RuntimeError(f"priming failed: {status} {reply}")
    except BaseException:
        server.stop()
        raise
    primed = {e["hash"]: e["result"] for e in reply["results"]}
    return server, wall, primed


class Client:
    """One closed-loop client: next request only after the reply."""

    def __init__(self, index, server, inputs, primed, tracer, mix):
        self.rng = random.Random(f"service/{inputs.seed}/client/{index}")
        self.inputs, self.primed = inputs, primed
        self.tracer, self.mix = tracer, mix
        self.conn = server.connect()
        self.samples: dict[str, list[float]] = {
            "warm": [], "batch16": [], "cold": [], "stream": [], "stream_ttfe": [],
        }
        self.attempted = 0
        self.problems: list[str] = []
        #: (request, reply result) of every cold scenario, for the
        #: offline check.
        self.cold: list[tuple[object, dict]] = []

    def round(self, limit: int) -> None:
        """``limit`` requests holding exactly the mix's shares."""
        script = [
            kind for kind, share in self.mix for _ in range(round(share * limit))
        ]
        self.rng.shuffle(script)
        with self.tracer.span("client"):
            for kind in script:
                self.attempted += 1
                with self.tracer.span(f"client.{kind}"):
                    getattr(self, f"_{kind}")(self.conn)

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def _check_warm(self, entry: dict) -> None:
        self._expect(
            entry.get("ok") and entry.get("result") == self.primed[entry["hash"]],
            f"warm reply for {entry.get('hash')} differs from the primed record",
        )

    def _warm(self, conn) -> None:
        i = self.rng.randrange(WARM_HASHES)
        started = time.perf_counter()
        status, reply = _post(conn, self.inputs.warm_bodies[i])
        self.samples["warm"].append(time.perf_counter() - started)
        self._expect(status == 200, f"warm single: HTTP {status}")
        if status == 200:
            self._check_warm(reply["results"][0])

    def _batch16(self, conn) -> None:
        picks = self.rng.sample(self.inputs.warm, BATCH)
        body = json.dumps({"requests": [r.canonical() for r in picks]}).encode()
        started = time.perf_counter()
        status, reply = _post(conn, body)
        self.samples["batch16"].append(time.perf_counter() - started)
        self._expect(status == 200, f"warm batch: HTTP {status}")
        if status == 200:
            for entry in reply["results"]:
                self._check_warm(entry)

    def _cold(self, conn) -> None:
        request = self.inputs.cold_single(self.rng)
        body = json.dumps({"request": request.canonical()}).encode()
        started = time.perf_counter()
        status, reply = _post(conn, body)
        self.samples["cold"].append(time.perf_counter() - started)
        self._expect(status == 200, f"cold single: HTTP {status}")
        if status == 200:
            entry = reply["results"][0]
            self._expect(entry["ok"], f"cold single failed: {entry.get('error')}")
            if entry["ok"]:
                self.cold.append((request, entry["result"]))

    def _stream(self, conn) -> None:
        chain = self.inputs.cold_chain(self.rng)
        by_hash = {r.scenario_hash: r for r in chain}
        body = json.dumps(
            {"requests": [r.canonical() for r in chain], "stream": True}
        ).encode()
        started = time.perf_counter()
        conn.request("POST", "/v1/metrics", body=body, headers=POST)
        response = conn.getresponse()
        first = None
        results = 0
        while True:
            line = response.readline()
            if not line:
                break
            event = json.loads(line)
            if event.get("event") == "result":
                if first is None:
                    first = time.perf_counter() - started
                results += 1
                if event["ok"]:
                    self.cold.append((by_hash[event["hash"]], event["result"]))
        self.samples["stream"].append(time.perf_counter() - started)
        if first is not None:
            self.samples["stream_ttfe"].append(first)
        self._expect(
            response.status == 200 and results == len(chain),
            f"stream: HTTP {response.status}, {results}/{len(chain)} results",
        )


def run_load(
    server, inputs, primed, limit, tracer, clients: int = 2, mix=MIX,
    rounds: int = 1,
) -> tuple[dict[str, list[float]], list[Client], list[float]]:
    """``rounds`` rounds of ``limit`` requests from each of ``clients``
    closed-loop clients; latency samples in ms by kind, the clients,
    and each round's wall (start together → last reply)."""
    members = [
        Client(i, server, inputs, primed, tracer, mix) for i in range(clients)
    ]
    walls = []
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for _ in range(rounds):
            started = time.perf_counter()
            for done in [pool.submit(m.round, limit) for m in members]:
                done.result()
            walls.append(time.perf_counter() - started)
    merged: dict[str, list[float]] = {}
    for member in members:
        member.conn.close()
        for kind, values in member.samples.items():
            merged.setdefault(kind, []).extend(v * 1e3 for v in values)
    return merged, members, walls


def run_service(
    opts: Options, tracer: Tracer | NullTracer, scratch: Scratch
) -> RunResult:
    result = RunResult()
    scale_name = "tiny" if opts.smoke else "small"
    inputs = Inputs(scale_name, opts.seed)
    if opts.trace:
        layers.probe_topology(tracer, result, len(inputs.graph), opts.seed)
    before, after = (1, 0) if opts.smoke or opts.trace else SETUPS
    rounds, requests = (
        (SMOKE_ROUNDS, SMOKE_ROUND_REQUESTS) if opts.smoke
        else (ROUNDS, ROUND_REQUESTS)
    )
    setup_s = _set_up_again(before - 1, inputs, scratch)
    server, wall, primed = start_primed(inputs, scratch)
    setup_s.append(wall)
    try:
        if opts.trace:
            _probe_socket(tracer, result, server, inputs, primed)
        samples, clients, walls = run_load(
            server, inputs, primed, requests // 2, tracer, rounds=rounds
        )
        conn = server.connect()
        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
    finally:
        status = server.stop()
    if status != 128 + signal.SIGTERM:
        result.error(f"serve exited {status}, not {128 + signal.SIGTERM}")
    peak_mb = rss_mb(children=True, own=False)
    setup_s += _set_up_again(after, inputs, scratch)
    result.attempted = sum(c.attempted for c in clients)
    problems = [p for c in clients for p in c.problems]
    result.failed = len(problems)
    for problem in sorted(set(problems))[:10]:
        result.error(problem)
    records = [
        {"hash": r.scenario_hash, "request": r.canonical(), "result": primed[r.scenario_hash]}
        for r in inputs.warm
    ]
    checks.check_records(
        result, opts.workload, opts.seed, opts.smoke, inputs.graph, records
    )
    cold = [item for c in clients for item in c.cold]
    result.failed += _offline_check(result, inputs, cold, opts.seed)
    for kind in ("warm", "batch16", "cold", "stream_ttfe", "stream"):
        if samples[kind]:
            result.note(f"{kind}_ms", describe(samples[kind], "ms"))
    rate = requests / min(walls)
    result.note(
        "requests_per_s",
        f"{rate:.1f} in the fastest of {rounds} rounds of {requests} requests",
    )
    if not opts.trace:
        end_to_end(result, walls, setup_s, peak_mb)
        result.metric("warm_p50_ms", median(samples["warm"]))
        result.metric("cold_p50_ms", median(samples["cold"]))
        result.metric("stream_ttfe_p50_ms", median(samples["stream_ttfe"]))
        return result
    for name, kind, q in (
        ("warm_p99_ms", "warm", 99), ("batch16_p50_ms", "batch16", 50),
        ("cold_p50_ms", "cold", 50), ("cold_p90_ms", "cold", 90),
        ("stream_ttfe_p50_ms", "stream_ttfe", 50),
        ("stream_total_p50_ms", "stream", 50),
    ):
        result.metric(f"service.app.{name}", percentile(samples[kind], q))
    result.metric("service.app.requests_per_s", rate)
    result.metric("service.app.hit_rate", stats["cache"]["hit_rate"] or 0.0)
    result.metric("service.app.coalesced", stats["cache"]["coalesced"])
    result.metric("service.app.shed", stats["admission"]["shed"])
    result.metric("experiments.store.hits", stats["cache"]["hits"])
    result.metric("experiments.store.misses", stats["cache"]["misses"])
    result.metric("experiments.runner.incidents", stats["incidents"]["total"])
    result.note(
        "warm alone vs in mix",
        f"p50 {result.metrics['service.app.warm_alone_p50_ms'][0]:.3f}ms alone, "
        f"{median(samples['warm']):.3f}ms in the mix",
    )
    layers.trace_metrics(tracer, result, "client")
    _probe_inprocess(tracer, result, scratch, inputs, cold)
    layers.probe_store(tracer, result, scratch, records)
    from repro.core.routing import RoutingContext

    with RoutingContext(inputs.graph) as ctx:
        layers.probe_routing(tracer, result, ctx, inputs.warm, opts.seed)
    return result


def _offline_check(result: RunResult, inputs: Inputs, cold: list, seed: int) -> int:
    """A seeded sample of cold replies against ``evaluate_requests`` on
    a context the harness builds itself."""
    from repro.experiments import make_context
    from repro.experiments.runner import evaluate_requests
    from repro.experiments.scenarios import result_to_record

    if not cold:
        result.note("offline_check", "no cold replies in this run")
        return 0
    rng = random.Random(f"offline/{seed}")
    sample = rng.sample(cold, min(OFFLINE_CHECKS, len(cold)))
    mismatches = 0
    with make_context(inputs.scale_name, seed=inputs.seed) as ectx:
        for request, replied in sample:
            offline = evaluate_requests(ectx, [request]).for_request(request)
            if result_to_record(offline) != replied:
                mismatches += 1
                result.error(
                    f"cold reply for {request.scenario_hash} differs from "
                    "offline evaluate_requests"
                )
    result.note(
        "offline_check",
        f"{len(sample) - mismatches}/{len(sample)} cold replies agree with "
        "offline evaluate_requests",
    )
    return mismatches


def _probe_socket(tracer, result, server, inputs, primed) -> None:
    """The socket floor (healthz) and the warm path with nothing else
    running: one client, before the mix starts."""
    conn = server.connect()
    walls = []
    with tracer.span("probe.service.http.healthz"):
        for _ in range(300):
            started = time.perf_counter()
            conn.request("GET", "/v1/healthz")
            conn.getresponse().read()
            walls.append(time.perf_counter() - started)
    conn.close()
    result.metric("service.http.healthz_us_p50", median(walls) * 1e6)
    with tracer.span("probe.service.app.warm_alone"):
        alone, _, _ = run_load(
            server, inputs, primed, 500, NullTracer(), clients=1, mix=WARM_ONLY
        )
    result.metric("service.app.warm_alone_p50_ms", median(alone["warm"]))


def _probe_inprocess(tracer, result, scratch, inputs, cold) -> None:
    """``service.schemas`` and the router handler with no socket."""
    from repro.experiments.scenarios import result_from_record
    from repro.experiments.store import open_store
    from repro.service import Request, Service
    from repro.service.schemas import parse_metrics_body, result_event

    single = json.loads(inputs.warm_bodies[0])
    batch = {"requests": [r.canonical() for r in inputs.warm[:BATCH]]}
    with tracer.span("probe.service.schemas"):
        for name, payload in (("single", single), ("batch16", batch)):
            walls = [layers.timed(parse_metrics_body, payload)[0] for _ in range(200)]
            result.metric(f"service.schemas.parse_us_p50.{name}", median(walls) * 1e6)
        request, replied = cold[0]
        value = result_from_record(replied)
        walls = [
            layers.timed(
                lambda: json.dumps(
                    result_event(request, value, step=0, steps=1, cached=True)
                )
            )[0]
            for _ in range(200)
        ]
        result.metric("service.schemas.event_us_p50", median(walls) * 1e6)
    result.metric("experiments.scenarios.hash_us_p50",
        layers.hash_us_p50(tracer, inputs.warm),
    )

    async def handler_probe() -> None:
        store = open_store(scratch.fresh("probe-service"), backend="sqlite")
        service = Service(
            store, default_scale=inputs.scale_name, default_seed=inputs.seed
        )
        try:
            await service.context_for(inputs.scale_name, inputs.seed, False)

            async def post(body: bytes) -> float:
                started = time.perf_counter()
                await service.handle_metrics(
                    Request("POST", "/v1/metrics", body=body)
                )
                return time.perf_counter() - started

            rng = random.Random(f"service/{inputs.seed}/probe")
            colds = [
                await post(
                    json.dumps(
                        {"request": inputs.cold_single(rng).canonical()}
                    ).encode()
                )
                for _ in range(20)
            ]
            await post(inputs.warm_bodies[0])
            warms = [await post(inputs.warm_bodies[0]) for _ in range(200)]
            started = time.perf_counter()
            await service.context_for(inputs.scale_name, inputs.seed + 1, False)
            build = time.perf_counter() - started
        finally:
            await service.aclose()
            store.close()
        result.metric("service.app.cold_eval_ms_p50", median(colds) * 1e3)
        result.metric("service.app.warm_handler_us_p50", median(warms) * 1e6)
        result.metric("service.app.context_build_ms", build * 1e3)

    with tracer.span("probe.service.app.handler"):
        asyncio.run(handler_probe())
