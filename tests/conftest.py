"""Shared fixtures: small deterministic topologies and routing contexts."""

from __future__ import annotations

import contextlib
import os
import random
import signal
import subprocess
import sys

import pytest
from hypothesis import settings
from hypothesis.database import DirectoryBasedExampleDatabase

from repro import core, topology
from repro.core import certify, fixing

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# Tier-1 is the gate, so it draws the same examples on every run: the
# seed is derived from each test, and no example database carries
# state from one run to the next.  Random exploration is `make fuzz`
# (`--hypothesis-profile=fuzz`): a larger budget, and failures saved
# under a tracked directory so the next run replays them first.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=25
)
settings.register_profile(
    "fuzz",
    max_examples=500,
    database=DirectoryBasedExampleDatabase(
        os.path.join(os.path.dirname(__file__), "fuzz-examples")
    ),
)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def small_topo():
    """A 300-AS synthetic topology shared across the suite."""
    return topology.generate_topology(topology.TopologyParams(n=300, seed=2013))


@pytest.fixture(scope="session")
def small_graph(small_topo):
    return small_topo.graph


@pytest.fixture(scope="session")
def small_ctx(small_graph):
    return core.RoutingContext(small_graph)


@pytest.fixture(scope="session")
def small_tiers(small_graph):
    return topology.classify_tiers(small_graph)


@pytest.fixture()
def rng():
    return random.Random(99)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(cls, name)`` wraps ``cls.name`` until the test ends
    and returns the one-item list holding how often it was called (the
    source has no counters: tests count from outside)."""

    def wrap(cls, name: str) -> list[int]:
        calls = [0]
        real = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
        return calls

    return wrap


@pytest.fixture(scope="module")
def certified():
    """Certify every state call (``fixing._run``) of the module's tests
    before its caller sees the pass (the engine-comparison files)."""
    run = fixing._run

    def certified_run(ctx, *args, **kwargs):
        state = run(ctx, *args, **kwargs)
        certify.certify(ctx, state)
        return state

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixing, "_run", certified_run)
        yield


@pytest.fixture()
def spawn_child():
    """``spawn_child(code, **fields)`` runs ``code.format(src=SRC,
    **fields)`` in a child python (stdout piped as text) in a session of
    its own.  Teardown, after the test's own asserts, SIGKILLs the
    session while it has a member — the child unreaped, or a pool
    worker the test listed in ``child.workers`` still in it — so a
    failed test leaves no worker behind and a recycled pid is never
    signalled."""
    children = []

    def spawn(code: str, **fields) -> subprocess.Popen:
        children.append(subprocess.Popen(
            [sys.executable, "-c", code.format(src=SRC, **fields)],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        ))
        return children[-1]

    def group_of(pid: int) -> int | None:
        with contextlib.suppress(ProcessLookupError):
            return os.getpgid(pid)

    yield spawn
    for child in children:
        workers = getattr(child, "workers", ())
        if child.poll() is None or child.pid in map(group_of, workers):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        child.stdout.close()


@pytest.fixture()
def pid_alive():
    """``pid_alive(pid)``: whether a process with this pid exists (the
    SIGTERM tests assert that a signalled run took its pool workers
    down with it)."""

    def alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True

    return alive


def make_line_graph():
    """1 ← 2 ← 3 ← 4: a customer chain (1 is everyone's transitive provider).

    Edges are (customer, provider): 2 buys from 1, 3 from 2, 4 from 3.
    """
    return topology.graph_from_edges(
        customer_provider=[(2, 1), (3, 2), (4, 3)]
    )


def make_diamond_graph():
    """d=1 with two providers 2 and 3, both customers of top AS 4."""
    return topology.graph_from_edges(
        customer_provider=[(1, 2), (1, 3), (2, 4), (3, 4)]
    )


@pytest.fixture()
def line_graph():
    return make_line_graph()


@pytest.fixture()
def diamond_graph():
    return make_diamond_graph()


def random_small_topology(seed: int, n: int = 60):
    """A tiny random topology for property-style sweeps."""
    params = topology.TopologyParams(n=max(50, n), seed=seed)
    return topology.generate_topology(params)


def random_attack_setup(seed: int, n: int = 60):
    """(graph, ctx, destination, attacker, deployment) from one seed."""
    topo = random_small_topology(seed, n)
    graph = topo.graph
    ctx = core.RoutingContext(graph)
    rnd = random.Random(seed * 7 + 1)
    asns = graph.asns
    destination = rnd.choice(asns)
    attacker = rnd.choice([a for a in asns if a != destination])
    k = rnd.randint(0, len(asns) // 2)
    deployment = core.Deployment.of(rnd.sample(asns, k))
    return graph, ctx, destination, attacker, deployment
