"""What an experiment context keeps once it is built.

Inside ``topology/`` and ``core/`` an AS is a dense index into numpy
arrays; ASN-keyed views are built only when an edge caller asks.  These
tests hold a ``medium`` context (2 200 ASes) to that: no python
container with an entry per AS is reachable from its graph, tiers,
routing context or scenario catalog, and tracemalloc's count of the
bytes it retains is pinned a small margin above its CSR arrays.
"""

from __future__ import annotations

import gc
import tracemalloc
import types

import pytest

from repro.experiments import make_context
from repro.topology.graph import _ARRAYS

#: Bytes a ``medium`` context retains beyond its six CSR arrays: 21 KB
#: (the tier codes and index arrays, the context's zero mask, the
#: objects themselves).  An ASN → anything dict at this size is about
#: 100 KB, so it cannot hide in the margin.
RETAINED_OVER_CSR = 32_000

_CONTAINERS = (dict, set, frozenset, list, tuple)
_SKIP = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)


def _large_containers(roots: dict, size: int) -> list[str]:
    """A path to every dict, set, frozenset, list or tuple of at least
    ``size`` entries reachable from ``roots`` (name → object)."""
    found = []
    seen: set[int] = set()
    stack = [(name, obj) for name, obj in roots.items()]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SKIP):
            continue
        seen.add(id(obj))
        if isinstance(obj, _CONTAINERS) and len(obj) >= size:
            found.append(f"{path}: {type(obj).__name__} of {len(obj)}")
        stack.extend(
            (f"{path} -> {type(child).__name__}", child)
            for child in gc.get_referents(obj)
        )
    return found


@pytest.fixture(scope="module")
def medium():
    ectx = make_context("medium")
    yield ectx
    ectx.close()


def test_no_container_per_as_outlives_set_up(medium):
    """Nothing the context keeps has an entry per AS, the catalog's
    deployments (one of them every AS) included."""
    for name in (
        "t1_stubs", "t1_stubs_cp", "t2_top13_stubs", "nonstubs", "t12_full",
        "t2_full", "everywhere",
    ):
        medium.catalog.get(name)
    roots = {
        "graph": medium.graph,
        "tiers": medium.tiers,
        "graph_ctx": medium.graph_ctx,
        "catalog": medium.catalog,
    }
    n = len(medium.graph)
    assert _large_containers(roots, n // 2) == []


def test_the_detector_sees_a_container_per_as(medium):
    """The walk reaches a container nested in another, and one that
    only a slot holds."""
    n = len(medium.graph)
    by_asn = dict.fromkeys(medium.graph.asns, 0)
    assert _large_containers({"held": {"deep": [by_asn]}}, n // 2) == [
        "held -> list -> dict: dict of 2200"
    ]
    medium.graph_ctx._walk = (medium.graph.asns,)
    try:
        found = _large_containers({"graph_ctx": medium.graph_ctx}, n // 2)
    finally:
        medium.graph_ctx._walk = None
    assert found == ["graph_ctx -> tuple -> list: list of 2200"]


def test_retained_bytes_of_a_medium_context():
    make_context("tiny").close()  # imports and first-call caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ectx = make_context("medium")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    graph = ectx.graph
    csr = sum(getattr(graph, name).nbytes for name in _ARRAYS)
    ectx.close()
    assert retained <= csr + RETAINED_OVER_CSR, retained - csr
