"""The names the benchmark and the kernel tool import keep resolving.

``perfbench/`` is the frozen benchmark: it changes only together with
``BENCHMARK.json``, so a refactor elsewhere must leave every name it
imports where it imports it from.  ``tools/kernel_crossover.py``
reaches into the kernel the same way.  This walks every ``from
repro… import …`` in both, resolves it (and every attribute the file
reads off an imported module), checks that the names ROADMAP's
constraint (a) lists are among them, and that the kernel's row budget
is read where the tests and the tool patch it.
"""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

from repro.core import context
from repro.core.context import RoutingContext
from repro.topology import graph_from_edges

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCES = (
    *sorted((REPO_ROOT / "perfbench").glob("*.py")),
    REPO_ROOT / "tools" / "kernel_crossover.py",
)

#: ROADMAP constraint (a): ``(module, name)`` the benchmark imports.
CONSTRAINT_A = (
    ("repro.core.routing", "RoutingContext"),
    ("repro.core.routing", "DestinationSweep"),
    ("repro.core.routing", "batch_happiness_counts"),
    ("repro.core.routing", "rollout_happiness_counts"),
    ("repro.core.routing", "compute_routing_outcome"),
    ("repro.core.metrics", "batch_happiness"),
    ("repro.core.shm", "arena_stats"),
    ("repro.experiments.store", "open_store"),
    ("repro.service", "Request"),
    ("repro.service", "Service"),
    ("repro.service.schemas", "parse_metrics_body"),
    ("repro.service.schemas", "result_event"),
    ("repro.experiments.runner", "evaluate_requests"),
    ("repro.experiments.scenarios", "detect_chains"),
    ("perfbench.workloads", "SWEEP_FAMILY"),
    ("perfbench.workloads", "sweep_scale"),
    ("perfbench.checks", "digest_records"),
)


def _repro_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` per ``from repro… import name``."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(
                "."
            )[0] == "repro":
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


IMPORTS = _repro_imports()


@pytest.mark.parametrize(
    "where, module, name", IMPORTS, ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS]
)
def test_every_imported_name_resolves(where, module, name):
    assert hasattr(importlib.import_module(module), name), f"{where}: {module}.{name}"


def test_constraint_a_names_resolve_and_are_the_imported_ones():
    imported = {(module, name) for _, module, name in IMPORTS}
    sys.path.insert(0, str(REPO_ROOT))
    try:
        for module, name in CONSTRAINT_A:
            assert hasattr(importlib.import_module(module), name), (module, name)
            if module.startswith("repro."):
                assert (module, name) in imported, (module, name)
    finally:
        sys.path.remove(str(REPO_ROOT))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_attributes_read_off_imported_modules_resolve(path):
    """``fixing._run_np``, ``context.NP_ROWS_BUDGET`` and the like: an
    attribute a file reads off a repro module it imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                value = getattr(importlib.import_module(node.module), alias.name)
                if type(value) is type(sys):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            module = modules[node.value.id]
            assert hasattr(module, node.attr), f"{module.__name__}.{node.attr}"


def test_patching_the_row_budget_changes_batch_rows(monkeypatch):
    """``NP_ROWS_BUDGET`` is read at call time from
    :mod:`repro.core.context`, the module tests and
    ``tools/kernel_crossover.py --rows`` patch."""
    ctx = RoutingContext(graph_from_edges(customer_provider=[(2, 1), (3, 1)]))
    assert ctx.batch_rows == context.NP_ROWS_BUDGET // 3
    monkeypatch.setattr(context, "NP_ROWS_BUDGET", 7 * ctx.n)
    assert ctx.batch_rows == 7
    monkeypatch.setattr(context, "NP_ROWS_BUDGET", 1)
    assert ctx.batch_rows == 1
