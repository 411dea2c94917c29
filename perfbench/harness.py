"""Shared plumbing: paths, scratch dirs, RSS, the run result, proxies.

Everything the benchmark writes stays under ``perfbench/out/`` inside
the checkout (scratch stores, generated EXPERIMENTS.md files, traces).
"""

from __future__ import annotations

import os
import resource
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from .metrics import unit_of
from .trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def child_env() -> dict[str, str]:
    """Environment for the program under test: ``src`` importable."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


class Scratch:
    """A per-run scratch directory under ``perfbench/out/``."""

    def __init__(self) -> None:
        self.path = OUT / f"work-{os.getpid()}"
        self._serial = 0

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self, stem: str) -> Path:
        """A new, not yet existing path (for a cold cache directory)."""
        self._serial += 1
        return self.path / f"{stem}-{self._serial}"


def rss_mb(children: bool, own: bool) -> float:
    """Peak resident set, in MB, of this process and/or the children
    it has waited for (``ru_maxrss`` is in KB on Linux)."""
    peaks = []
    if own:
        peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if children:
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return max(peaks) / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class RunResult:
    """What one run of one workload reports."""

    attempted: int = 0
    failed: int = 0
    #: metric name → (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: extra human-readable rows: (label, text)
    notes: list[tuple[str, str]] = field(default_factory=list)
    #: correctness problems; any entry fails the run
    errors: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = (float(value), unit_of(name))

    def note(self, label: str, text: str) -> None:
        self.notes.append((label, text))

    def error(self, message: str) -> None:
        self.errors.append(message)
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


# ----------------------------------------------------------------------
# Timing proxies (traced runs only)
# ----------------------------------------------------------------------

class TracedStore:
    """Forwarding proxy around a result store that spans each call
    and counts lookups as hits or misses where they happen.

    ``evaluate_requests`` also bumps ``store.hits``/``store.misses``;
    attribute reads and writes pass through to the wrapped store.
    """

    _SPANNED = ("put", "put_record", "raw_record", "refresh")

    def __init__(self, store, tracer: Tracer):
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_tracer", tracer)

    def get(self, scenario_hash: str):
        with self._tracer.span("experiments.store.get"):
            found = self._store.get(scenario_hash)
        self._tracer.count(
            "experiments.store.misses" if found is None else "experiments.store.hits"
        )
        return found

    def __getattr__(self, name: str):
        value = getattr(self._store, name)
        if name not in self._SPANNED:
            return value
        tracer = self._tracer

        def spanned(*args, **kwargs):
            with tracer.span(f"experiments.store.{name}"):
                return value(*args, **kwargs)

        return spanned

    def __setattr__(self, name: str, value) -> None:
        setattr(self._store, name, value)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, scenario_hash: str) -> bool:
        return scenario_hash in self._store


def trace_context(ectx, tracer: Tracer) -> None:
    """Span ``ectx.metric`` / ``metric_chain`` / ``map_tasks`` by
    shadowing the bound methods on this one instance."""
    metric, chain, map_tasks = ectx.metric, ectx.metric_chain, ectx.map_tasks

    def traced_metric(pairs, deployment, model, attack=None):
        with tracer.span(
            "experiments.runner.metric",
            model=model.label, pairs=len(pairs), steps=1,
        ):
            return metric(pairs, deployment, model, attack=attack)

    def traced_chain(pairs, deployments, model, attack=None):
        with tracer.span(
            "experiments.runner.metric",
            model=model.label, pairs=len(pairs), steps=len(deployments),
        ):
            return chain(pairs, deployments, model, attack=attack)

    def traced_map(*args, **kwargs):
        with tracer.span("experiments.runner.map_tasks"):
            return map_tasks(*args, **kwargs)

    ectx.metric = traced_metric
    ectx.metric_chain = traced_chain
    ectx.map_tasks = traced_map
