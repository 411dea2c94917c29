"""Benchmark harness: one runnable experiment per table/figure.

Experiments are declarative: they publish the metric scenarios they
need (:mod:`repro.experiments.scenarios`), the scheduler
(:func:`repro.experiments.runner.run_experiments`) dedupes and
evaluates them against the persistent store
(:mod:`repro.experiments.store`), and each experiment consumes the
shared results mapping.
"""

from .config import DEFAULT_SEED, SCALES, Scale, get_scale
from .failures import (
    EvaluationCancelled,
    EvaluationFailure,
    FailureLog,
    Incident,
)
from .faults import Fault, FaultPlan
from .registry import (
    ExperimentResult,
    ExperimentSpec,
    aggregate_trials,
    all_experiments,
    get_experiment,
)
from .runner import (
    ExperimentContext,
    SupervisionPolicy,
    evaluate_requests,
    make_context,
    run_experiment,
    run_experiments,
)
from .scenarios import EvalRequest, EvalResults, request_for
from .store import (
    ResultStore,
    ResultStoreBase,
    SqliteResultStore,
    export_jsonl,
    import_jsonl,
    open_store,
)
from .writeup import run_all, run_trials, write_markdown

__all__ = [
    "EvaluationCancelled",
    "EvaluationFailure",
    "FailureLog",
    "Incident",
    "Fault",
    "FaultPlan",
    "SupervisionPolicy",
    "Scale",
    "SCALES",
    "DEFAULT_SEED",
    "get_scale",
    "ExperimentResult",
    "ExperimentSpec",
    "aggregate_trials",
    "all_experiments",
    "get_experiment",
    "ExperimentContext",
    "make_context",
    "evaluate_requests",
    "run_experiment",
    "run_experiments",
    "EvalRequest",
    "EvalResults",
    "request_for",
    "ResultStore",
    "ResultStoreBase",
    "SqliteResultStore",
    "open_store",
    "export_jsonl",
    "import_jsonl",
    "run_all",
    "run_trials",
    "write_markdown",
]
