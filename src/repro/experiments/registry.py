"""Experiment registry: one runnable entry per table/figure of the paper.

An experiment is declared once, by the :class:`ExperimentSpec` it
registers: its title, paper reference and expected shape — what
``list``, ``GET /v1/experiments`` and the write-up print — and two
phases over the scenario plane (:mod:`repro.experiments.scenarios`):

* ``plan(ectx)`` builds the experiment's plan: the metric scenarios it
  needs, as :class:`~repro.experiments.scenarios.EvalRequest` leaves in
  whatever nesting reads best (no plan for gadget/simulator
  experiments);
* ``run(ectx, plan, results)`` reads the plan's evaluated results and
  returns the figure's ``(rows, text)``.

The scheduler (:func:`repro.experiments.runner.run_experiments`) builds
each plan once per context (:meth:`ExperimentSpec.planned`), dedupes
the requests of all plans globally, caches them in the persistent store
and wraps every ``(rows, text)`` into an :class:`ExperimentResult`
carrying the spec's metadata.  Multi-seed trials aggregate the
per-trial rows into mean ± standard-error rows via
:func:`aggregate_trials`.

Example:
    A plan declares one request; ``run`` reads its result:

    >>> from repro.core import BASELINE, Deployment
    >>> from repro.experiments import evaluate_requests, make_context
    >>> from repro.experiments.scenarios import request_for
    >>> def plan(ectx):
    ...     m, d = ectx.graph.asns[:2]
    ...     return {"empty": request_for(ectx, [(m, d)], Deployment.empty(), BASELINE)}
    >>> def run(ectx, plan, results):
    ...     value = results.for_request(plan["empty"]).value
    ...     return [{"H_lower": value.lower}], "one pair under S = ∅"
    >>> spec = ExperimentSpec(
    ...     "demo", "A demo", "Section 4.2", "a shape", run=run, plan=plan
    ... )
    >>> with make_context("tiny") as ectx:
    ...     requests = spec.requests(ectx)
    ...     results = evaluate_requests(ectx, requests)
    ...     rows, text = spec.run(ectx, spec.planned(ectx), results)
    >>> [request.model for request in requests], text
    (['baseline'], 'one pair under S = ∅')
    >>> 0.0 <= rows[0]["H_lower"] <= 1.0
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

from .runner import cached
from .scenarios import EvalRequest, EvalResults, collect_requests

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import ExperimentContext


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``rows`` hold the machine-readable data (one dict per series point);
    ``text`` is the rendered, human-readable reproduction of the figure.
    ``seed``/``ixp`` identify the topology the result came from (IXP
    reruns are a *variant attribute*, not a separate experiment id).
    After multi-seed aggregation, ``rows`` hold per-column means,
    ``row_stderr`` the matching standard errors, and ``trials``/
    ``trial_seeds`` record the provenance.
    """

    experiment_id: str
    title: str
    paper_reference: str
    paper_expectation: str
    rows: list[dict] = field(default_factory=list)
    text: str = ""
    seed: int | None = None
    ixp: bool = False
    trials: int = 1
    trial_seeds: tuple[int, ...] = ()
    row_stderr: list[dict] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Display id: the registry id, tagged for the IXP variant."""
        return self.experiment_id + ("_ixp" if self.ixp else "")

    def render(self) -> str:
        variant = " [IXP graph]" if self.ixp else ""
        header = (
            f"== {self.experiment_id}{variant}: {self.title}\n"
            f"   paper: {self.paper_reference}\n"
            f"   expected shape: {self.paper_expectation}\n"
        )
        if self.trials > 1:
            header += (
                f"   trials: {self.trials} seeds "
                f"{list(self.trial_seeds)} (rows are mean ± stderr)\n"
            )
        return header + "\n" + self.text.rstrip() + "\n"


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry for one experiment: the only place its metadata
    and its phases are declared (see the module docs)."""

    experiment_id: str
    title: str
    paper_reference: str
    paper_expectation: str
    #: ``run(ectx, plan, results) -> (rows, text)``.
    run: Callable[["ExperimentContext", Any, EvalResults], tuple[list[dict], str]]
    #: ``plan(ectx)``: the experiment's requests in any nesting
    #: :func:`~repro.experiments.scenarios.collect_requests` walks;
    #: None when it needs no metric scenarios.
    plan: Callable[["ExperimentContext"], Any] | None = None
    #: whether an Appendix J (IXP-augmented graph) rerun is meaningful.
    supports_ixp: bool = True

    def planned(self, ectx: "ExperimentContext") -> Any:
        """The plan on ``ectx``, built once per context (``plan:<id>``)."""
        if self.plan is None:
            return None
        return cached(ectx, f"plan:{self.experiment_id}", lambda: self.plan(ectx))

    def requests(self, ectx: "ExperimentContext") -> list[EvalRequest]:
        """Every request of the plan on ``ectx``, in plan order."""
        return collect_requests(self.planned(ectx))


_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.experiment_id in _REGISTRY:
        raise ValueError(f"duplicate experiment id {spec.experiment_id!r}")
    _REGISTRY[spec.experiment_id] = spec
    return spec


def get_experiment(experiment_id: str) -> ExperimentSpec:
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; run `list` for options"
        ) from None


def all_experiments() -> dict[str, ExperimentSpec]:
    _ensure_loaded()
    return dict(sorted(_REGISTRY.items()))


def _ensure_loaded() -> None:
    """Import every experiment module exactly once (they self-register)."""
    if _REGISTRY:
        return
    from . import (  # noqa: F401
        exp_ablation,
        exp_attacks,
        exp_baseline,
        exp_downgrade,
        exp_extensions,
        exp_guidelines,
        exp_hardness,
        exp_lp2,
        exp_partitions,
        exp_perdest,
        exp_rollouts,
        exp_rootcause,
        exp_wedgie,
    )


# ----------------------------------------------------------------------
# Multi-seed trial aggregation (mean ± standard error)
# ----------------------------------------------------------------------

def _is_statistic(value: object) -> bool:
    """Numeric row fields are aggregated; strings/bools/None identify rows."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _row_identity(row: dict) -> tuple:
    # None marks a missing statistic (e.g. "no Tier-1 destination drawn
    # for this seed"), so it must not split otherwise-identical rows.
    return tuple(
        (k, v) for k, v in row.items() if v is not None and not _is_statistic(v)
    )


def aggregate_rows(
    row_lists: list[list[dict]],
) -> tuple[list[dict], list[dict]]:
    """Align rows across trials and average their numeric columns.

    Rows are matched by their non-numeric fields (labels, models, tiers,
    flags) plus occurrence order, so per-seed topologies that produce
    the same series points line up even when numeric values differ.
    Returns ``(mean_rows, stderr_rows)``; stderr is the sample standard
    deviation over trials divided by ``sqrt(n)`` (0.0 for ``n == 1``),
    and columns missing in some trials (e.g. a tier absent from one
    topology) are averaged over the trials that have them.
    """
    order: list[tuple] = []
    groups: dict[tuple, list[dict]] = {}
    for rows in row_lists:
        occurrence: dict[tuple, int] = {}
        for row in rows:
            identity = _row_identity(row)
            index = occurrence.get(identity, 0)
            occurrence[identity] = index + 1
            key = (identity, index)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
    mean_rows: list[dict] = []
    stderr_rows: list[dict] = []
    for key in order:
        members = groups[key]
        columns: list[str] = []
        for row in members:  # union of keys, first-seen order
            for column in row:
                if column not in columns:
                    columns.append(column)
        mean_row: dict = {}
        stderr_row: dict = {}
        for column in columns:
            values = [row[column] for row in members if column in row]
            numeric = [v for v in values if _is_statistic(v)]
            if not numeric:
                mean_row[column] = values[0]
                continue
            n = len(numeric)
            mean = sum(numeric) / n
            if n > 1:
                variance = sum((v - mean) ** 2 for v in numeric) / (n - 1)
                stderr = math.sqrt(variance / n)
            else:
                stderr = 0.0
            mean_row[column] = mean
            stderr_row[column] = stderr
        mean_rows.append(mean_row)
        stderr_rows.append(stderr_row)
    return mean_rows, stderr_rows


def fraction_columns(row_lists: list[list[dict]]) -> frozenset[str]:
    """Columns holding metric fractions (for percentage rendering).

    A column is a fraction iff every numeric value it takes across all
    trials is a float in [-1, 1]; integer columns (pair budgets, rollout
    sizes) and wider floats (per-attack averages) render as plain
    numbers in the confidence table.
    """
    ranges: dict[str, bool] = {}
    for rows in row_lists:
        for row in rows:
            for column, value in row.items():
                if not _is_statistic(value):
                    continue
                is_fraction = isinstance(value, float) and -1.0 <= value <= 1.0
                ranges[column] = ranges.get(column, True) and is_fraction
    return frozenset(column for column, frac in ranges.items() if frac)


def aggregate_trials(
    trial_results: list[list[ExperimentResult]],
) -> list[ExperimentResult]:
    """Merge per-trial result lists into mean ± stderr results.

    A single trial is returned untouched (bit-identical rows — the
    ``--trials 1`` path must reproduce golden values exactly); with
    ``K > 1`` the aggregate keeps the first trial's rendered text and
    appends a confidence table built from the aggregated rows.
    """
    if not trial_results:
        return []
    if len(trial_results) == 1:
        return trial_results[0]
    from . import report

    first = trial_results[0]
    aggregated = []
    for position, base in enumerate(first):
        group = [trial[position] for trial in trial_results]
        mismatched = [
            r for r in group
            if r.experiment_id != base.experiment_id or r.ixp != base.ixp
        ]
        if mismatched:
            raise ValueError(
                f"trial results misaligned at position {position}: "
                f"{[r.label for r in group]}"
            )
        trial_rows = [r.rows for r in group]
        mean_rows, stderr_rows = aggregate_rows(trial_rows)
        seeds = tuple(r.seed for r in group if r.seed is not None)
        text = base.text
        if mean_rows:
            text += (
                f"\n\nmean ± stderr over {len(group)} trials "
                f"(topology seeds {list(seeds)}):\n"
                + report.confidence_table(
                    mean_rows, stderr_rows, fraction_columns(trial_rows)
                )
            )
        aggregated.append(
            replace(
                base,
                rows=mean_rows,
                text=text,
                trials=len(group),
                trial_seeds=seeds,
                row_stderr=stderr_rows,
            )
        )
    return aggregated
