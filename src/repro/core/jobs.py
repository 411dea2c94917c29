"""Count jobs: happiness counts for many fixing passes at once.

The paper's metric needs only each pass's happy-source counts, so the
count path materializes no :class:`repro.core.outcome.RoutingOutcome`.
:func:`jobs_happiness_counts` plans every pair-step it is asked for as
a pass, runs each distinct pass once as a row of the kernel
(:func:`repro.core.fixing._run_np`), and hands every pair-step its
pass's counts; :func:`rollout_happiness_counts` and
:func:`batch_happiness_counts` are its one-job calls.
:class:`DestinationSweep` walks one destination's attackers by hand,
one pass each, for the benchmark's per-pass probe.
"""

from __future__ import annotations

from typing import Sequence

from ..topology.graph import ASGraph
from . import fixing
from .attacks import DEFAULT_ATTACK, DEFAULT_RESOLVED, AttackStrategy
from .context import _EMPTY_DEPLOYMENT, RoutingContext, _as_context
from .deployment import Deployment
from .rank import BASELINE, RankModel, SecurityModel


class DestinationSweep:
    """Many attackers against one ``(d, deployment, model)``, each one
    fixing pass (:func:`repro.core.fixing._run`).

    The constructor runs the attacker-free pass once and copies the
    three arrays of it that a ``needs_baseline`` strategy (``honest``)
    resolves each attacker from.  The count path,
    :func:`jobs_happiness_counts`, builds no sweep: it shares passes
    across whole batches instead.  Like the context itself, a sweep is
    not thread-safe.

    Example:
        One sweep answers many attackers against one destination and
        is bit-identical to the per-pair engine:

        >>> from repro.topology.graph import ASGraph
        >>> from repro.core.outcome import compute_routing_outcome
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 1), (4, 2), (5, 3)]:
        ...     g.add_customer_provider(customer, provider)
        >>> sweep = DestinationSweep(g, destination=4)
        >>> [sweep.happiness_counts(m) for m in (5, 3, 1)]
        [(2, 2, 3), (1, 2, 3), (1, 1, 3)]
        >>> [compute_routing_outcome(g, 4, attacker=m).count_happy()
        ...  for m in (5, 3, 1)]
        [(2, 2), (1, 2), (1, 1)]
    """

    __slots__ = (
        "_ctx", "_destination", "_model", "_attack", "_signing", "_ranking",
        "_base",
    )

    #: Every attacker pass is one state call of the kernel (read by
    #: perfbench's per-path tally).
    last_delta_path = "dense"

    def __init__(
        self,
        topology: ASGraph | RoutingContext,
        destination: int,
        deployment: Deployment | None = None,
        model: RankModel = BASELINE,
        attack: AttackStrategy = DEFAULT_ATTACK,
    ) -> None:
        ctx = self._ctx = _as_context(topology)
        self._destination = destination
        self._model = model
        self._attack = attack
        dest_i, _ = ctx._check_pair(destination, None)
        signing, ranking = ctx.deployment_masks(deployment or _EMPTY_DEPLOYMENT)
        self._signing, self._ranking = signing, ranking
        free = fixing._run(ctx, dest_i, -1, signing, ranking, model)
        # copies: the arrays are the scratch the next state call reuses
        self._base = {
            name: free.arrays[name].copy() for name in ("fixed", "len", "wire")
        }

    def happiness_counts(self, attacker: int) -> tuple[int, int, int]:
        """``(happy_lower, happy_upper, num_sources)`` for one attacker."""
        ctx = self._ctx
        dest_i, att_i = ctx._check_pair(self._destination, attacker)
        attack = self._attack
        baseline = None
        if attack.needs_baseline:
            baseline = fixing._attacker_baseline(self._base, att_i)
        resolved = attack.resolve(
            dest_signed=bool(self._signing[dest_i]), baseline=baseline
        )
        counts = fixing._run(
            ctx, dest_i, att_i, self._signing, self._ranking, self._model, resolved
        ).counts
        return counts[0], counts[1], ctx.n - 2


def _check_nested(old: Deployment, new: Deployment) -> None:
    """Raise ``ValueError`` unless ``old → new`` is a chain step: both
    the full set and the signing set (full ∪ simplex) may only grow."""
    if not (old.full <= new.full and old.simplex - new.simplex <= new.full):
        raise ValueError(
            "rollout chains must be nested: both the full set and "
            "the signing set may only grow between steps"
        )


def jobs_happiness_counts(
    topology: ASGraph | RoutingContext,
    jobs: Sequence[
        tuple[
            Sequence[tuple[int | None, int]],
            Sequence[Deployment | None],
            RankModel,
            AttackStrategy,
        ]
    ],
) -> list[list[list[tuple[int, int, int]]]]:
    """``(happy_lower, happy_upper, num_sources)`` per pair, per chain
    step, per job: ``result[j][t][i]`` is pair ``i`` of job ``j`` — a
    ``(pairs, deployments, model, attack)`` tuple — under its
    ``deployments[t]``.

    The count-only fast path behind the scenario scheduler, of which
    :func:`rollout_happiness_counts` and :func:`batch_happiness_counts`
    are the one-job calls.  A job's ``deployments`` must be nested
    (``S_t ⊑ S_{t+1}`` per membership mode; one deployment is a chain
    of one step, none is zero steps, ``[]``) and stub-simplex
    (:meth:`RoutingContext.require_stub_simplex`): every job is checked
    before any pass, so a bad job raises ``ValueError`` with nothing
    computed, whatever the pairs are.

    Every pair-step is one fixing pass, and the call runs each
    *distinct* pass once.  Every ``(d, m, S_t)`` resolves its attack
    first (a ``needs_baseline`` strategy resolves every attacker of a
    ``(d, S_t)`` from one attacker-free pass), then keys the pass it
    is.  A *blind* one — the baseline placement, or no signed
    announcement (``d`` does not sign, the attacker is absent, silent
    or unsigned), so no AS holds a secure route and every placement
    orders routes by ``(LP bucket, length)`` alike — is the baseline
    placement's pass of its local preference under no deployment, keyed
    ``(d, m, resolved attack)`` and shared by every step, placement and
    job that asks for it; any other keeps its model, deployment and
    resolved attack.  The distinct passes run as the rows of
    :func:`repro.core.fixing._run_np`, :attr:`RoutingContext.batch_rows`
    to a call.

    Results are in input pair order and bit-identical to one full
    fixing pass per pair and step
    (:func:`repro.core.outcome.batch_outcomes`, the per-pair reference
    the differential tests compare against).
    """
    ctx = _as_context(topology)
    n = ctx.n
    checked = []
    for pairs, deployments, model, attack in jobs:
        deployments = [dep or _EMPTY_DEPLOYMENT for dep in deployments]
        for deployment in deployments:
            ctx.require_stub_simplex(deployment)
        for old, new in zip(deployments, deployments[1:]):
            _check_nested(old, new)
        checked.append((list(pairs), deployments, model, attack))
    results: list[list[list]] = []
    #: model → (dest_i, att_i, deployment, attack, step's out, pair
    #: indices, sources) per row, a job's rows step-major and then by
    #: destination, so that the rows of one ``(d, S_t)`` are neighbours
    rows: dict[RankModel, list[tuple]] = {}
    for pairs, deployments, model, attack in checked:
        out: list[list] = [[None] * len(pairs) for _ in deployments]
        results.append(out)
        if not deployments:
            continue
        groups: dict[int, dict[int | None, list[int]]] = {}
        for i, (m, d) in enumerate(pairs):
            groups.setdefault(d, {}).setdefault(m, []).append(i)
        row_groups = [
            (*ctx._check_pair(d, m), idxs, n - (1 if m is None else 2))
            for d, by_attacker in groups.items()
            for m, idxs in by_attacker.items()
        ]
        model_rows = rows.setdefault(model, [])
        for deployment, step_out in zip(deployments, out):
            for dest_i, att_i, idxs, sources in row_groups:
                model_rows.append(
                    (dest_i, att_i, deployment, attack, step_out, idxs, sources)
                )
    #: kernel model → pass key → [kernel row, then the ``(step's out,
    #: pair indices, sources)`` of every row that is this pass]
    passes: dict[RankModel, dict[tuple, list]] = {}
    blank = ctx.deployment_masks(_EMPTY_DEPLOYMENT)
    for model, model_rows in rows.items():
        blind_model = RankModel(SecurityModel.BASELINE, model.local_preference)
        #: the ``(dest_i, deployment)`` of ``free``, the attacker-free
        #: pass whose arrays are still the context's (no other state
        #: call runs while planning)
        free_of = free = None
        for dest_i, att_i, deployment, attack, *asked in model_rows:
            signing, ranking = ctx.deployment_masks(deployment)
            resolved = DEFAULT_RESOLVED
            if att_i >= 0:
                baseline = None
                if attack.needs_baseline:
                    if free_of != (dest_i, deployment):
                        free = fixing._run(ctx, dest_i, -1, signing, ranking, model)
                        free_of = (dest_i, deployment)
                    baseline = fixing._attacker_baseline(free.arrays, att_i)
                resolved = attack.resolve(
                    dest_signed=bool(signing[dest_i]), baseline=baseline
                )
            if model.uses_security and (
                signing[dest_i] or (att_i >= 0 and resolved.active and resolved.wire)
            ):
                kernel_model, key = model, (deployment, dest_i, att_i, resolved)
                masks = (signing, ranking)
            else:
                # Blind: the baseline placement, or no signed
                # announcement and so no secure route, under which every
                # placement ranks as the baseline does, whatever deploys.
                kernel_model, key = blind_model, (dest_i, att_i, resolved)
                masks = blank
            passes.setdefault(kernel_model, {}).setdefault(
                key, [(dest_i, att_i, *masks, resolved)]
            ).append(asked)
    for kernel_model, by_key in passes.items():
        todo = list(by_key.values())
        size = ctx.batch_rows
        for at in range(0, len(todo), size):
            batch = todo[at : at + size]
            counted = fixing._run_np(ctx, [entry[0] for entry in batch], kernel_model)
            for entry, counts in zip(batch, counted):
                for step_out, idxs, sources in entry[1:]:
                    for i in idxs:
                        step_out[i] = (counts[0], counts[1], sources)
    return results


def rollout_happiness_counts(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int | None, int]],
    deployments: Sequence[Deployment],
    model: RankModel = BASELINE,
    *,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[list[tuple[int, int, int]]]:
    """``(happy_lower, happy_upper, num_sources)`` per pair, per chain
    step: ``result[t][i]`` is pair ``i`` evaluated under
    ``deployments[t]`` — :func:`jobs_happiness_counts` for one job, a
    nested-deployment chain (``ValueError``, with nothing computed, if
    it is not nested).  Results per step are in input pair order and
    bit-identical to evaluating each step independently via
    :func:`batch_happiness_counts`.
    """
    return jobs_happiness_counts(
        topology, [(pairs, deployments, model, attack)]
    )[0]


def batch_happiness_counts(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int | None, int]],
    deployment: Deployment | None = None,
    model: RankModel = BASELINE,
    *,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[tuple[int, int, int]]:
    """``(happy_lower, happy_upper, num_sources)`` per ``(m, d)`` pair.

    The count-only fast path behind :func:`repro.core.metrics.security_metric`
    — :func:`jobs_happiness_counts` for one job of one step: no
    :class:`~repro.core.outcome.RoutingOutcome` is materialized, pairs
    are evaluated destination-major, and results are returned in the
    input pair order, bit-identical to one full fixing pass per pair
    (:func:`repro.core.outcome.batch_outcomes`, the per-pair reference
    the differential tests compare against).
    """
    return jobs_happiness_counts(
        topology, [(pairs, [deployment], model, attack)]
    )[0][0]
