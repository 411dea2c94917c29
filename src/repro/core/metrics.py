"""The security metric ``H_{M,D}(S)`` (Section 4.1).

For an attacker ``m`` attacking destination ``d`` under deployment ``S``,
``H(m, d, S)`` counts the *happy* sources: those choosing a legitimate
route to ``d`` rather than the bogus route to ``m``.  The metric averages
the happy fraction over a set of attackers ``M`` and destinations ``D``::

    H_{M,D}(S) = 1/(|D| (|M|-1) (|V|-2)) Σ_m Σ_{d≠m} H(m, d, S)

Because the model determines routing only up to the intradomain tiebreak
``TB``, every quantity is reported as a ``[lower, upper]`` interval: the
lower bound assumes every tiebreak-dependent AS chooses the bogus route,
the upper bound that it chooses the legitimate one (Section 4.1).

The paper evaluates all ``O(|V|²)`` pairs on supercomputers; here ``M``
and ``D`` are explicit (typically seeded samples — see
:mod:`repro.experiments.sampling`), which estimates the same average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..topology.graph import ASGraph
from .attacks import DEFAULT_ATTACK, AttackStrategy
from .deployment import Deployment
from .rank import RankModel
from .context import RoutingContext, _as_context
from .jobs import batch_happiness_counts


@dataclass(frozen=True)
class Interval:
    """A [lower, upper] bound pair on a fraction.

    Two *different* difference semantics exist, and they are not
    interchangeable:

    * :meth:`__sub__` is the **conservative interval difference**
      ``[a.lower − b.upper, a.upper − b.lower]`` of interval
      arithmetic: it contains every value ``x − y`` with ``x ∈ a``,
      ``y ∈ b``.  Use it when the two intervals' tiebreaks are
      genuinely independent.
    * :meth:`bound_delta` is the **bound-wise delta**
      ``sorted(a.lower − b.lower, a.upper − b.upper)`` used by
      ``EvalResults.delta``:
      the paper's Figures 7-12 plot the increase of each *bound* of
      ``H_{M,D}``, not a conservative difference — under the common
      tiebreak conventions the lower bounds of both metrics refer to
      the *same* adversarial tiebreak, so subtracting bound-wise is the
      meaningful (and much tighter) quantity.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    def __sub__(self, other: "Interval") -> "Interval":
        """Conservative interval difference (contains every x − y)."""
        return Interval(self.lower - other.upper, self.upper - other.lower)

    def bound_delta(self, other: "Interval") -> "Interval":
        """Bound-wise delta ``self − other`` (the Figures 7-12 quantity).

        Subtracts lower from lower and upper from upper, then orders the
        two results into a valid interval.
        """
        deltas = (self.lower - other.lower, self.upper - other.upper)
        return Interval(min(deltas), max(deltas))

    def shift(self, value: float) -> "Interval":
        return Interval(self.lower - value, self.upper - value)

    def __str__(self) -> str:
        return f"[{self.lower:.4f}, {self.upper:.4f}]"


@dataclass(frozen=True)
class AttackHappiness:
    """Happy-source counts for a single (m, d) attack."""

    attacker: int
    destination: int
    happy_lower: int
    happy_upper: int
    num_sources: int

    @property
    def fraction(self) -> Interval:
        if self.num_sources == 0:
            return Interval(0.0, 0.0)
        return Interval(
            self.happy_lower / self.num_sources,
            self.happy_upper / self.num_sources,
        )


@dataclass(frozen=True)
class MetricResult:
    """``H_{M,D}(S)`` over an explicit pair set."""

    value: Interval
    per_pair: tuple[AttackHappiness, ...]

    @property
    def num_pairs(self) -> int:
        return len(self.per_pair)


def security_metric(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int, int]],
    deployment: Deployment,
    model: RankModel,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> MetricResult:
    """``H_{M,D}(S)`` averaged over explicit ``(attacker, destination)`` pairs.

    Args:
        topology: graph or prebuilt routing context.
        pairs: the ``(m, d)`` pairs to average over (``m != d``).
        deployment: the secure set ``S``.
        model: routing-policy model.
        attack: the attacker strategy (:mod:`repro.core.attacks`);
            defaults to the paper's one-hop hijack.

    Returns:
        A :class:`MetricResult`; its ``value`` interval is the mean of
        the per-pair happy fractions.

    Example:
        Three providers in a row, the destination ``3`` a stub of ``2``,
        the attacker ``4`` a stub of ``1``; with nobody secured every
        source falls for the one-hop lie except the attacker's provider,
        which sits one hop from both roots (a knife-edge tiebreak):

        >>> from repro.topology.graph import ASGraph
        >>> from repro.core.rank import BASELINE
        >>> from repro.core.deployment import Deployment
        >>> g = ASGraph()
        >>> for customer, provider in [(2, 1), (3, 2), (4, 1)]:
        ...     g.add_customer_provider(customer, provider)
        >>> result = security_metric(
        ...     g, [(4, 3)], Deployment.empty(), BASELINE
        ... )
        >>> print(result.value)
        [0.5000, 1.0000]
    """
    ctx = _as_context(topology)
    # Counts only, no outcome materialization: each distinct pass runs
    # once, a row of a batched bucket pass — see
    # repro.core.jobs.jobs_happiness_counts.
    pairs = list(pairs)  # consumed twice below; accept one-shot iterables
    return metric_of_counts(
        pairs, batch_happiness_counts(ctx, pairs, deployment, model, attack=attack)
    )


def metric_of_counts(
    pairs: Sequence[tuple[int, int]], counts: Sequence[tuple[int, int, int]]
) -> MetricResult:
    """``H_{M,D}(S)`` from each pair's ``(lower, upper, num_sources)``
    (:func:`repro.core.jobs.batch_happiness_counts`' triples)."""
    results = tuple(_as_happiness(pairs, counts))
    return MetricResult(value=_mean_interval(results), per_pair=results)


def batch_happiness(
    topology: ASGraph | RoutingContext,
    pairs: Sequence[tuple[int, int]],
    deployment: Deployment,
    model: RankModel,
    *,
    attack: AttackStrategy = DEFAULT_ATTACK,
) -> list[AttackHappiness]:
    """Happy-source counts for many ``(m, d)`` pairs in one sweep.

    Amortizes deployment-mask construction and scratch-buffer reuse
    across the whole pair list, and runs each distinct pass once, as
    the rows of batched bucket passes (see
    :func:`repro.core.jobs.batch_happiness_counts`; results are in
    input pair order).  This is what each worker of
    :mod:`repro.experiments.runner` runs on its share of destination
    groups.
    """
    pairs = list(pairs)  # consumed twice below; accept one-shot iterables
    return _as_happiness(
        pairs,
        batch_happiness_counts(topology, pairs, deployment, model, attack=attack),
    )


def _as_happiness(
    pairs: Sequence[tuple[int, int]], counts: Sequence[tuple[int, int, int]]
) -> list[AttackHappiness]:
    """Pair each ``(m, d)`` with its ``(lower, upper, num_sources)``."""
    return [
        AttackHappiness(
            attacker=m,
            destination=d,
            happy_lower=lower,
            happy_upper=upper,
            num_sources=num_sources,
        )
        for (m, d), (lower, upper, num_sources) in zip(pairs, counts)
    ]


def _mean_interval(results: Sequence[AttackHappiness]) -> Interval:
    if not results:
        return Interval(0.0, 0.0)
    lower = sum(r.fraction.lower for r in results) / len(results)
    upper = sum(r.fraction.upper for r in results) / len(results)
    return Interval(lower, upper)
