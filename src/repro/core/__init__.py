"""The paper's primary contribution: partial-deployment S*BGP analysis.

The package exposes four layers (see ``docs/ARCHITECTURE.md`` for the
full tour): rank models (:mod:`repro.core.rank`), attacker strategies
(:mod:`repro.core.attacks`), the flat-array routing engine
(:mod:`repro.core.context`, :mod:`repro.core.fixing`,
:mod:`repro.core.outcome`, :mod:`repro.core.jobs`), and the security metric ``H_{M,D}(S)``
(:mod:`repro.core.metrics`), plus the analysis companions (partitions,
downgrades, root causes, NP-hardness).

Example:
    A five-AS topology — ``1`` provides transit to ``2`` and ``3``
    (who peer), with stubs ``4`` under ``2`` and ``5`` under ``3``:

    >>> from repro.topology.graph import ASGraph
    >>> from repro import core
    >>> g = ASGraph()
    >>> for customer, provider in [(2, 1), (3, 1), (4, 2), (5, 3)]:
    ...     g.add_customer_provider(customer, provider)
    >>> g.add_peering(2, 3)

    Under normal conditions everyone reaches the destination ``4``:

    >>> normal = core.normal_conditions(g, 4)
    >>> normal.count_happy()
    (4, 4)

    When ``5`` announces the bogus one-hop path ``"5 4"`` (the paper's
    Section 3.1 attack) with nobody secured, its provider ``3`` prefers
    the lie — a customer route beats the true peer route to ``4`` under
    Gao-Rexford local preference:

    >>> attacked = core.compute_routing_outcome(g, 4, attacker=5)
    >>> attacked.count_happy()
    (2, 2)
    >>> attacked.reaches(3) is core.Reach.ATTACKER
    True

    Securing every AS on the honest path plus the victim's neighborhood
    under the security-1st model rescues ``3``: the unsigned lie is
    ranked below the fully-signed truth:

    >>> S = core.Deployment.of([1, 2, 3, 4])
    >>> secured = core.compute_routing_outcome(
    ...     g, 4, attacker=5, deployment=S, model=core.SECURITY_FIRST,
    ... )
    >>> secured.count_happy()
    (3, 3)

    Unless the attacker forges valid-looking security attributes
    (:data:`repro.core.attacks.FORGED_ORIGIN` — the ROV-era stealth
    hijack), which takes ``3`` right back:

    >>> stealth = core.compute_routing_outcome(
    ...     g, 4, attacker=5, deployment=S,
    ...     model=core.SECURITY_FIRST, attack=core.FORGED_ORIGIN,
    ... )
    >>> stealth.count_happy()
    (2, 2)
"""

from .rank import (
    BASELINE,
    CLASSIC_LP,
    LP2,
    PACK_SHIFT,
    pack_key,
    unpack_key,
    SECURITY_FIRST,
    SECURITY_MODELS,
    SECURITY_SECOND,
    SECURITY_THIRD,
    SURVEY_POPULARITY,
    LocalPreference,
    RankModel,
    SecurityModel,
    lp2_variant,
)
from .attacks import (
    DEFAULT_ATTACK,
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    SHIPPED_STRATEGIES,
    AttackStrategy,
    AttackerBaseline,
    ForgedOriginHijack,
    HonestAnnouncement,
    OneHopHijack,
    PathLengthHijack,
    ResolvedAttack,
    strategy_from_token,
)
from .deployment import (
    Deployment,
    RolloutStep,
    ScenarioCatalog,
    nonstub_deployment,
    stubs_of,
    tier12_rollout,
    tier12_rollout_dense,
    tier1_and_stubs,
    tier2_rollout,
    top_tier2_and_stubs,
)
from .context import RoutingContext
from .outcome import (
    Reach,
    RouteInfo,
    RoutingOutcome,
    batch_outcomes,
    compute_routing_outcome,
    normal_conditions,
)
from .jobs import (
    DestinationSweep,
    batch_happiness_counts,
    jobs_happiness_counts,
    rollout_happiness_counts,
)
from .perceivable import (
    AttackClosures,
    ClassReach,
    attack_closures,
    perceivable_closures,
)
from .partitions import Category, PartitionCounts, PartitionResult, compute_partitions
from .metrics import (
    AttackHappiness,
    Interval,
    MetricResult,
    batch_happiness,
    security_metric,
)
from .downgrade import (
    DowngradeAnalysis,
    SecureRouteFate,
    downgrade_analysis,
    secure_route_fate,
)
from .rootcause import (
    PHENOMENA_POSSIBLE,
    PairRootCause,
    RootCauseBreakdown,
    pair_root_cause,
    root_cause_breakdown,
)
from .hardness import (
    ReductionInstance,
    build_set_cover_reduction,
    count_happy_lower,
    greedy_max_k_security,
    max_k_security_bruteforce,
)

__all__ = [
    # attacks
    "AttackStrategy",
    "AttackerBaseline",
    "ResolvedAttack",
    "OneHopHijack",
    "HonestAnnouncement",
    "PathLengthHijack",
    "ForgedOriginHijack",
    "ONE_HOP_HIJACK",
    "HONEST",
    "FORGED_ORIGIN",
    "DEFAULT_ATTACK",
    "SHIPPED_STRATEGIES",
    "strategy_from_token",
    # rank
    "RankModel",
    "SecurityModel",
    "LocalPreference",
    "BASELINE",
    "SECURITY_FIRST",
    "SECURITY_SECOND",
    "SECURITY_THIRD",
    "SECURITY_MODELS",
    "CLASSIC_LP",
    "LP2",
    "SURVEY_POPULARITY",
    "lp2_variant",
    "PACK_SHIFT",
    "pack_key",
    "unpack_key",
    # deployment
    "Deployment",
    "RolloutStep",
    "ScenarioCatalog",
    "stubs_of",
    "tier12_rollout",
    "tier12_rollout_dense",
    "tier2_rollout",
    "nonstub_deployment",
    "tier1_and_stubs",
    "top_tier2_and_stubs",
    # routing
    "DestinationSweep",
    "Reach",
    "RouteInfo",
    "RoutingContext",
    "RoutingOutcome",
    "compute_routing_outcome",
    "normal_conditions",
    "batch_outcomes",
    "batch_happiness_counts",
    "jobs_happiness_counts",
    "rollout_happiness_counts",
    # perceivable / partitions
    "ClassReach",
    "AttackClosures",
    "perceivable_closures",
    "attack_closures",
    "Category",
    "PartitionCounts",
    "PartitionResult",
    "compute_partitions",
    # metrics
    "Interval",
    "AttackHappiness",
    "MetricResult",
    "batch_happiness",
    "security_metric",
    # downgrade / rootcause
    "DowngradeAnalysis",
    "SecureRouteFate",
    "downgrade_analysis",
    "secure_route_fate",
    "PHENOMENA_POSSIBLE",
    "PairRootCause",
    "RootCauseBreakdown",
    "pair_root_cause",
    "root_cause_breakdown",
    # hardness
    "ReductionInstance",
    "build_set_cover_reduction",
    "count_happy_lower",
    "max_k_security_bruteforce",
    "greedy_max_k_security",
]
