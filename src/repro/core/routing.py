"""Import names kept for existing callers of the routing engine.

The engine lives in four modules: :mod:`repro.core.context` (the
graph's CSR, masks and scratch), :mod:`repro.core.fixing` (the fixing
pass), :mod:`repro.core.outcome` (full routing outcomes) and
:mod:`repro.core.jobs` (count jobs).  This module defines nothing.  It
re-exports what the benchmark (``perfbench/``) imports from it, and
:class:`Reach` / :class:`RouteInfo`, which :mod:`repro.core.refimpl`
imports from it.  The kernel's row budget is
:data:`repro.core.context.NP_ROWS_BUDGET`: patch it there.
"""

from .context import RoutingContext
from .jobs import DestinationSweep, batch_happiness_counts, rollout_happiness_counts
from .outcome import Reach, RouteInfo, compute_routing_outcome

__all__ = [
    "DestinationSweep",
    "Reach",
    "RouteInfo",
    "RoutingContext",
    "batch_happiness_counts",
    "compute_routing_outcome",
    "rollout_happiness_counts",
]
