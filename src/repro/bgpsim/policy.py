"""Per-AS policy assignment for the simulator.

The staged algorithm of :mod:`repro.core.fixing` assumes every AS
prioritizes security the same way — the consistency guideline the paper
derives from its Wedgie analysis (Section 2.3).  The simulator makes the
assignment *per AS* so that inconsistent placements (e.g. Figure 1's
security-1st AS 31283 next to security-3rd AS 29518) can be studied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.rank import BASELINE, RankModel


@dataclass(frozen=True)
class PolicyAssignment:
    """Maps each AS to its routing-policy model.

    Attributes:
        default: model used by ASes without an explicit override.
        overrides: per-AS exceptions.
    """

    default: RankModel = BASELINE
    overrides: dict[int, RankModel] = field(default_factory=dict)

    def model_for(self, asn: int) -> RankModel:
        return self.overrides.get(asn, self.default)

    @property
    def is_uniform(self) -> bool:
        """True when every override agrees with the default model."""
        return all(model == self.default for model in self.overrides.values())

    @classmethod
    def uniform(cls, model: RankModel) -> "PolicyAssignment":
        return cls(default=model)


def island_assignment(
    island,
    inside: RankModel,
    outside: RankModel,
) -> PolicyAssignment:
    """§8's "islands of secure ASes" placement.

    Members of the island agree to prioritize security ``inside``
    (typically security 1st) while the rest of the Internet keeps the
    cautious ``outside`` placement.  Note the paper's own §2.3 warning
    applies: mixing placements can admit wedgies, so island runs should
    watch for :class:`~repro.bgpsim.simulator.ConvergenceError`.
    """
    return PolicyAssignment(
        default=outside, overrides={asn: inside for asn in island}
    )
