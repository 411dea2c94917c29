"""Figure 1 / §2.3: the S*BGP Wedgie from inconsistent security placement.

Runs the reconstructed Figure 1 gadget through the message-passing
simulator twice:

* with the paper's *inconsistent* assignment (AS 31283 security-1st,
  everyone else security-3rd): after the 31027-3 link fails and
  recovers, routing does **not** return to the intended state — the
  system is wedged;
* with a *consistent* assignment (everyone security-1st): the same flap
  converges right back (Theorem 2.1's unique stable state).
"""

from __future__ import annotations

from ..core.deployment import Deployment
from ..core.rank import SECURITY_FIRST, SECURITY_THIRD
from ..topology import gadgets
from ..bgpsim import BGPSimulator, PolicyAssignment
from . import report
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults


def _flap(
    policies: PolicyAssignment,
) -> tuple[dict[int, tuple[int, ...] | None], dict[int, tuple[int, ...] | None]]:
    """Run the gadget, flap the 31027-3 link, return (intended, after)."""
    gadget = gadgets.figure1_wedgie()
    sim = BGPSimulator(
        gadget.graph,
        gadget.destination,
        deployment=Deployment.of(gadget.secure),
        policies=policies,
    )
    sim.run()
    intended = sim.stable_state()
    sim.fail_link(31027, 3)
    sim.run()
    sim.restore_link(31027, 3)
    sim.run()
    return intended, sim.stable_state()


def run(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    inconsistent = PolicyAssignment(
        default=SECURITY_THIRD, overrides={31283: SECURITY_FIRST}
    )
    consistent = PolicyAssignment.uniform(SECURITY_FIRST)

    intended, wedged = _flap(inconsistent)
    intended_c, after_c = _flap(consistent)

    rows = [
        {
            "assignment": "inconsistent (31283 sec-1st, rest sec-3rd)",
            "returns_to_intended_state": intended == wedged,
            "intended_31283": intended[31283],
            "after_flap_31283": wedged[31283],
            "intended_29518": intended[29518],
            "after_flap_29518": wedged[29518],
        },
        {
            "assignment": "consistent (all sec-1st)",
            "returns_to_intended_state": intended_c == after_c,
            "intended_31283": intended_c[31283],
            "after_flap_31283": after_c[31283],
            "intended_29518": intended_c[29518],
            "after_flap_29518": after_c[29518],
        },
    ]
    table = report.format_table(
        ["assignment", "reverts after flap?", "31283 before", "31283 after"],
        [
            [
                row["assignment"],
                "yes" if row["returns_to_intended_state"] else "NO (wedged)",
                row["intended_31283"],
                row["after_flap_31283"],
            ]
            for row in rows
        ],
    )
    return rows, table


register(
    ExperimentSpec(
        experiment_id="wedgie",
        title="S*BGP Wedgie on the Figure 1 gadget",
        paper_reference="Figure 1 / Section 2.3",
        paper_expectation=(
            "inconsistent placement gets stuck after a link flap; "
            "consistent placement reverts (Theorem 2.1)"
        ),
        run=run,
        supports_ixp=False,
    )
)
