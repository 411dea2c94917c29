"""§4.2: origin authentication already gives good security.

Computes the lower bound on ``H_{V,V}(∅)`` — the average fraction of
sources that avoid the "m d" attack when *nobody* runs S*BGP and only
RPKI origin authentication is deployed.  The paper reports ≥ 60 % on the
UCLA graph and ≥ 62 % on its IXP-augmented variant; the driver is
structural (the bogus path is one hop longer than the real one), so a
similar level is expected on any Internet-like topology.
"""

from __future__ import annotations

from ..core.deployment import Deployment
from ..core.rank import BASELINE
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalRequest, EvalResults, request_for


def _plan(ectx: ExperimentContext) -> dict[str, EvalRequest]:
    """The two H(∅) scenarios: all attackers, and non-stub attackers."""
    rng = ectx.rng("baseline")
    asns = ectx.graph.asns

    def draw(attackers):
        if ectx.scale.stratified_pairs:
            return sampling.sample_pairs_stratified(
                rng,
                attackers,
                asns,
                ectx.scale.pair_samples,
                ectx.graph.degree,
            )
        return sampling.sample_pairs(
            rng, attackers, asns, ectx.scale.pair_samples
        )

    pairs = draw(asns)
    pairs_ns = draw(sampling.nonstub_attackers(ectx.tiers))
    empty = Deployment.empty()
    return {
        "all": request_for(ectx, pairs, empty, BASELINE),
        "nonstub": request_for(ectx, pairs_ns, empty, BASELINE),
    }


def run(
    ectx: ExperimentContext, plan: dict[str, EvalRequest], results: EvalResults
) -> tuple[list[dict], str]:
    result = results.for_request(plan["all"])
    result_ns = results.for_request(plan["nonstub"])

    rows = [
        {
            "attackers": "V (all ASes)",
            "H_lower": result.value.lower,
            "H_upper": result.value.upper,
            "pairs": len(plan["all"].pairs),
        },
        {
            "attackers": "M' (non-stubs)",
            "H_lower": result_ns.value.lower,
            "H_upper": result_ns.value.upper,
            "pairs": len(plan["nonstub"].pairs),
        },
    ]
    text = report.format_table(
        ["attacker set", "H(∅) lower", "H(∅) upper", "pairs sampled"],
        [
            [row["attackers"], row["H_lower"], row["H_upper"], row["pairs"]]
            for row in rows
        ],
    )
    graph_label = "IXP-augmented graph" if ectx.ixp else "base graph"
    text += (
        f"\n\n({graph_label}; the paper reports H(∅) >= 60% on the UCLA graph"
        " and >= 62% with IXP edges)"
    )
    return rows, text


register(
    ExperimentSpec(
        experiment_id="baseline",
        title="Origin authentication baseline H(∅)",
        paper_reference="Section 4.2",
        paper_expectation="more than half of all sources are already happy with S = ∅",
        run=run,
        plan=_plan,
    )
)
