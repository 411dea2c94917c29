"""Figure 16 and Table 3: why the metric moves (Section 6).

Figure 16 decomposes the metric change of the last Tier 1+2 rollout step
into: secure routes lost to downgrades, secure routes wasted on
already-happy sources, secure routes protecting previously-unhappy
sources, collateral benefits, and collateral damages.  Table 3 states
which phenomena each model admits; here each "possible" cell is backed
by an executable witness (a paper gadget), and each "impossible" cell by
a theorem plus a zero count over the sampled pairs.
"""

from __future__ import annotations

from ..core.deployment import Deployment
from ..core.rank import SECURITY_FIRST, SECURITY_MODELS, SECURITY_SECOND, SECURITY_THIRD
from ..core.rootcause import PHENOMENA_POSSIBLE, pair_root_cause, root_cause_breakdown
from ..topology import gadgets
from . import report, sampling
from .registry import ExperimentSpec, register
from .runner import ExperimentContext, cached
from .scenarios import EvalResults


def _rootcause_pairs(ectx: ExperimentContext) -> list[tuple[int, int]]:
    def build() -> list[tuple[int, int]]:
        rng = ectx.rng("fig16")
        attackers = sampling.nonstub_attackers(ectx.tiers)
        # root-cause needs 3 routing computations per pair; use a reduced
        # sample relative to the plain metric sweeps.
        count = max(10, ectx.scale.pair_samples // 2)
        return sampling.sample_pairs(rng, attackers, ectx.graph.asns, count)

    return cached(ectx, "rootcause_pairs", build)


def run_fig16(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    deployment = ectx.catalog.get("t12_full")
    pairs = _rootcause_pairs(ectx)
    rows = []
    blocks = []
    for model in (SECURITY_THIRD, SECURITY_FIRST, SECURITY_SECOND):
        breakdown = root_cause_breakdown(ectx.graph_ctx, pairs, deployment, model)
        rows.append(
            {
                "model": model.label,
                "secure_routes_normal": breakdown.secure_routes_normal,
                "downgrades": breakdown.downgrades,
                "wasted_secure": breakdown.wasted_secure,
                "protected_secure": breakdown.protected_secure,
                "collateral_benefits": breakdown.collateral_benefits,
                "collateral_damages": breakdown.collateral_damages,
                "metric_change": breakdown.metric_change,
                "identity_residual": breakdown.identity_residual(),
            }
        )
        blocks.append(
            f"{model.label}:\n"
            + report.format_table(
                ["component", "fraction of sources"],
                [
                    ["secure routes under normal conditions", breakdown.secure_routes_normal],
                    ["  lost to protocol downgrades", breakdown.downgrades],
                    ["  wasted on already-happy sources", breakdown.wasted_secure],
                    ["  protecting previously-unhappy sources", breakdown.protected_secure],
                    ["collateral benefits", breakdown.collateral_benefits],
                    ["collateral damages", breakdown.collateral_damages],
                    ["metric change (lower bound)", breakdown.metric_change],
                ],
            )
        )
    text = "\n\n".join(blocks)
    text += (
        "\n\naccounting identity ΔH = gains − losses holds exactly "
        "(max residual "
        f"{max(abs(r['identity_residual']) for r in rows):.2e})"
    )
    return rows, text


def run_table3(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    deployment = ectx.catalog.get("t12_full")
    pairs = _rootcause_pairs(ectx)

    observed = {
        model.label: {"protocol_downgrade": 0, "collateral_benefit": 0, "collateral_damage": 0}
        for model in SECURITY_MODELS
    }
    for model in SECURITY_MODELS:
        for attacker, destination in pairs:
            pr = pair_root_cause(
                ectx.graph_ctx, attacker, destination, deployment, model
            )
            observed[model.label]["protocol_downgrade"] += len(pr.downgraded)
            observed[model.label]["collateral_benefit"] += len(pr.collateral_benefit)
            observed[model.label]["collateral_damage"] += len(pr.collateral_damage)

    # Witnesses from the paper's own examples.
    witness: dict[tuple[str, str], str] = {}
    fig2 = gadgets.figure2_protocol_downgrade()
    for model in (SECURITY_SECOND, SECURITY_THIRD):
        pr = pair_root_cause(
            fig2.graph, fig2.attacker, fig2.destination,
            Deployment.of(fig2.secure), model,
        )
        if pr.downgraded:
            witness[(model.label, "protocol_downgrade")] = "figure 2 gadget"
    fig14 = gadgets.figure14_collateral()
    pr14 = pair_root_cause(
        fig14.graph, fig14.attacker, fig14.destination,
        Deployment.of(fig14.secure), SECURITY_SECOND,
    )
    if pr14.collateral_benefit:
        witness[(SECURITY_SECOND.label, "collateral_benefit")] = "figure 14 gadget"
    if pr14.collateral_damage:
        witness[(SECURITY_SECOND.label, "collateral_damage")] = "figure 14 gadget"
    fig15 = gadgets.figure15_collateral_benefit()
    pr15 = pair_root_cause(
        fig15.graph, fig15.attacker, fig15.destination,
        Deployment.of(fig15.secure), SECURITY_THIRD,
    )
    if pr15.collateral_benefit:
        witness[(SECURITY_THIRD.label, "collateral_benefit")] = "figure 15 gadget"
    fig17 = gadgets.figure17_collateral_damage_sec1st()
    pr17 = pair_root_cause(
        fig17.graph, fig17.attacker, fig17.destination,
        Deployment.of(fig17.secure), SECURITY_FIRST,
    )
    if pr17.collateral_damage:
        witness[(SECURITY_FIRST.label, "collateral_damage")] = "figure 17 gadget"
    # Collateral benefit when security is 1st: figure 14's benefit also
    # materializes there (secure ASes prefer the secure route even more).
    pr14_1st = pair_root_cause(
        fig14.graph, fig14.attacker, fig14.destination,
        Deployment.of(fig14.secure), SECURITY_FIRST,
    )
    if pr14_1st.collateral_benefit:
        witness[(SECURITY_FIRST.label, "collateral_benefit")] = "figure 14 gadget"

    rows = []
    table_rows = []
    for phenomenon in ("protocol_downgrade", "collateral_benefit", "collateral_damage"):
        line = [phenomenon]
        for model in SECURITY_MODELS:
            allowed = PHENOMENA_POSSIBLE[model.model][phenomenon]
            count = observed[model.label][phenomenon]
            wit = witness.get((model.label, phenomenon))
            if allowed:
                evidence = wit or (f"{count} in sweep" if count else "allowed")
                cell = f"YES ({evidence})"
            else:
                cell = f"no  (0 of sweep; theorem)" if count == 0 else f"VIOLATION ({count})"
            line.append(cell)
            rows.append(
                {
                    "phenomenon": phenomenon,
                    "model": model.label,
                    "possible_per_paper": allowed,
                    "observed_count": count,
                    "witness": wit,
                }
            )
        table_rows.append(line)
    text = report.format_table(
        ["phenomenon", "security 1st", "security 2nd", "security 3rd"], table_rows
    )
    return rows, text


register(
    ExperimentSpec(
        experiment_id="fig16",
        title="Root-cause decomposition of the metric change (T1+T2 rollout)",
        paper_reference="Figure 16 (Figure 23 for IXP)",
        paper_expectation=(
            "sec 3rd: downgrades + wasted routes eat most secure routes; "
            "sec 1st: no downgrades, larger metric change, small damages"
        ),
        run=run_fig16,
    )
)
register(
    ExperimentSpec(
        experiment_id="table3",
        title="Phenomena possible per security model",
        paper_reference="Table 3",
        paper_expectation=(
            "downgrades: 2nd & 3rd only (Thm 3.1); collateral benefits: "
            "all models; collateral damages: 1st & 2nd only (Thm 6.1)"
        ),
        run=run_table3,
    )
)
