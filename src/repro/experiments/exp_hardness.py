"""Theorem 5.1: Max-k-Security is NP-hard (Appendix I, Figure 18).

Makes the Set-Cover reduction executable: for each instance, the
brute-force optimum over ``k = n + γ + 1`` secure ASes makes *all*
sources happy iff a γ-cover exists.  Also compares the greedy heuristic
against the brute-force optimum.
"""

from __future__ import annotations

from ..core.hardness import (
    build_set_cover_reduction,
    greedy_max_k_security,
    max_k_security_bruteforce,
)
from ..core.rank import SECURITY_MODELS
from . import report
from .registry import ExperimentSpec, register
from .runner import ExperimentContext
from .scenarios import EvalResults

#: (name, universe, family, γ, has γ-cover?)
INSTANCES = [
    (
        "coverable-γ2",
        ("a", "b", "c", "d"),
        {"s1": ("a", "b"), "s2": ("c", "d"), "s3": ("b", "c")},
        2,
        True,
    ),
    (
        "uncoverable-γ1",
        ("a", "b", "c"),
        {"s1": ("a", "b"), "s2": ("b", "c")},
        1,
        False,
    ),
    (
        "coverable-γ1",
        ("a", "b", "c"),
        {"s1": ("a", "b", "c"), "s2": ("a",)},
        1,
        True,
    ),
]


def run(
    ectx: ExperimentContext, plan: None, results: EvalResults
) -> tuple[list[dict], str]:
    rows = []
    for name, universe, family, gamma, has_cover in INSTANCES:
        instance = build_set_cover_reduction(universe, dict(family))
        k = instance.k_for_gamma(gamma)
        target = instance.num_sources  # all element + set ASes happy
        for model in SECURITY_MODELS:
            best, best_set = max_k_security_bruteforce(
                instance.graph,
                instance.attacker,
                instance.destination,
                k,
                model,
            )
            greedy, _ = greedy_max_k_security(
                instance.graph,
                instance.attacker,
                instance.destination,
                k,
                model,
            )
            rows.append(
                {
                    "instance": name,
                    "model": model.label,
                    "k": k,
                    "target_happy": target,
                    "bruteforce_happy": best,
                    "greedy_happy": greedy,
                    "cover_exists": has_cover,
                    "all_happy_achieved": best >= target,
                    "matches_theorem": (best >= target) == has_cover,
                }
            )
    table = report.format_table(
        ["instance", "model", "k", "target", "brute force", "greedy", "cover?", "theorem holds"],
        [
            [
                row["instance"],
                row["model"],
                row["k"],
                row["target_happy"],
                row["bruteforce_happy"],
                row["greedy_happy"],
                "yes" if row["cover_exists"] else "no",
                "yes" if row["matches_theorem"] else "NO",
            ]
            for row in rows
        ],
    )
    return rows, table


register(
    ExperimentSpec(
        experiment_id="hardness",
        title="Max-k-Security ≡ Set Cover on the Figure 18 gadget",
        paper_reference="Theorem 5.1 / Appendix I / Figure 18",
        paper_expectation=(
            "securing k = n + γ + 1 ASes makes every source happy iff a "
            "γ-cover exists, in all three models"
        ),
        run=run,
        supports_ixp=False,
    )
)
