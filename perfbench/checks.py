"""Correctness gates: result digests and ``core.refimpl`` spot checks.

A digest pins the default seed's results (``digests.json``); on any
other seed the spot check recomputes a few pair-steps with the vendored
seed engine, which shares no code with the engine under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Iterable

from .harness import HERE, RunResult
from .metrics import DEFAULT_SEED

DIGESTS = HERE / "digests.json"

#: pair-steps recomputed with the reference engine per run.
SPOT_CHECKS = 6


def digest_records(records: Iterable[dict]) -> str:
    """sha256 over the sorted ``(scenario_hash, result)`` pairs."""
    pairs = sorted((record["hash"], record["result"]) for record in records)
    blob = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(
    result: RunResult, workload: str, seed: int, digest: str, smoke: bool
) -> bool:
    """Compare with the committed digest, which exists for the default
    seed at full size; False when there is none to compare with."""
    result.note("digest", digest)
    if smoke or seed != DEFAULT_SEED:
        return False
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    if expected != digest:
        result.error(
            f"{workload}: result digest {digest} differs from the "
            f"committed {expected}"
        )
    return True


def check_records(
    result: RunResult, workload: str, seed: int, smoke: bool, graph,
    records: list[dict],
) -> None:
    """The digest gate where a digest is pinned, else the spot check."""
    if not check_digest(result, workload, seed, digest_records(records), smoke):
        result.failed += spot_check(result, graph, records, seed)


def spot_check(
    result: RunResult, graph, records: list[dict], seed: int
) -> int:
    """Recompute ``SPOT_CHECKS`` seeded pair-steps with ``refimpl``.

    Returns the number of mismatches (each is also reported as an
    error); scenarios are drawn across the stored records so every
    security model present gets checked.
    """
    from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
    from repro.experiments.scenarios import EvalRequest

    if not records:
        result.error("spot check: no result records to check")
        return 1
    rng = random.Random(f"spot/{seed}")
    ordered = sorted(records, key=lambda record: record["hash"])
    by_model: dict[str, list[dict]] = {}
    for record in ordered:
        by_model.setdefault(record["request"]["model"], []).append(record)
    models = sorted(by_model)
    ref_ctx = RefRoutingContext(graph)
    mismatches = 0
    for i in range(SPOT_CHECKS):
        record = rng.choice(by_model[models[i % len(models)]])
        request = EvalRequest.from_canonical(record["request"])
        stored = record["result"]
        j = rng.randrange(len(stored["pairs"]))
        attacker, destination = stored["pairs"][j]
        outcome = ref_compute_routing_outcome(
            ref_ctx,
            destination,
            attacker=attacker,
            deployment=request.to_deployment(),
            model=request.to_model(),
            attack=request.to_attack(),
        )
        got = (
            stored["happy_lower"][j],
            stored["happy_upper"][j],
            stored["num_sources"][j],
        )
        want = (*outcome.count_happy(), outcome.num_sources)
        if got != want:
            mismatches += 1
            result.error(
                f"spot check: scenario {record['hash']} pair "
                f"({attacker}, {destination}) stored {got}, refimpl {want}"
            )
    result.note("spot_check", f"{SPOT_CHECKS - mismatches}/{SPOT_CHECKS} "
                "pair-steps agree with core.refimpl")
    return mismatches
