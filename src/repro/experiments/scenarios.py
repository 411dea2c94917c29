"""The declarative scenario plane: evaluation requests and sweep specs.

The paper's quantity ``H_{M,D}(S)`` is fully determined by six inputs:
the topology (scale + seed + IXP augmentation), the pair set ``M × D``,
the deployment ``S``, the rank model, and the attacker strategy (the
threat model).  An :class:`EvalRequest` captures exactly those inputs
in a canonical, hashable form, so that

* experiments can *declare* the scenarios they need instead of
  evaluating metrics imperatively,
* the scheduler (:func:`repro.experiments.runner.run_experiments`) can
  dedupe identical scenarios *across* experiments — baselines shared by
  several figures are computed once per run, and
* results can be keyed content-addressed in a persistent on-disk store
  (:mod:`repro.experiments.store`), making repeated runs incremental.

Canonicalization rules (anything that breaks one of these changes every
stored scenario hash, so treat them as a stable format):

1. ``scale`` is the scale *name* (the name pins ``n`` via
   :data:`repro.experiments.config.SCALES`), ``seed`` the topology seed,
   ``ixp`` the Appendix J augmentation flag.
2. ``pairs`` are deduplicated and sorted **destination-grouped** — by
   ``(d, m)`` ascending, stored as ``(m, d)`` tuples.  The metric is an
   average, so pair order never affects the value, and sorting makes
   equal pair *sets* collide onto one scenario; grouping by destination
   additionally hands the evaluation layer contiguous attacker runs per
   destination, which the count path
   (:func:`repro.core.routing.jobs_happiness_counts`) groups by: a
   scalar context's sweeps and a numpy context's attacker-free passes
   are shared per destination.
3. The deployment is stored as two sorted ASN tuples, ``full`` and
   ``simplex`` membership (the §5.3.2 modes rank differently, so they
   are part of the identity).
4. The rank model is its :attr:`repro.core.rank.RankModel.label` token
   (e.g. ``"security_2nd"`` or ``"security_3rd/LP2"``), which encodes
   both the security placement and the LP variant and parses back via
   :func:`model_from_token`.
5. The attacker strategy is its canonical token (e.g. ``"hijack"``,
   ``"honest"``, ``"khop3"``, ``"forged_origin"``), parsed back via
   :func:`repro.core.attacks.strategy_from_token`.  Different threat
   models are different scenarios: their results never collide in the
   store.
6. The scenario hash is the SHA-256 of the compact, key-sorted JSON of
   :meth:`EvalRequest.canonical` (first 20 hex digits).  The canonical
   dict embeds two versions: :data:`SCENARIO_FORMAT` (this
   representation) and :data:`repro.core.routing.ENGINE_VERSION` (the
   routing *semantics* — an evaluation input like any other), so either
   kind of change invalidates old stores instead of silently serving
   stale results.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ..core.attacks import (
    DEFAULT_ATTACK,
    AttackStrategy,
    strategy_from_token,
)
from ..core.deployment import Deployment
from ..core.metrics import (
    AttackHappiness,
    Interval,
    MetricResult,
    _mean_interval,
)
from ..core.rank import LocalPreference, RankModel, SecurityModel
from ..core.routing import ENGINE_VERSION

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import ExperimentContext

#: Bump when the canonical representation changes; part of every hash.
#: 2: pair lists are canonicalized destination-grouped ((d, m) sort
#: order) for the destination-major engine — old stores evaluate cold.
#: 3: requests carry the attacker-strategy token (the threat model is
#: an evaluation input) — old stores evaluate cold again.
SCENARIO_FORMAT = 3


def model_token(model: RankModel) -> str:
    """The canonical string form of a rank model (its ``label``)."""
    return model.label


def model_from_token(token: str) -> RankModel:
    """Parse a :func:`model_token` back into a :class:`RankModel`."""
    placement, _, lp = token.partition("/")
    if lp in ("", "LP"):
        preference = LocalPreference()
    elif lp.startswith("LP"):
        preference = LocalPreference(peer_window=int(lp[2:]))
    else:
        raise ValueError(f"unparseable local-preference token {lp!r}")
    return RankModel(SecurityModel(placement), preference)


def attack_token(attack: "AttackStrategy | str") -> str:
    """The canonical string form of an attacker strategy.

    Accepts a strategy instance or an already-tokenized string; strings
    are validated by round-tripping through the strategy registry.
    """
    if isinstance(attack, str):
        return strategy_from_token(attack).token
    return attack.token


@dataclass(frozen=True)
class EvalRequest:
    """One fully-specified ``H_{M,D}(S)`` evaluation (see module docs).

    Build with :meth:`build` (or :func:`request_for` inside an
    experiment); the constructor trusts its arguments to already be
    canonical.

    Example:
        Requests canonicalize their inputs — pairs are deduplicated and
        destination-grouped, the model and attacker strategy become
        tokens — so equal scenarios collide onto one content address:

        >>> from repro.core import Deployment, SECURITY_SECOND, HONEST
        >>> req = EvalRequest.build(
        ...     scale="tiny", seed=7, ixp=False,
        ...     pairs=[(30, 20), (10, 20), (30, 20)],
        ...     deployment=Deployment.of([10, 20]),
        ...     model=SECURITY_SECOND, attack=HONEST,
        ... )
        >>> req.pairs
        ((10, 20), (30, 20))
        >>> req.model, req.attack
        ('security_2nd', 'honest')
        >>> req.to_attack() is HONEST
        True
        >>> len(req.scenario_hash)
        20
    """

    scale: str
    seed: int
    ixp: bool
    pairs: tuple[tuple[int, int], ...]
    deployment_full: tuple[int, ...]
    deployment_simplex: tuple[int, ...]
    model: str
    attack: str = DEFAULT_ATTACK.token

    @classmethod
    def build(
        cls,
        *,
        scale: str,
        seed: int,
        ixp: bool,
        pairs: Iterable[tuple[int, int]],
        deployment: Deployment,
        model: RankModel,
        attack: "AttackStrategy | str" = DEFAULT_ATTACK,
    ) -> "EvalRequest":
        """Canonicalize raw inputs into a request (rules in module docs)."""
        return cls(
            scale=scale,
            seed=seed,
            ixp=bool(ixp),
            pairs=tuple(
                sorted(
                    {(int(m), int(d)) for m, d in pairs},
                    key=lambda p: (p[1], p[0]),
                )
            ),
            deployment_full=tuple(sorted(deployment.full)),
            deployment_simplex=tuple(sorted(deployment.simplex)),
            model=model_token(model),
            attack=attack_token(attack),
        )

    # -- the evaluation-side views ------------------------------------
    def to_deployment(self) -> Deployment:
        return Deployment(
            full=frozenset(self.deployment_full),
            simplex=frozenset(self.deployment_simplex),
        )

    def to_model(self) -> RankModel:
        return model_from_token(self.model)

    def to_attack(self) -> AttackStrategy:
        return strategy_from_token(self.attack)

    # -- canonical form -----------------------------------------------
    def canonical(self) -> dict:
        """The JSON-ready canonical dict this request hashes over."""
        return {
            "format": SCENARIO_FORMAT,
            "engine": ENGINE_VERSION,
            "scale": self.scale,
            "seed": self.seed,
            "ixp": self.ixp,
            "pairs": [list(p) for p in self.pairs],
            "deployment_full": list(self.deployment_full),
            "deployment_simplex": list(self.deployment_simplex),
            "model": self.model,
            "attack": self.attack,
        }

    @classmethod
    def from_canonical(cls, payload: dict) -> "EvalRequest":
        """Rebuild a request from its :meth:`canonical` dict.

        The inverse of :meth:`canonical`, used wherever requests cross a
        serialization boundary — store records and the HTTP service's
        request bodies.  Inputs are re-canonicalized (pairs deduped and
        destination-grouped, deployments sorted), so a hand-written body
        hashes identically to the request it describes; ``format`` /
        ``engine`` keys are optional but must match this engine's when
        present.  Raises ``ValueError`` on malformed payloads, including
        unknown model or attacker tokens.
        """
        if not isinstance(payload, dict):
            raise ValueError("request payload must be a JSON object")
        fmt = payload.get("format", SCENARIO_FORMAT)
        eng = payload.get("engine", ENGINE_VERSION)
        if fmt != SCENARIO_FORMAT or eng != ENGINE_VERSION:
            raise ValueError(
                f"unsupported scenario format/engine {fmt}/{eng} "
                f"(this engine speaks {SCENARIO_FORMAT}/{ENGINE_VERSION})"
            )
        try:
            pairs = [(int(m), int(d)) for m, d in payload["pairs"]]
            full = [int(a) for a in payload.get("deployment_full", ())]
            simplex = [int(a) for a in payload.get("deployment_simplex", ())]
            request = cls(
                scale=str(payload["scale"]),
                seed=int(payload["seed"]),
                ixp=bool(payload.get("ixp", False)),
                pairs=tuple(
                    sorted(set(pairs), key=lambda p: (p[1], p[0]))
                ),
                deployment_full=tuple(sorted(set(full))),
                deployment_simplex=tuple(sorted(set(simplex))),
                model=model_token(model_from_token(str(payload["model"]))),
                attack=attack_token(str(payload.get("attack", DEFAULT_ATTACK.token))),
            )
        except ValueError:
            raise
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed request payload: {exc!r}") from exc
        if not request.pairs:
            raise ValueError("request needs at least one (monitor, dest) pair")
        return request

    @functools.cached_property
    def scenario_hash(self) -> str:
        """Content address: SHA-256 over the canonical JSON (20 hex chars).

        Cached per instance (the dataclass is frozen, so the canonical
        form cannot change): results lookups hash-address requests on
        every access, and re-serializing a thousand-pair sweep each time
        would dominate the consume phase.
        """
        blob = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(blob).hexdigest()[:20]


def request_for(
    ectx: "ExperimentContext",
    pairs: Iterable[tuple[int, int]],
    deployment: Deployment,
    model: RankModel,
    attack: "AttackStrategy | str | None" = None,
) -> EvalRequest:
    """Build a request for ``ectx``'s topology (the usual entry point).

    The attacker strategy defaults to the context's (set by the CLI's
    ``--attack``); pass ``attack`` explicitly to pin a specific threat
    model regardless of the run-wide setting.
    """
    return EvalRequest.build(
        scale=ectx.scale.name,
        seed=ectx.seed,
        ixp=ectx.ixp,
        pairs=pairs,
        deployment=deployment,
        model=model,
        attack=ectx.attack if attack is None else attack,
    )


def collect_requests(*parts) -> list[EvalRequest]:
    """Pull every :class:`EvalRequest` out of nested plan structures.

    Experiments keep their plans in whatever shape reads best — tuples
    of ``(step, baseline, {model: request})``, dicts, lists — and
    declare them by flattening here: mappings are walked by value,
    sequences elementwise, requests collected in encounter order, and
    any other leaf (labels, deployments, rollout steps) is ignored.
    """
    out: list[EvalRequest] = []

    def walk(obj) -> None:
        if isinstance(obj, EvalRequest):
            out.append(obj)
        elif isinstance(obj, Mapping):
            for value in obj.values():
                walk(value)
        elif isinstance(obj, (list, tuple)):
            for value in obj:
                walk(value)

    for part in parts:
        walk(part)
    return out


# ----------------------------------------------------------------------
# Nested-deployment chain detection (the rollout-major scheduler input)
# ----------------------------------------------------------------------

def deployment_nested(a: EvalRequest, b: EvalRequest) -> bool:
    """``a ⊑ b``: may the rollout engine advance from ``a``'s deployment
    to ``b``'s?

    Nesting is per membership mode — both the ranking set (``full``) and
    the signing set (``full ∪ simplex``) must grow monotonically; a
    simplex→full promotion is allowed (ranking gains, signing keeps the
    member).  This mirrors :meth:`repro.core.routing.RolloutSweep.advance`.
    """
    a_full = frozenset(a.deployment_full)
    b_full = frozenset(b.deployment_full)
    return a_full <= b_full and (
        a_full | frozenset(a.deployment_simplex)
        <= b_full | frozenset(b.deployment_simplex)
    )


def detect_chains(requests: Iterable[EvalRequest]) -> list[list[EvalRequest]]:
    """Partition requests into nested-deployment chains.

    Requests are grouped by everything *except* the deployment — same
    topology (scale, seed, ixp), pair set, rank model, and attacker
    strategy — then each group is sorted by deployment size and greedily
    split into chains whose adjacent steps satisfy
    :func:`deployment_nested` (first-fit onto the existing chain ends).
    Singleton chains are ordinary step-independent scenarios; chains of
    length ≥ 2 are what the scheduler hands to the rollout-major
    evaluation path.  Deterministic: group order follows first
    appearance, in-group order is by (signing size, ranking size,
    membership tuples).

    Example:
        A rollout's steps collapse onto one chain; an unrelated
        deployment splits off:

        >>> from repro.core import Deployment, SECURITY_FIRST
        >>> def req(members):
        ...     return EvalRequest.build(
        ...         scale="tiny", seed=1, ixp=False, pairs=[(9, 5)],
        ...         deployment=Deployment.of(members), model=SECURITY_FIRST,
        ...     )
        >>> chains = detect_chains(
        ...     [req([1, 2, 3]), req([1]), req([1, 2]), req([4])]
        ... )
        >>> [[r.deployment_full for r in c] for c in chains]
        [[(1,), (1, 2), (1, 2, 3)], [(4,)]]
    """
    groups: dict[tuple, list[EvalRequest]] = {}
    for request in requests:
        key = (
            request.scale,
            request.seed,
            request.ixp,
            request.pairs,
            request.model,
            request.attack,
        )
        groups.setdefault(key, []).append(request)
    chains: list[list[EvalRequest]] = []
    for group in groups.values():
        group.sort(
            key=lambda r: (
                len(r.deployment_full) + len(r.deployment_simplex),
                len(r.deployment_full),
                r.deployment_full,
                r.deployment_simplex,
            )
        )
        local: list[list[EvalRequest]] = []
        for request in group:
            for chain in local:
                if deployment_nested(chain[-1], request):
                    chain.append(request)
                    break
            else:
                local.append([request])
        chains.extend(local)
    return chains


def destination_groups(
    pairs: Sequence[tuple[int | None, int]],
) -> list[list[int]]:
    """Group pair *indices* by destination (first-appearance order;
    input order is preserved within each group)."""
    groups: dict[int, list[int]] = {}
    for i, (_m, d) in enumerate(pairs):
        groups.setdefault(d, []).append(i)
    return list(groups.values())


def cut_bins(
    chains: Sequence[tuple[Sequence[tuple[int | None, int]], int]],
    cap: int,
    share: int,
) -> list[list[tuple[int, list[int]]]]:
    """Cut chains — ``(pairs, number of steps)`` each — into bins of
    about ``cap`` rows (pair-steps), the tasks of one pool pass: a bin
    is a list of ``(chain index, pair indices)`` parts.

    The unit is a destination group of one chain with all its steps:
    units go to bins in chain order, pair order within a chain — so a
    chain's parts sit in neighbouring bins and chains come back whole
    in about the order given — a unit that does not fit what is left of
    a bin opens the next one, and only a unit of more than ``share``
    rows (a worker's fair share of the pass) is split, a pair with all
    its steps being the smallest piece: on a scalar context, or with
    many attackers, every piece of a split group fixes the
    destination's baseline again.

    Example:
        >>> pairs = [(1, 9), (2, 9), (3, 9), (4, 8)]
        >>> cut_bins([(pairs, 2), (pairs[:1], 1)], cap=4, share=4)
        [[(0, [0, 1])], [(0, [2, 3])], [(1, [0])]]
        >>> cut_bins([(pairs, 2), (pairs[:1], 1)], cap=4, share=8)
        [[(0, [0, 1, 2])], [(0, [3]), (1, [0])]]
    """
    cap, share = max(1, cap), max(1, share)
    bins: list[list[tuple[int, list[int]]]] = []
    room = 0  # rows the last bin still takes
    for j, (pairs, steps) in enumerate(chains):
        per_piece = max(1, share // max(1, steps))
        for group in destination_groups(pairs) if steps else ():
            for at in range(0, len(group), per_piece):
                piece = group[at : at + per_piece]
                if not bins or room < min(cap, len(piece) * steps):
                    bins.append([])
                    room = cap
                room -= len(piece) * steps
                if bins[-1] and bins[-1][-1][0] == j:
                    bins[-1][-1][1].extend(piece)
                else:
                    bins[-1].append((j, piece))
    return bins


@dataclass(frozen=True)
class SweepSpec:
    """A named collection of requests declared by one experiment."""

    name: str
    requests: tuple[EvalRequest, ...]

    @classmethod
    def empty(cls, name: str) -> "SweepSpec":
        """An experiment that needs no metric scenarios (gadget/sim runs)."""
        return cls(name=name, requests=())

    @classmethod
    def of(cls, name: str, requests: Iterable[EvalRequest]) -> "SweepSpec":
        return cls(name=name, requests=tuple(requests))

    def __iter__(self) -> Iterator[EvalRequest]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def hashes(self) -> frozenset[str]:
        return frozenset(r.scenario_hash for r in self.requests)


class EvalResults:
    """The results mapping handed to every experiment's ``run`` phase."""

    def __init__(self, by_hash: Mapping[str, MetricResult]):
        self._by_hash = dict(by_hash)

    def for_request(self, request: EvalRequest) -> MetricResult:
        try:
            return self._by_hash[request.scenario_hash]
        except KeyError:
            raise KeyError(
                f"scenario {request.scenario_hash} was not evaluated; "
                "was it declared in the experiment's requests()? "
                "(run experiments via repro.experiments.runner.run_experiments)"
            ) from None

    def delta(self, request: EvalRequest, baseline: EvalRequest) -> Interval:
        """Bound-wise ``H(S) − H(∅)`` between two evaluated scenarios.

        Uses :meth:`Interval.bound_delta` (the Figures 7-12 quantity),
        *not* the conservative ``Interval.__sub__``.
        """
        return self.for_request(request).value.bound_delta(
            self.for_request(baseline).value
        )

    def __contains__(self, request: EvalRequest) -> bool:
        return request.scenario_hash in self._by_hash

    def __len__(self) -> int:
        return len(self._by_hash)


# ----------------------------------------------------------------------
# MetricResult (de)serialization for the persistent store
# ----------------------------------------------------------------------

def result_to_record(result: MetricResult) -> dict:
    """Serialize a MetricResult to integers (exact round-trip).

    Only the per-pair happy counts are stored; the averaged interval is
    rederived on load by the same arithmetic (:func:`_mean_interval`)
    over the same pair order, so it reproduces bit-for-bit.
    """
    return {
        "pairs": [[r.attacker, r.destination] for r in result.per_pair],
        "happy_lower": [r.happy_lower for r in result.per_pair],
        "happy_upper": [r.happy_upper for r in result.per_pair],
        "num_sources": [r.num_sources for r in result.per_pair],
    }


def result_from_record(record: dict) -> MetricResult:
    """Inverse of :func:`result_to_record`."""
    per_pair = tuple(
        AttackHappiness(
            attacker=m,
            destination=d,
            happy_lower=lower,
            happy_upper=upper,
            num_sources=sources,
        )
        for (m, d), lower, upper, sources in zip(
            record["pairs"],
            record["happy_lower"],
            record["happy_upper"],
            record["num_sources"],
        )
    )
    return MetricResult(value=_mean_interval(per_pair), per_pair=per_pair)
