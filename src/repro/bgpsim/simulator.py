"""Event-driven message-passing BGP / S*BGP simulator.

This is a second, independent implementation of the paper's routing
model: ASes hold per-neighbor RIB-ins, select best routes with their own
policy (:class:`~repro.bgpsim.policy.PolicyAssignment`), apply the export
rule ``Ex``, propagate announcements and withdrawals, and converge to a
stable state — or fail to, which is the point of Section 2.3.

It serves three purposes:

* **cross-validation** — with a uniform policy assignment its fixed
  point must equal the staged computation of
  :func:`repro.core.outcome.compute_routing_outcome` (Theorem 2.1 says
  the stable state is unique); the integration tests check this on
  hundreds of random instances;
* **wedgies** — with *inconsistent* security placement it reproduces the
  Figure 1 BGP Wedgie: two stable states and hysteresis after a link
  failure/restore cycle (:meth:`BGPSimulator.fail_link` /
  :meth:`BGPSimulator.restore_link`);
* **oscillation detection** — non-convergence raises
  :class:`ConvergenceError` after a configurable activation budget.

The simulator computes routes for a single destination (BGP treats
destinations independently); the deterministic tiebreak is the lowest
next-hop ASN, matching the staged algorithm's concrete view.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..core.attacks import (
    DEFAULT_ATTACK,
    AttackStrategy,
    AttackerBaseline,
    ResolvedAttack,
)
from ..core.deployment import Deployment
from ..core.rank import BASELINE
from ..topology.graph import ASGraph
from ..topology.relationships import (
    ROUTE_CLASS_OF_NEXT_HOP,
    Relationship,
    exports_to,
)
from .policy import PolicyAssignment
from .route import Announcement


class ConvergenceError(RuntimeError):
    """The simulation exceeded its activation budget (likely oscillating)."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Statistics of one :meth:`BGPSimulator.run` call."""

    activations: int
    messages: int
    converged: bool


class BGPSimulator:
    """Single-destination BGP/S*BGP propagation engine.

    Args:
        graph: the AS topology (never mutated; link failures are
            simulator-local state).
        destination: the AS originating the prefix.
        deployment: the secure set ``S``.
        policies: per-AS policy assignment; defaults to uniform baseline.
        attacker: optional attacking AS; by default it announces the
            bogus path ``"m d"`` via legacy BGP to all neighbors
            (Section 3.1).
        attack: the attacker strategy (:mod:`repro.core.attacks`)
            shaping the claimed path length, its security attributes
            and the export scope; strategies that need the attacker's
            legitimate route (e.g. the honest announcement) converge a
            normal-conditions probe first.
        secure_hysteresis: the paper's §8 mitigation proposal — an AS
            that currently uses a *secure* route refuses to replace it
            with an insecure route while any secure candidate remains,
            even if its policy would otherwise prefer the insecure one.
            This blunts protocol downgrade attacks at the cost of
            deviating from pure rank-order selection.
    """

    def __init__(
        self,
        graph: ASGraph,
        destination: int,
        deployment: Deployment | None = None,
        policies: PolicyAssignment | None = None,
        attacker: int | None = None,
        attack: AttackStrategy = DEFAULT_ATTACK,
        secure_hysteresis: bool = False,
    ) -> None:
        if destination not in graph:
            raise ValueError(f"destination AS {destination} not in graph")
        if attacker is not None and attacker == destination:
            raise ValueError("attacker and destination must differ")
        if attacker is not None and attacker not in graph:
            raise ValueError(f"attacker AS {attacker} not in graph")
        self.graph = graph
        self.destination = destination
        self.attacker = attacker
        self.attack = attack
        #: resolved attack parameters once the attacker is announcing.
        self._attack_resolved: ResolvedAttack | None = None
        self.deployment = deployment or Deployment.empty()
        self.policies = policies or PolicyAssignment(default=BASELINE)
        self.secure_hysteresis = secure_hysteresis

        self._signing = self.deployment.signing_members
        self._ranking = self.deployment.ranking_members
        self._neighbors: dict[int, tuple[int, ...]] = {
            asn: tuple(sorted(graph.neighbors(asn))) for asn in graph.asns
        }
        self._rel: dict[tuple[int, int], Relationship] = {}
        for a, b, relationship in graph.edges():
            self._rel[a, b] = relationship
            self._rel[b, a] = relationship.inverse()

        #: RIB-in: receiver -> sender -> announcement.
        self.rib_in: dict[int, dict[int, Announcement]] = {a: {} for a in graph.asns}
        #: chosen (neighbor, announcement) per AS; roots use synthetic entries.
        self.best: dict[int, tuple[int, Announcement] | None] = dict.fromkeys(
            graph.asns
        )
        #: last announcement sent on each directed link (None = withdrawn).
        self._sent: dict[tuple[int, int], Announcement | None] = {}
        self._failed: set[frozenset[int]] = set()
        self._queue: deque[int] = deque()
        self._queued: set[int] = set()
        self._messages = 0
        self._bootstrapped = False

    # ------------------------------------------------------------------
    # Topology events
    # ------------------------------------------------------------------
    def fail_link(self, a: int, b: int) -> None:
        """Take the ``a - b`` link down and schedule reconvergence."""
        if b not in self._neighbors.get(a, ()):
            raise ValueError(f"no link {a}-{b}")
        link = frozenset((a, b))
        if link in self._failed:
            return
        self._failed.add(link)
        for receiver, sender in ((a, b), (b, a)):
            self._sent.pop((sender, receiver), None)
            if sender in self.rib_in[receiver]:
                del self.rib_in[receiver][sender]
                self._enqueue(receiver)

    def restore_link(self, a: int, b: int) -> None:
        """Bring the ``a - b`` link back; both ends re-advertise."""
        link = frozenset((a, b))
        if link not in self._failed:
            raise ValueError(f"link {a}-{b} is not failed")
        self._failed.remove(link)
        for sender, receiver in ((a, b), (b, a)):
            self._push_update(sender, receiver)

    def link_up(self, a: int, b: int) -> bool:
        return frozenset((a, b)) not in self._failed

    def inject_attacker(self, attacker: int) -> None:
        """Turn ``attacker`` malicious *after* normal convergence.

        Models the attack as a dynamic event: the AS abandons honest
        participation and announces whatever its strategy claims
        (default: the bogus path ``"m d"`` to all its neighbors),
        replacing whatever it exported before.  Starting the attack
        from the converged state (rather than from scratch) is what
        makes history-dependent policies — §8's hysteresis — behave
        meaningfully.
        """
        if self.attacker is not None:
            raise ValueError(f"attacker AS {self.attacker} already active")
        if attacker == self.destination:
            raise ValueError("attacker and destination must differ")
        if attacker not in self._neighbors:
            raise ValueError(f"attacker AS {attacker} not in graph")
        if not self._bootstrapped:
            self._bootstrap()
        baseline = None
        if self.attack.needs_baseline:
            # The strategy re-uses the attacker's legitimate converged
            # route, so drain any pending reconvergence first.
            self.run()
            baseline = self._attacker_baseline(attacker)
        resolved = self.attack.resolve(
            dest_signed=self.destination in self._signing, baseline=baseline
        )
        self.attacker = attacker
        self._attack_resolved = resolved
        # A silent attacker (e.g. honest with no route) announces
        # nothing; it had no exports to withdraw either.
        self.best[attacker] = (
            (attacker, self._claimed_announcement(resolved))
            if resolved.active
            else None
        )
        for neighbor in self._neighbors[attacker]:
            self._push_update(attacker, neighbor)

    def _attacker_baseline(self, attacker: int) -> AttackerBaseline:
        """The attacker's converged normal-conditions record."""
        chosen = self.best[attacker]
        if chosen is None:
            return AttackerBaseline(has_route=False)
        ann = chosen[1]
        return AttackerBaseline(
            has_route=True,
            length=ann.length,
            wire_secure=ann.signed and attacker in self._signing,
        )

    def _claimed_announcement(self, resolved: ResolvedAttack) -> Announcement:
        """The attacker's claimed announcement for a resolved strategy.

        The claimed path keeps the victim as its origin and pads any
        intermediate hops with synthetic ASNs (negative, so no real AS
        ever loop-rejects the claim), matching the routing engines'
        abstraction that only the claimed *length* and attributes are
        observable.
        """
        fillers = tuple(range(-1, -resolved.length, -1))
        return Announcement(
            path=(self.attacker, *fillers, self.destination),
            signed=resolved.wire,
        )

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(self, max_activations: int | None = None) -> ConvergenceReport:
        """Propagate until no AS wants to change its route.

        Raises:
            ConvergenceError: if the activation budget is exhausted —
                with inconsistent policies, persistent oscillation is
                possible (Section 2.3, citing Sami et al.).
        """
        if not self._bootstrapped:
            self._bootstrap()
        if max_activations is None:
            max_activations = 200 * len(self.graph) + 10_000
        activations = 0
        while self._queue:
            if activations >= max_activations:
                raise ConvergenceError(
                    f"no convergence after {activations} activations; "
                    "the policy assignment likely admits an oscillation"
                )
            asn = self._queue.popleft()
            self._queued.discard(asn)
            self._activate(asn)
            activations += 1
        return ConvergenceReport(
            activations=activations, messages=self._messages, converged=True
        )

    def _bootstrap(self) -> None:
        """Originate the legitimate prefix and (if any) the claimed one."""
        self._bootstrapped = True
        dest_signed = self.destination in self._signing
        self.best[self.destination] = (
            self.destination,
            Announcement(path=(self.destination,), signed=dest_signed),
        )
        if self.attacker is not None:
            baseline = None
            if self.attack.needs_baseline:
                # The strategy re-uses the attacker's legitimate route:
                # converge a normal-conditions probe to obtain it (the
                # stable state is unique, so starting the attack from
                # scratch or from the converged state is equivalent).
                probe = BGPSimulator(
                    self.graph,
                    self.destination,
                    deployment=self.deployment,
                    policies=self.policies,
                    secure_hysteresis=self.secure_hysteresis,
                )
                probe.run()
                baseline = probe._attacker_baseline(self.attacker)
            resolved = self.attack.resolve(dest_signed=dest_signed, baseline=baseline)
            self._attack_resolved = resolved
            if resolved.active:
                self.best[self.attacker] = (
                    self.attacker,
                    self._claimed_announcement(resolved),
                )
        for root in self._roots():
            for neighbor in self._neighbors[root]:
                self._push_update(root, neighbor)

    def _roots(self) -> tuple[int, ...]:
        if self.attacker is None:
            return (self.destination,)
        return (self.destination, self.attacker)

    def _enqueue(self, asn: int) -> None:
        if asn not in self._queued and asn not in self._roots():
            self._queued.add(asn)
            self._queue.append(asn)

    def _rank(self, receiver: int, sender: int, ann: Announcement):
        """Total-order rank of a candidate: (policy key, next-hop ASN)."""
        model = self.policies.model_for(receiver)
        route_class = ROUTE_CLASS_OF_NEXT_HOP[self._rel[(receiver, sender)]]
        secure = ann.signed and receiver in self._ranking
        return (*model.key(route_class, ann.length, secure), sender)

    def _ranks_secure(self, asn: int, ann: Announcement) -> bool:
        return ann.signed and asn in self._ranking

    def _select_best(self, asn: int) -> tuple[int, Announcement] | None:
        candidates: list[tuple[int, Announcement]] = []
        for sender in sorted(self.rib_in[asn]):
            ann = self.rib_in[asn][sender]
            if ann.contains(asn):
                continue  # loop rejection
            candidates.append((sender, ann))
        if (
            self.secure_hysteresis
            and self.best[asn] is not None
            and self._ranks_secure(asn, self.best[asn][1])
        ):
            # §8 hysteresis: a secure incumbent is only ever replaced by
            # another secure route (or dropped when none remains).
            secure_candidates = [
                c for c in candidates if self._ranks_secure(asn, c[1])
            ]
            if secure_candidates:
                candidates = secure_candidates
        best_rank = None
        best: tuple[int, Announcement] | None = None
        for sender, ann in candidates:
            rank = self._rank(asn, sender, ann)
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = (sender, ann)
        return best

    def _activate(self, asn: int) -> None:
        new_best = self._select_best(asn)
        if new_best == self.best[asn]:
            return  # nothing changed; exports stay as they are
        self.best[asn] = new_best
        for neighbor in self._neighbors[asn]:
            self._push_update(asn, neighbor)

    def _outgoing(self, sender: int, receiver: int) -> Announcement | None:
        """What ``Ex`` lets ``sender`` announce to ``receiver`` right now."""
        if frozenset((sender, receiver)) in self._failed:
            return None
        chosen = self.best[sender]
        if chosen is None:
            return None
        next_hop, ann = chosen
        if sender in self._roots():
            if (
                sender == self.attacker
                and self._attack_resolved is not None
                and not self._attack_resolved.export_all
                and self._rel[(sender, receiver)] is not Relationship.CUSTOMER
            ):
                return None  # outside the attacker's export scope
            return ann  # origins announce to everyone (within scope)
        route_class = ROUTE_CLASS_OF_NEXT_HOP[self._rel[(sender, next_hop)]]
        receiver_rel = self._rel[(sender, receiver)]
        if not exports_to(route_class, receiver_rel):
            return None
        return ann.extended_by(sender, signs=sender in self._signing)

    def _push_update(self, sender: int, receiver: int) -> None:
        """Deliver sender's current export to receiver, if it changed."""
        out = self._outgoing(sender, receiver)
        if self._sent.get((sender, receiver)) == out:
            return
        self._sent[(sender, receiver)] = out
        self._messages += 1
        if receiver in self._roots():
            return  # roots never change their minds
        if out is None:
            self.rib_in[receiver].pop(sender, None)
        else:
            self.rib_in[receiver][sender] = out
        self._enqueue(receiver)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def stable_state(self) -> dict[int, tuple[int, ...] | None]:
        """Chosen (announced) path per AS; None when routeless."""
        state: dict[int, tuple[int, ...] | None] = {}
        for asn in self.graph.asns:
            chosen = self.best[asn]
            state[asn] = chosen[1].path if chosen is not None else None
        return state

    def physical_path(self, asn: int) -> tuple[int, ...]:
        """The true forwarding path — attacked routes end at the attacker."""
        chosen = self.best[asn]
        if chosen is None:
            return ()
        path = (asn,) + chosen[1].path if asn not in self._roots() else chosen[1].path
        if self.attacker is not None and self.attacker in path:
            return path[: path.index(self.attacker) + 1]
        return path

    def routes_to_attacker(self, asn: int) -> bool:
        """Does this AS's traffic end at the attacker?"""
        if self.attacker is None or asn in self._roots():
            return False
        path = self.physical_path(asn)
        return bool(path) and path[-1] == self.attacker

    def uses_secure_route(self, asn: int) -> bool:
        """Does this AS currently rank its chosen route as secure?

        Only meaningful when the AS's policy model uses security: an AS
        ranking with the baseline model treats every route as insecure
        even if the announcement happened to arrive signed.
        """
        chosen = self.best[asn]
        return (
            chosen is not None
            and chosen[1].signed
            and asn in self._ranking
            and self.policies.model_for(asn).uses_security
            and asn not in self._roots()
        )
