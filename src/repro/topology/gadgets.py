"""Reconstructions of the paper's worked examples (Figures 1, 2, 14, 15, 17),
and the witness that transit simplex S*BGP has no unique stable state.

The paper illustrates each phenomenon — protocol downgrade attacks, BGP
wedgies, collateral damages and benefits — with a small subgraph of the
real Internet.  The figures only sketch the edges, so each gadget here is
a *reconstruction*: it uses the paper's ASNs and reproduces the narrated
route choices exactly (verified in ``tests/test_gadgets.py``), but the
precise relationship set is inferred from the prose.

Every gadget ships with the deployment set the paper's story uses, so it
can be fed straight into :func:`repro.core.outcome.compute_routing_outcome`
or the message-passing simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import ASGraph, graph_from_edges

#: ASN used for the paper's anonymized attackers.  Deliberately small so
#: that the deterministic lowest-next-hop-ASN tiebreak favors the
#: attacker, matching the paper's "tiebreaks in favor of the attacker"
#: narration in Figure 15.
DEFAULT_ATTACKER_ASN = 666


@dataclass(frozen=True)
class Gadget:
    """A worked example: topology plus the paper's scenario parameters."""

    name: str
    graph: ASGraph
    destination: int
    attacker: int | None
    #: the set S of secure ASes used by the paper's narration.
    secure: frozenset[int]
    #: further ASes running simplex S*BGP (they sign, do not rank).
    simplex: frozenset[int] = frozenset()
    #: human-readable role of each named AS.
    roles: dict[int, str] = field(default_factory=dict)


def figure2_protocol_downgrade() -> Gadget:
    """Figure 2: the protocol downgrade attack on a Tier 1 destination.

    Under normal conditions webhoster AS 21740 uses a secure 1-hop
    provider route to Level 3 (AS 3356).  It has no peer route via Cogent
    (AS 174) because 174's own route to 3356 is a peer route, which ``Ex``
    forbids exporting to a peer.  During the attack, m announces "m 3356";
    AS 3491 (a customer of 174) hands 174 a bogus *customer* route, which
    174 prefers to its legitimate peer route (LP) and exports to everyone.
    AS 21740 then sees a 4-hop *peer* route which — when security is 2nd
    or 3rd — beats its secure *provider* route, so it downgrades.
    AS 3536 (DoD NIC) is a single-homed stub of 3356 and is immune.
    """
    m = DEFAULT_ATTACKER_ASN
    graph = graph_from_edges(
        customer_provider=[
            (21740, 3356),  # webhoster buys transit from Level 3
            (3536, 3356),  # DoD NIC, single-homed stub of Level 3
            (3491, 174),  # PCCW is a customer of Cogent
            (m, 3491),  # the attacker hangs off PCCW
        ],
        peerings=[
            (21740, 174),
            (174, 3356),  # Tier-1 peering
        ],
    )
    return Gadget(
        name="figure2",
        graph=graph,
        destination=3356,
        attacker=m,
        secure=frozenset({3356, 21740, 3536}),
        roles={
            3356: "Level 3 (Tier 1) — the victim destination",
            21740: "eNom webhoster — suffers the protocol downgrade",
            174: "Cogent — doomed when security is 2nd/3rd",
            3491: "PCCW — transits the bogus announcement",
            3536: "DoD NIC — immune single-homed stub",
            m: "attacker announcing 'm 3356' via legacy BGP",
        },
    )


def figure1_wedgie() -> Gadget:
    """Figure 1: the S*BGP Wedgie caused by *inconsistent* security placement.

    All ASes except AS 8928 are secure.  The Swedish ISP AS 29518 places
    security *below* LP (security 3rd); the Norwegian ISP AS 31283 places
    it above everything (security 1st).  In the intended state 31283 uses
    the secure provider route (29518 31027 3).  After the 31027-3 link
    fails and recovers, 29518 is stuck preferring the insecure *customer*
    route learned via 31283, 31283 never re-learns the secure provider
    route, and the system cannot return to the intended state.

    The per-AS policy assignment lives with the experiment
    (:mod:`repro.experiments.exp_wedgie`); this gadget is the topology.
    """
    graph = graph_from_edges(
        customer_provider=[
            (3, 31027),  # MIT buys transit from Nianet
            (3, 8928),  # ... and from the (insecure) AS 8928
            (8928, 34226),
            (34226, 31283),
            (31283, 29518),  # Norwegian ISP is a customer of the Swedish ISP
        ],
        peerings=[(31027, 29518)],
    )
    return Gadget(
        name="figure1",
        graph=graph,
        destination=3,
        attacker=None,
        secure=frozenset({3, 31027, 29518, 31283, 34226}),
        roles={
            3: "MIT — the destination",
            8928: "the only insecure AS",
            29518: "Swedish ISP — prioritizes security below LP",
            31283: "Norwegian ISP — prioritizes security 1st",
            31027: "Nianet — peers with 29518",
            34226: "Hungarian network",
        },
    )


def figure14_collateral(attacker: int = DEFAULT_ATTACKER_ASN) -> Gadget:
    """Figure 14: collateral damage (AS 52142) and benefit (AS 5166), sec 2nd.

    Before deployment, Polish ISP AS 52142 picks its 3-hop legitimate
    provider route (5617 3356 40426) over the 5-hop bogus route via
    AS 12389.  After {5617, 174, 3491, 20960, 10310, 40426} deploy S*BGP,
    AS 5617 (security 2nd) switches to a 5-hop *secure* provider route via
    Cogent, so insecure AS 52142 now compares a 6-hop legitimate route to
    the 5-hop bogus one and falls to the attacker: collateral damage.
    Meanwhile AS 3491 switches off its bogus customer route onto a secure
    customer route, which rescues Cogent (174) and, transitively, the
    insecure DoD AS 5166: collateral benefit.  AS 10310 (Yahoo) is immune:
    its 1-hop customer route always beats a bogus provider route.
    """
    m = attacker
    graph = graph_from_edges(
        customer_provider=[
            (40426, 10310),  # Pandora buys from Yahoo
            (40426, 3356),  # ... and from Level 3
            (10310, 20960),
            (10310, 7922),  # Yahoo's other provider hears the bogus route
            (20960, 3491),
            (3491, 174),
            (m, 3491),  # the attacker hangs off PCCW ...
            (m, 7922),  # ... and off Comcast
            (5617, 3356),
            (5617, 174),
            (52142, 5617),
            (52142, 12389),
            (12389, 3257),
            (5166, 174),
        ],
        peerings=[(3257, 7922)],
    )
    return Gadget(
        name="figure14",
        graph=graph,
        destination=40426,
        attacker=m,
        secure=frozenset({5617, 174, 3491, 20960, 10310, 40426}),
        roles={
            40426: "Pandora — the victim destination",
            52142: "Polish ISP — collateral damage (security 2nd)",
            5617: "Telekomunikacja Polska — switches to the long secure route",
            174: "Cogent — rescued by 3491's secure route",
            5166: "DoD NIC — collateral benefit",
            3491: "PCCW — chooses bogus pre-deployment, secure post",
            10310: "Yahoo — immune",
            m: "attacker (anonymized Tier 2)",
        },
    )


def figure15_collateral_benefit(attacker: int = DEFAULT_ATTACKER_ASN) -> Gadget:
    """Figure 15: collateral benefit in the security 3rd model.

    AS 3267 learns two equal-length peer routes: a legitimate one via
    Yahoo (10310) and the bogus one directly from the attacker.  Its
    tiebreak favors the attacker, so its customers AS 34223 and AS 12389
    are unhappy.  Once {3267, 10310, 40426} are secure, the legitimate
    route is secure and security-3rd prefers it *before* the tiebreak, so
    the insecure customers become happy: a collateral benefit, in the one
    model where collateral damage is impossible (Theorem 6.1).
    """
    m = attacker
    graph = graph_from_edges(
        customer_provider=[
            (40426, 10310),
            (34223, 3267),
            (12389, 3267),
            (m, 7922),
        ],
        peerings=[
            (3267, 10310),
            (3267, m),
            (3267, 7922),
        ],
    )
    return Gadget(
        name="figure15",
        graph=graph,
        destination=40426,
        attacker=m,
        secure=frozenset({3267, 10310, 40426}),
        roles={
            40426: "Pandora — the victim destination",
            3267: "Russian state institute ISP — tiebreaks toward the attacker",
            34223: "ZAO N-Region — collateral benefit",
            12389: "Rostelecom — collateral benefit",
            10310: "Yahoo — transit for the legitimate peer route",
            m: "attacker",
        },
    )


def figure17_collateral_damage_sec1st(
    attacker: int = DEFAULT_ATTACKER_ASN,
) -> Gadget:
    """Figure 17 (Appendix A): collateral damage in the *security 1st* model.

    Pre-deployment, Orange Oceania (AS 4805) uses the legitimate peer
    route via Optus (AS 7474) and avoids the bogus provider route via
    AS 2647.  Post-deployment, Optus — security 1st — abandons its
    insecure customer route for a secure *provider* route via AS 7473;
    ``Ex`` forbids exporting a provider route to a peer, so AS 4805 loses
    its legitimate route entirely and falls to the attacker.
    """
    m = attacker
    graph = graph_from_edges(
        customer_provider=[
            (40426, 10310),
            (40426, 10026),
            (10310, 7473),
            (10026, 17477),
            (17477, 7474),
            (7474, 7473),
            (4805, 2647),
            (m, 2647),
        ],
        peerings=[(4805, 7474)],
    )
    return Gadget(
        name="figure17",
        graph=graph,
        destination=40426,
        attacker=m,
        secure=frozenset({7474, 7473, 10310, 40426}),
        roles={
            40426: "the victim destination",
            4805: "Orange Oceania — collateral damage (security 1st)",
            7474: "Optus — switches to a secure provider route",
            7473: "Optus's provider — on the secure chain",
            2647: "provider transiting only the bogus route",
            17477: "Optus's customer chain (insecure)",
            10026: "Optus's customer chain (insecure)",
            10310: "Yahoo — on the secure chain",
            m: "attacker",
        },
    )


def transit_simplex_two_states() -> Gadget:
    """Transit simplex has two stable states under security 1st.

    Simplex AS 2 has customers, so it re-announces, signed, a route it
    ranks as insecure: outside the models of Theorem 2.1 (§5.3.2 defines
    simplex for stubs).  The simulator converges with FIFO activation to
    a state where no source routes to the attacker, and with LIFO
    activation to one where ASes 2 and 3 do.  The engines reject it.
    """
    graph = graph_from_edges(
        customer_provider=[(3, 2), (4, 1), (4, 3), (5, 1), (5, 2), (5, 4)],
        peerings=[(1, 2), (2, 4)],
    )
    return Gadget(
        name="transit_simplex",
        graph=graph,
        destination=1,
        attacker=4,
        secure=frozenset({1, 3, 4, 5}),
        simplex=frozenset({2}),
        roles={2: "simplex AS with customers 3 and 5", 4: "attacker"},
    )


ALL_GADGETS = {
    "figure1": figure1_wedgie,
    "figure2": figure2_protocol_downgrade,
    "figure14": figure14_collateral,
    "figure15": figure15_collateral_benefit,
    "figure17": figure17_collateral_damage_sec1st,
    "transit_simplex": transit_simplex_two_states,
}
