"""Property-based invariants of the flat-array routing engine.

Complements ``tests/test_properties.py`` (which checks the *paper's*
theorems) with invariants of the *engine mechanics* on random inputs:

* **rank-key monotonicity along next hops** and **no export-rule
  violations** — every state pass here is certified stable
  (:func:`repro.core.certify.certify`, the ``certified`` fixture): each
  AS holds the minimum key its neighbours' ``Ex``-legal offers give it,
  so a next hop's key is strictly smaller than its own (this is what
  makes the single fixing pass equal the staged BFS);
* **bound ordering** — ``happy_lower ≤ happy_upper`` (and the same for
  the attacked counts), with both within ``[0, num_sources]``;
* **count equality** — the certificate recounts the six counts from
  each pass's state, and the seed reference engine, run under the model
  the caller asked for, counts the same (a pass run under the wrong
  rank model is stable under that model: only an oracle sees it);
* **batching is pure** — ``batch_outcomes`` over a pair sweep equals
  pair-at-a-time ``compute_routing_outcome`` even though the batch
  reuses scratch buffers and deployment masks;
* **every chain path is the same function** — along a random nested
  deployment chain, the count path, a fresh sweep per step and the
  per-pair engine, each of its passes certified, equal the reference
  engine, which resolves the attack on its own, at every step, attacked
  and attacker-free (the tier-1 seed of the standing differential
  fuzzer);
* **the certificate rejects** a real pass with one field corrupted,
  naming the AS, and imports nothing of the kernel it checks.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core import (
    Deployment,
    DestinationSweep,
    FORGED_ORIGIN,
    HONEST,
    ONE_HOP_HIJACK,
    PathLengthHijack,
    RoutingContext,
    batch_outcomes,
    compute_routing_outcome,
    normal_conditions,
    rollout_happiness_counts,
)
from repro.core import SECURITY_SECOND, certify, fixing
from repro.core.refimpl import ref_compute_routing_outcome

from test_properties import DEFAULT_SETTINGS, attack_instances

#: every state call here is certified stable (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("certified")


class TestEngineInvariants:
    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_rank_key_monotone_along_next_hops(self, instance):
        """The certificate's row minimum, its only oracle: each AS holds
        the best key its neighbours offer, so a next hop's key is below
        its own."""
        graph, destination, attacker, deployment, model = instance
        compute_routing_outcome(graph, destination, attacker, deployment, model)

    @DEFAULT_SETTINGS
    @given(attack_instances(simplex=True))
    def test_no_export_rule_violations(self, instance):
        """The certificate's offers are the ones ``Ex`` lets through, on
        the draws with stub simplex members (signed, yet ranking their
        own route insecure, and exporting it to no one) that
        ``test_rank_key_monotone_along_next_hops`` never draws."""
        graph, destination, attacker, deployment, model = instance
        assume(deployment.simplex)
        compute_routing_outcome(graph, destination, attacker, deployment, model)

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_happy_bounds_ordered(self, instance):
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        lower, upper = out.count_happy()
        att_lower, att_upper = out.count_attacked()
        assert 0 <= lower <= upper <= out.num_sources
        assert 0 <= att_lower <= att_upper <= out.num_sources

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_counts_match_view_and_reference_engine(self, instance):
        """The certificate recounts a pass from its state; the reference
        engine counts the same under the model asked for."""
        graph, destination, attacker, deployment, model = instance
        out = compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        ref = ref_compute_routing_outcome(
            graph, destination, attacker=attacker, deployment=deployment,
            model=model,
        )
        assert out.count_happy() == ref.count_happy()
        assert out.count_attacked() == ref.count_attacked()
        assert out.count_secure_sources() == ref.count_secure_sources()

    @DEFAULT_SETTINGS
    @given(attack_instances())
    def test_batch_outcomes_equal_individual_calls(self, instance):
        graph, destination, attacker, deployment, model = instance
        asns = graph.asns
        pairs = [
            (attacker, destination),
            (None, destination),
            (attacker, next(a for a in asns if a != attacker)),
        ]
        batch = batch_outcomes(graph, pairs, deployment, model)
        for (m, d), got in zip(pairs, batch):
            want = compute_routing_outcome(
                graph, d, attacker=m, deployment=deployment, model=model
            )
            assert dict(got.routes) == dict(want.routes), (m, d)
            assert got.count_happy() == want.count_happy()


@st.composite
def nested_chains(draw):
    """(graph, destination, attacker, chain, model, attack): 2–4
    deployments nested per membership mode, simplex members included,
    the last step promoting at least one of them to full when any
    exist; the destination or the attacker may join on the way."""
    graph, destination, attacker, first, model = draw(
        attack_instances(simplex=True)
    )
    asns = graph.asns
    joining = st.sets(st.sampled_from(asns), max_size=len(asns) // 3)
    stubs = st.sets(st.sampled_from([a for a in asns if graph.is_stub(a)]))
    chain = [first]
    steps = draw(st.integers(1, 3))
    for step in range(steps):
        prev = chain[-1]
        promoted = set()
        if prev.simplex:
            promoted = draw(
                st.sets(
                    st.sampled_from(sorted(prev.simplex)),
                    min_size=step == steps - 1,
                )
            )
        full = prev.full | promoted | draw(joining)
        chain.append(
            Deployment(
                full=frozenset(full),
                simplex=frozenset((prev.simplex | draw(stubs)) - full),
            )
        )
    attack = draw(
        st.sampled_from(
            (ONE_HOP_HIJACK, FORGED_ORIGIN, PathLengthHijack(2), HONEST)
        )
    )
    return graph, destination, attacker, chain, model, attack


class TestSweepPathsAgree:
    @DEFAULT_SETTINGS
    @given(nested_chains())
    def test_chain_walks_equal_fresh_sweeps_and_oracles(self, instance):
        graph, d, m, chain, model, attack = instance
        sources = len(graph.asns) - 2
        want = []
        for deployment in chain:
            ref = ref_compute_routing_outcome(
                graph, d, attacker=m, deployment=deployment, model=model,
                attack=attack,
            )
            free = ref_compute_routing_outcome(
                graph, d, deployment=deployment, model=model
            )
            want.append(((*ref.count_happy(), sources), free.count_happy()))
        ctx = RoutingContext(graph)
        planned = rollout_happiness_counts(ctx, [(m, d)], chain, model, attack=attack)
        for t, deployment in enumerate(chain):
            attacked, attacker_free = want[t]
            fresh = DestinationSweep(ctx, d, deployment, model, attack)
            direct = compute_routing_outcome(
                ctx, d, attacker=m, deployment=deployment, model=model,
                attack=attack,
            )
            free = normal_conditions(ctx, d, deployment, model)
            assert planned[t] == [attacked], t
            assert (*direct.count_happy(), sources) == attacked, t
            assert free.count_happy() == attacker_free, t
            assert fresh.happiness_counts(m) == attacked, t


class TestCertificate:
    """``certify`` rejects a real pass with one field corrupted, naming
    the AS, and shares no code with the kernel it checks."""

    @pytest.fixture(scope="class")
    def picked(self, small_ctx):
        """A security-2nd pass with a signed destination and most ASes
        signing, stubs in simplex mode, copied out of the scratch; and
        per corruption target its AS: a fixed transit AS, the
        destination, a neighbour of the destination, and a fixed
        simplex stub and a fixed unsigned stub each offered only signed
        announcements (a flipped wire bit there stays inside the bounds
        ``t_wire & rank`` .. ``t_wire`` that a stub's ranking alone
        gives: only its signing bit pins it)."""
        graph = small_ctx.graph
        rnd = random.Random("certify")
        d, m = rnd.sample(graph.asns, 2)
        dep = Deployment.of([d, *rnd.sample(graph.asns, 250)]).with_simplex_stubs(graph)
        dest_i, att_i = small_ctx._check_pair(d, m)
        signing, ranking = small_ctx.deployment_masks(dep)
        state = fixing._run(small_ctx, dest_i, att_i, signing, ranking, SECURITY_SECOND)
        arrays = {name: a.copy() for name, a in state.arrays.items()}
        fixed, wire, index_of = arrays["fixed"], arrays["wire"], graph.index

        def fixed_as(stub: bool, signs: bool = True) -> int:
            """The first fixed non-root AS of the kind; a stub one whose
            fixed neighbours, and so its tying offerers, all announce
            signed."""
            return next(
                v for v, asn in enumerate(small_ctx.graph.asns)
                if fixed[v] and asn not in (d, m) and graph.is_stub(asn) == stub
                and (not stub or (signing[v] == signs and not ranking[v] and all(
                    wire[index_of(u)] for u in graph.neighbors(asn)
                    if fixed[index_of(u)])))
            )

        neighbour = index_of(min(graph.neighbors(d) - {m}))
        return small_ctx, state._replace(arrays=arrays), {
            "transit": fixed_as(stub=False), "destination": dest_i,
            "neighbour": neighbour, "simplex-stub": fixed_as(stub=True),
            "unsigned-stub": fixed_as(stub=True, signs=False),
        }

    @pytest.mark.parametrize("field, which, corrupt", [
        ("key", "transit", lambda x: x + 1),
        ("choice", "transit", lambda x: x + 1),
        ("reach", "transit", lambda x: x ^ 3),
        ("wire", "transit", lambda x: 1 - x),
        ("sec", "transit", lambda x: 1 - x),
        ("wire", "destination", lambda x: 1 - x),  # a root's wire
        ("wire", "simplex-stub", lambda x: 1 - x),  # signed, drops it
        ("wire", "unsigned-stub", lambda x: 1 - x),  # unsigned, claims it
        ("fixed", "neighbour", lambda x: False),  # offered, yet unfixed
        ("counts", "destination", None),
    ], ids=["key", "choice", "reach", "wire", "sec", "root-wire",
            "simplex-stub-wire", "unsigned-stub-wire", "unfixed-but-offered",
            "count"])
    def test_rejects_a_corrupted_pass_naming_the_as(
        self, picked, field, which, corrupt
    ):
        ctx, state, ases = picked
        certify.certify(ctx, state)
        i = ases[which]
        if field == "counts":
            bad = state._replace(counts=(state.counts[0] + 1, *state.counts[1:]))
        else:
            arrays = {name: a.copy() for name, a in state.arrays.items()}
            arrays[field][i] = corrupt(arrays[field][i])
            bad = state._replace(arrays=arrays)
        with pytest.raises(AssertionError, match=rf"AS {ctx.graph.asns[i]}\b"):
            certify.certify(ctx, bad)

    def test_imports_nothing_of_the_kernel(self):
        """Only ``StatePass`` and ``_NP_INF`` come from the kernel's
        module, and the context's CSR is never asked for: a kernel bug
        cannot be copied into the check that proves the kernel."""
        tree = ast.parse(Path(certify.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if (node.module or "").split(".")[-1] == "fixing":
                    assert names <= {"StatePass", "_NP_INF"}, names
                else:
                    assert "fixing" not in names, node.module
            elif isinstance(node, ast.Import):
                assert not any("fixing" in alias.name for alias in node.names)
            assert "_np_csr" not in (
                getattr(node, "attr", None), getattr(node, "value", None)
            ), ast.dump(node)
