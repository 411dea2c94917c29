"""Unit tests for the destination-group scheduler of the experiment
runner: grouping, cutting a plan's chains into bins, the
order-preserving scatter/gather of ``ExperimentContext.metric``, and
what a context holds over its lifetime."""

from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest

from repro.core import BASELINE, SECURITY_SECOND, Deployment
from repro.core.attacks import DEFAULT_ATTACK
from repro.core import context, fixing
from repro.core.refimpl import RefRoutingContext, ref_compute_routing_outcome
from repro.experiments import make_context
from repro.experiments import runner as runner_module
from repro.experiments.runner import _Pass
from repro.experiments.scenarios import cut_bins, destination_groups


class TestDestinationGroups:
    def test_groups_by_destination_preserving_order(self):
        pairs = [(1, 9), (2, 8), (3, 9), (4, 7), (5, 8), (6, 9)]
        groups = destination_groups(pairs)
        assert groups == [[0, 2, 5], [1, 4], [3]]

    def test_empty(self):
        assert destination_groups([]) == []


def _chain(group_sizes, steps=1):
    """``(pairs, steps)`` with destination groups of the given sizes."""
    pairs = [
        (1000 * d + m, d) for d, size in enumerate(group_sizes)
        for m in range(1, size + 1)
    ]
    return pairs, steps


def _rows(parts, chains):
    return sum(len(idxs) * chains[j][1] for j, idxs in parts)


class TestCutBins:
    def test_skewed_groups_do_not_starve_the_pool(self):
        """One giant destination group must not serialize the sweep: it
        is split at the bin size and spread over the bins."""
        chains = [_chain([100] + [1] * 12)]
        total, slots = len(chains[0][0]), 4
        cap = -(-total // slots)  # ceil: one bin's fair share
        bins = cut_bins(chains, cap, cap)
        assert sorted(i for parts in bins for _, idxs in parts for i in idxs) == list(
            range(total)
        )
        assert max(_rows(parts, chains) for parts in bins) <= cap
        assert len(bins) == slots

    def test_units_fill_bins_in_plan_order(self):
        chains = [_chain([7, 5, 5, 4, 3, 3, 2, 1])]
        bins = cut_bins(chains, 10, 10)
        # 30 rows, nothing split: 7 | 5 5 | 4 3 3 | 2 1, in pair order.
        assert [_rows(parts, chains) for parts in bins] == [7, 10, 10, 3]
        assert [i for parts in bins for _, idxs in parts for i in idxs] == list(
            range(30)
        )

    def test_groups_stay_whole_below_the_bin_size(self):
        chains = [_chain([3, 2, 1])]
        bins = cut_bins(chains, 5, 5)
        for group in destination_groups(chains[0][0]):
            owners = [
                parts for parts in bins if set(group) <= set(parts[0][1])
            ]
            assert len(owners) == 1, f"group {group} split across bins"

    def test_a_row_is_a_pair_step(self):
        """A chain's pair weighs its steps, and is never split below
        one pair with all of them."""
        chains = [_chain([4, 1], steps=19), _chain([6])]
        bins = cut_bins(chains, 40, 40)
        assert [_rows(parts, chains) for parts in bins] == [38, 38, 25]
        assert [[j for j, _ in parts] for parts in bins] == [[0], [0], [0, 1]]
        assert [_rows(parts, chains) for parts in cut_bins(chains[:1], 5, 5)] == (
            [19] * 5
        )

    def test_only_a_unit_above_the_fair_share_is_split(self):
        """A bin fills to about ``cap``, but a destination group is
        split for load balance only: every piece of a walked group
        fixes the destination's baseline again."""
        chains = [_chain([9, 2, 2]), _chain([3], steps=4)]
        whole = cut_bins(chains, 4, 100)
        assert [_rows(parts, chains) for parts in whole] == [9, 4, 12]
        assert [len(parts) for parts in whole] == [1, 1, 1]
        split = cut_bins(chains, 4, 6)
        assert [_rows(parts, chains) for parts in split] == [6, 3, 4, 4, 4, 4]

    def test_deterministic(self):
        chains = [_chain(range(1, 8))]
        assert cut_bins(chains, 6, 6) == cut_bins(list(chains), 6, 6)

    def test_one_bin_takes_everything_it_has_room_for(self):
        chains = [_chain([2, 1]), _chain([3], steps=2), _chain([], 3), _chain([4], 0)]
        assert cut_bins(chains, 100, 100) == [[(0, [0, 1, 2]), (1, [0, 1, 2])]]

    def test_a_bin_ships_each_distinct_deployment_once(self):
        """Chains that share deployment objects share them in the worker
        too: the engine remembers checks and masks per object."""
        with make_context(scale="tiny", seed=2013) as ectx:
            chain = tuple(Deployment.of(ectx.graph.asns[:k]) for k in (0, 5, 9))
            pairs = tuple(zip(ectx.graph.asns[20:24], ectx.graph.asns[30:34]))
            keys = [
                (pairs, chain, BASELINE, DEFAULT_ATTACK),
                (pairs, chain[:2], SECURITY_SECOND, DEFAULT_ATTACK),
            ]
            sent = []
            ectx._run_tasks = lambda worker, tasks, *rest: sent.extend(tasks)
            _Pass(ectx, keys)
        (task,) = sent
        received = pickle.loads(pickle.dumps(task))
        assert [job[1:] for job in received] == [key[1:] for key in keys]
        (_, first, *_), (_, second, *_) = received
        assert all(a is b for a, b in zip(first, second))


class TestMetricScheduling:
    @pytest.fixture(scope="class")
    def ectx(self):
        with make_context(scale="tiny", seed=2013) as ectx:
            yield ectx

    def test_parallel_matches_serial_bit_for_bit(self, ectx):
        """Group-aware parallel scheduling reassembles results in input
        pair order, so the fork pool reproduces serial evaluation."""
        rnd = random.Random(5)
        asns = ectx.graph.asns
        dests = rnd.sample(asns, 3)
        pairs = []
        for d in dests:  # deliberately skewed group sizes
            count = {dests[0]: 17, dests[1]: 4, dests[2]: 1}[d]
            pairs += [(m, d) for m in rnd.sample([a for a in asns if a != d], count)]
        rnd.shuffle(pairs)
        deployment = Deployment.of(rnd.sample(asns, 40))
        serial = ectx.metric(pairs, deployment, SECURITY_SECOND)
        with make_context(scale="tiny", seed=2013, processes=3) as pectx:
            parallel = pectx.metric(pairs, deployment, SECURITY_SECOND)
        assert parallel.per_pair == serial.per_pair
        assert parallel.value == serial.value
        assert [
            (r.attacker, r.destination) for r in serial.per_pair
        ] == pairs  # input order preserved

    def test_metric_chain_parallel_matches_serial_and_metric(self, ectx):
        """Chain evaluation shards (destination, chain) units across the
        pool; per-step results must reproduce both the serial chain walk
        and the step-independent metric() bit-for-bit."""
        rnd = random.Random(11)
        asns = ectx.graph.asns
        dests = rnd.sample(asns, 4)
        pairs = []
        for d in dests:  # skewed groups: 9/4/2/1 attackers
            count = {dests[0]: 9, dests[1]: 4, dests[2]: 2, dests[3]: 1}[d]
            pairs += [(m, d) for m in rnd.sample([a for a in asns if a != d], count)]
        rnd.shuffle(pairs)
        members = sorted(rnd.sample(asns, 60))
        chain = [
            Deployment.of(members[:10]),
            Deployment.of(members[:30]),
            Deployment.of(members),
        ]
        serial = ectx.metric_chain(pairs, chain, SECURITY_SECOND)
        with make_context(scale="tiny", seed=2013, processes=3) as pectx:
            parallel = pectx.metric_chain(pairs, chain, SECURITY_SECOND)
        for t, deployment in enumerate(chain):
            assert parallel[t].per_pair == serial[t].per_pair
            assert parallel[t].value == serial[t].value
            independent = ectx.metric(pairs, deployment, SECURITY_SECOND)
            assert serial[t].per_pair == independent.per_pair, t
            assert [
                (r.attacker, r.destination) for r in serial[t].per_pair
            ] == pairs  # input order preserved per step


class TestContextLifetime:
    """A context's memory follows its lifetime: ``close`` releases the
    topology, and a closed context is never used again."""

    def test_a_closed_context_releases_its_graph(self):
        ectx = make_context(scale="tiny", seed=2013)
        d, m = ectx.graph.asns[:2]
        graph = weakref.ref(ectx.graph.adj_node)
        ectx.close()
        gc.collect()
        assert graph() is None  # the name is still bound to the context
        assert ectx.closed and "tiny" in repr(ectx)
        ectx.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            ectx.graph
        with pytest.raises(RuntimeError, match="closed"):
            ectx.metric([(m, d)], Deployment.empty(), BASELINE)
        with pytest.raises(RuntimeError, match="closed"):
            ectx._ensure_pool()
        with pytest.raises(AttributeError):
            ectx.no_such_field

    def test_trials_hold_one_topology(self, monkeypatch):
        """``run_trials`` keeps a name bound to the trial it closed; the
        next trial's build starts with that trial's graph unreachable."""
        from repro.experiments import run_trials, runner

        real = runner.generate_topology
        graphs, alive_at_build = [], []

        def generate(params):
            gc.collect()
            alive_at_build.append([ref() is not None for ref in graphs])
            topo = real(params)
            graphs.append(weakref.ref(topo.graph.adj_node))
            return topo

        monkeypatch.setattr(runner, "generate_topology", generate)
        run_trials(["baseline"], scale="tiny", trials=2)
        assert alive_at_build == [[], [False]]

    def test_bins_of_a_plan_share_a_blind_pass(self, monkeypatch, count_calls):
        """Two bins of one plan that ask for one blind ``(d, m)`` (the
        baseline placement, and an unsigned destination under a security
        placement) run it once: the second reads the first's counts off
        the context.  Both equal the reference engine's."""
        ectx = make_context(scale="tiny", seed=2013)
        graph = ectx.graph
        d, m, *members = graph.asns[:40]
        deployment = Deployment.of(members)
        keys = [
            (((m, d),), (Deployment.empty(),), BASELINE, DEFAULT_ATTACK),
            (((m, d),), (deployment,), SECURITY_SECOND, DEFAULT_ATTACK),
        ]
        monkeypatch.setattr(context, "NP_ROWS_BUDGET", 1)  # a row a batch
        monkeypatch.setattr(runner_module, "_MIN_BIN_ROWS", 1)
        rows = count_calls(fixing, "_run_np")
        with ectx._planned(keys):
            assert len(ectx._pass.bins) == 2
            got = [ectx.metric_chain(*key)[0] for key in keys]
        assert rows == [1]
        ref = RefRoutingContext(graph)
        for (pairs, (dep,), model, attack), result in zip(keys, got):
            want = ref_compute_routing_outcome(ref, d, m, dep, model, attack=attack)
            (pair,) = result.per_pair
            assert (pair.happy_lower, pair.happy_upper) == want.count_happy()
        ectx.close()
