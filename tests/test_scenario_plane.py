"""Tests for the declarative scenario plane: requests, store, scheduler,
and multi-seed trial aggregation."""

import json
import time

import pytest

from repro.core import BASELINE, SECURITY_SECOND, Deployment
from repro.core.rank import LP2, LocalPreference, RankModel, SecurityModel
from repro.experiments import (
    EvalRequest,
    ResultStore,
    make_context,
    run_experiments,
)
from repro.experiments.registry import (
    ExperimentResult,
    aggregate_rows,
    aggregate_trials,
)
from repro.experiments.runner import evaluate_requests
from repro.experiments.scenarios import (
    detect_chains,
    model_from_token,
    model_token,
    request_for,
    result_from_record,
    result_to_record,
)


@pytest.fixture(scope="module")
def ectx():
    return make_context(scale="tiny", seed=2013)


def _stubs(ectx, k):
    """``k`` stub ASes — the only legal simplex members (§5.3.2)."""
    graph = ectx.graph
    return [asn for asn in graph.asns if graph.is_stub(asn)][:k]


def _request(ectx, pairs, deployment=None, model=BASELINE):
    return request_for(ectx, pairs, deployment or Deployment.empty(), model)


class TestEvalRequest:
    def test_canonicalization_sorts_and_dedupes(self, ectx):
        a, b, c = ectx.graph.asns[:3]
        req = _request(ectx, [(c, a), (a, b), (c, a)])
        # Destination-grouped canonical order: sorted by (d, m).
        assert req.pairs == tuple(
            sorted({(a, b), (c, a)}, key=lambda p: (p[1], p[0]))
        )

    def test_equal_scenarios_hash_equal(self, ectx):
        a, b, c = ectx.graph.asns[:3]
        dep = Deployment.of([a, b])
        one = _request(ectx, [(a, b), (b, c)], dep, SECURITY_SECOND)
        two = _request(ectx, [(b, c), (a, b)], dep, SECURITY_SECOND)
        assert one == two
        assert one.scenario_hash == two.scenario_hash

    def test_distinct_inputs_change_the_hash(self, ectx):
        a, b, c = ectx.graph.asns[:3]
        base = _request(ectx, [(a, b)])
        assert base.scenario_hash != _request(ectx, [(a, c)]).scenario_hash
        assert (
            base.scenario_hash
            != _request(ectx, [(a, b)], Deployment.of([c])).scenario_hash
        )
        assert (
            base.scenario_hash
            != _request(ectx, [(a, b)], model=SECURITY_SECOND).scenario_hash
        )

    def test_simplex_mode_is_part_of_identity(self, ectx):
        a, b = ectx.graph.asns[:2]
        (c,) = _stubs(ectx, 1)
        full = _request(ectx, [(a, b)], Deployment(full=frozenset([c])))
        simplex = _request(ectx, [(a, b)], Deployment(simplex=frozenset([c])))
        assert full.scenario_hash != simplex.scenario_hash

    def test_round_trip_views(self, ectx):
        a, c = ectx.graph.asns[:2]
        (b,) = _stubs(ectx, 1)
        dep = Deployment(full=frozenset([a]), simplex=frozenset([b]))
        req = _request(ectx, [(b, c)], dep, SECURITY_SECOND)
        assert req.to_deployment() == dep
        assert req.to_model() == SECURITY_SECOND

    def test_canonical_dict_is_json_stable(self, ectx):
        a, b = ectx.graph.asns[:2]
        req = _request(ectx, [(a, b)])
        blob = json.dumps(req.canonical(), sort_keys=True)
        rebuilt = EvalRequest.build(
            scale=req.scale,
            seed=req.seed,
            ixp=req.ixp,
            pairs=req.pairs,
            deployment=req.to_deployment(),
            model=req.to_model(),
        )
        assert json.dumps(rebuilt.canonical(), sort_keys=True) == blob

    @pytest.mark.parametrize(
        "model",
        [
            BASELINE,
            SECURITY_SECOND,
            RankModel(SecurityModel.THIRD, LP2),
            RankModel(SecurityModel.FIRST, LocalPreference(peer_window=7)),
        ],
    )
    def test_model_token_round_trip(self, model):
        assert model_from_token(model_token(model)) == model

    def test_model_token_rejects_garbage(self):
        with pytest.raises(ValueError):
            model_from_token("security_2nd/QP3")


class TestStoreRoundTrip:
    def _evaluated(self, ectx, count=6):
        asns = ectx.graph.asns
        pairs = [(asns[-i], asns[i]) for i in range(1, count)]
        dep = ectx.catalog.get("t12_full")
        req = request_for(ectx, pairs, dep, SECURITY_SECOND)
        return req, ectx.metric(req.pairs, dep, SECURITY_SECOND)

    def test_result_record_round_trip_is_exact(self, ectx):
        req, result = self._evaluated(ectx)
        loaded = result_from_record(
            json.loads(json.dumps(result_to_record(result)))
        )
        assert loaded.per_pair == result.per_pair
        assert loaded.value == result.value  # bit-for-bit, not approx

    def test_store_persists_and_reloads(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        reopened = ResultStore(tmp_path / "cache")
        assert req.scenario_hash in reopened
        assert len(reopened) == 1
        loaded = reopened.get(req.scenario_hash)
        assert loaded.per_pair == result.per_pair
        assert loaded.value == result.value

    def test_truncated_tail_is_skipped(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"hash": "deadbeef", "resul')  # killed mid-write
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(req.scenario_hash) is not None

    def test_missing_hash_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert store.get("no-such-scenario") is None
        assert "no-such-scenario" not in store

    def test_put_reuses_one_append_handle(self, ectx, tmp_path):
        """Repeated puts write through a single persistent handle, one
        complete JSONL line per record."""
        req, result = self._evaluated(ectx)
        req2 = request_for(
            ectx, list(req.pairs), Deployment.empty(), SECURITY_SECOND
        )
        with ResultStore(tmp_path / "cache") as store:
            assert store._handle is None  # opened lazily
            store.put(req, result)
            handle = store._handle
            assert handle is not None
            store.put(req2, result)
            assert store._handle is handle  # not reopened per put
            lines = store.path.read_text(encoding="utf-8").splitlines()
            assert len(lines) == 2
            for line in lines:
                record = json.loads(line)  # every line is complete JSON
                assert {"hash", "request", "result"} <= record.keys()
        assert store._handle is None  # context manager closed it

    def test_put_after_close_reopens(self, ectx, tmp_path):
        req, result = self._evaluated(ectx)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        store.close()
        store.put(req, result)  # lazily reopens in append mode
        store.close()
        assert len(store.path.read_text(encoding="utf-8").splitlines()) == 2
        assert len(ResultStore(tmp_path / "cache")) == 1  # same hash


class TestStoreIndex:
    """The lazy offset index: scans once, decodes on demand."""

    def _evaluated(self, ectx, pairs_salt, model=SECURITY_SECOND):
        asns = ectx.graph.asns
        pairs = [(asns[-1 - pairs_salt], asns[pairs_salt])]
        dep = ectx.catalog.get("t1_stubs")
        req = request_for(ectx, pairs, dep, model)
        return req, ectx.metric(req.pairs, dep, model)

    def test_hashes_and_len_without_decoding(self, ectx, tmp_path):
        reqs = []
        with ResultStore(tmp_path / "cache") as store:
            for salt in range(3):
                req, result = self._evaluated(ectx, salt)
                store.put(req, result)
                reqs.append(req)
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 3
        assert reopened.hashes() == {r.scenario_hash for r in reqs}
        # indexing alone decodes nothing: records parse lazily on get().
        assert reopened._parsed == {}
        assert reopened.get(reqs[1].scenario_hash) is not None
        assert set(reopened._parsed) == {reqs[1].scenario_hash}

    def test_newest_record_wins(self, ectx, tmp_path):
        req, result = self._evaluated(ectx, 0)
        with ResultStore(tmp_path / "cache") as store:
            store.put(req, result)
            store.put(req, result)  # append-only duplicate
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(req.scenario_hash).value == result.value

    def test_record_shaped_corruption_is_not_indexed(self, ectx, tmp_path):
        """Lines that start like a record but cannot be served by get()
        — broken JSON after the hash, or a record with no result —
        must not be counted by len()/hashes()."""
        req, result = self._evaluated(ectx, 0)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        store.close()
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"hash":"feedfacefeedfacefeed",garbage\n')
            handle.write('{"hash":"0123456789abcdef0123","request":{}}\n')
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.hashes() == {req.scenario_hash}
        assert reopened.get("feedfacefeedfacefeed") is None
        assert reopened.get(req.scenario_hash) is not None

    def test_foreign_line_shape_falls_back_to_full_decode(self, ectx, tmp_path):
        """A record whose line doesn't match put()'s key order (e.g. a
        foreign writer) is still indexed via the JSON fallback."""
        req, result = self._evaluated(ectx, 0)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        store.close()
        raw = json.loads(store.path.read_text(encoding="utf-8"))
        reordered = {"request": raw["request"], "result": raw["result"],
                     "hash": raw["hash"]}
        store.path.write_text(json.dumps(reordered) + "\n", encoding="utf-8")
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(req.scenario_hash).value == result.value

    def test_newer_put_record_wins_over_foreign_older_line(self, ectx, tmp_path):
        """A foreign-shape (fallback-decoded) old record must not shadow
        a newer put-written record for the same hash."""
        req, result = self._evaluated(ectx, 0)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        store.close()
        raw = json.loads(store.path.read_text(encoding="utf-8"))
        stale = {
            "request": raw["request"],
            "result": {
                key: ([[0, 1]] if key == "pairs" else [0])
                for key in raw["result"]
            },
            "hash": raw["hash"],
        }
        # older foreign-shape line first, then the genuine newest record.
        store.path.write_text(
            json.dumps(stale) + "\n"
            + json.dumps(raw, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
        reopened = ResultStore(tmp_path / "cache")
        assert len(reopened) == 1
        assert reopened.get(req.scenario_hash).value == result.value


class TestStoreBugfixes:
    """Regression tests for two silent-data-loss store bugs."""

    def _evaluated(self, ectx, pairs_salt, model=SECURITY_SECOND):
        asns = ectx.graph.asns
        pairs = [(asns[-1 - pairs_salt], asns[pairs_salt])]
        dep = ectx.catalog.get("t1_stubs")
        req = request_for(ectx, pairs, dep, model)
        return req, ectx.metric(req.pairs, dep, model)

    def test_corrupt_newest_does_not_shadow_older_valid_record(
        self, ectx, tmp_path
    ):
        """Newest-wins shadowing: when the newest line for a hash is
        record-shaped corruption (it passes the prefix index but fails
        to decode), get() used to drop the hash entirely — discarding
        the older valid record it superseded.  The superseded record
        must be re-found and served."""
        req, result = self._evaluated(ectx, 0)
        store = ResultStore(tmp_path / "cache")
        store.put(req, result)
        store.close()
        with open(store.path, "a", encoding="utf-8") as handle:
            # Same hash, record-shaped (prefix + "result" + "}"), but
            # undecodable JSON: indexed by the fast path, unservable.
            handle.write(
                '{"hash":"%s","request":{},"result":{{broken}\n'
                % req.scenario_hash
            )
        reopened = ResultStore(tmp_path / "cache")
        loaded = reopened.get(req.scenario_hash)
        assert loaded is not None
        assert loaded.value == result.value
        assert loaded.per_pair == result.per_pair
        # And the recovery is memoized: a second get stays served.
        assert reopened.get(req.scenario_hash) is not None
        assert req.scenario_hash in reopened

    def test_corrupt_newest_with_no_older_record_is_dropped(
        self, ectx, tmp_path
    ):
        req, _ = self._evaluated(ectx, 0)
        (tmp_path / "cache").mkdir()
        path = tmp_path / "cache" / "results.jsonl"
        path.write_text(
            '{"hash":"%s","request":{},"result":{{broken}\n'
            % req.scenario_hash,
            encoding="utf-8",
        )
        store = ResultStore(tmp_path / "cache")
        assert store.get(req.scenario_hash) is None
        assert req.scenario_hash not in store._offsets

    def test_concurrent_writer_records_become_visible(self, ectx, tmp_path):
        """Cross-process staleness: records appended by a second writer
        after this store indexed the file used to stay invisible (pure
        index misses) until reopen, silently re-evaluating scenarios.
        An index miss now rescans the appended tail."""
        req0, result = self._evaluated(ectx, 0)
        writer = ResultStore(tmp_path / "cache")
        writer.put(req0, result)
        reader = ResultStore(tmp_path / "cache")
        assert req0.scenario_hash in reader
        req1, result1 = self._evaluated(ectx, 1)
        writer.put(req1, result1)  # appended after reader indexed
        assert req1.scenario_hash in reader
        loaded = reader.get(req1.scenario_hash)
        assert loaded is not None
        assert loaded.value == result1.value
        assert len(reader) == 2
        writer.close()
        reader.close()

    def test_tail_rescan_skips_in_progress_line(self, ectx, tmp_path):
        """A partially-written trailing line (another process mid-write)
        must not be indexed nor advance the rescan cursor; once the
        writer finishes the line, the record becomes visible."""
        req0, result = self._evaluated(ectx, 0)
        store = ResultStore(tmp_path / "cache")
        store.put(req0, result)
        store.close()
        reader = ResultStore(tmp_path / "cache")
        req1, result1 = self._evaluated(ectx, 1)
        record = {
            "hash": req1.scenario_hash,
            "request": req1.canonical(),
            "result": result_to_record(result1),
        }
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode()
        with open(store.path, "ab") as handle:
            handle.write(line[:40])  # mid-write
        assert req1.scenario_hash not in reader
        assert reader.get(req1.scenario_hash) is None
        with open(store.path, "ab") as handle:
            handle.write(line[40:])  # writer finishes
        assert req1.scenario_hash in reader
        loaded = reader.get(req1.scenario_hash)
        assert loaded is not None
        assert loaded.value == result1.value
        reader.close()


class TestChainDetection:
    def _req(self, ectx, members, pairs=None, model=SECURITY_SECOND,
             simplex=frozenset()):
        a, b = ectx.graph.asns[:2]
        return request_for(
            ectx, pairs or [(a, b)],
            Deployment(full=frozenset(members), simplex=simplex), model,
        )

    def test_nested_deployments_form_one_chain(self, ectx):
        from repro.experiments.scenarios import detect_chains

        c = ectx.graph.asns[2:8]
        reqs = [self._req(ectx, c[:k]) for k in (3, 1, 2)]
        chains = detect_chains(reqs)
        assert len(chains) == 1
        assert [len(r.deployment_full) for r in chains[0]] == [1, 2, 3]

    def test_incomparable_deployments_split(self, ectx):
        from repro.experiments.scenarios import detect_chains

        c = ectx.graph.asns[2:8]
        reqs = [
            self._req(ectx, [c[0]]),
            self._req(ectx, [c[0], c[1]]),
            self._req(ectx, [c[2]]),  # not a superset of either
        ]
        chains = detect_chains(reqs)
        assert sorted(len(chain) for chain in chains) == [1, 2]

    def test_model_pairs_and_attack_partition_groups(self, ectx):
        from repro.experiments.scenarios import detect_chains

        a, b, c = ectx.graph.asns[:3]
        members = ectx.graph.asns[3:6]
        base = self._req(ectx, members[:1])
        other_model = self._req(ectx, members, model=BASELINE)
        other_pairs = self._req(ectx, members, pairs=[(a, c)])
        other_attack = request_for(
            ectx, [(a, b)], Deployment.of(members), SECURITY_SECOND,
            attack="honest",
        )
        chains = detect_chains([base, other_model, other_pairs, other_attack])
        assert all(len(chain) == 1 for chain in chains)

    def test_simplex_promotion_is_nested(self, ectx):
        from repro.experiments.scenarios import deployment_nested

        members = _stubs(ectx, 3)
        simplexed = self._req(ectx, members[:1], simplex=frozenset(members[1:]))
        promoted = self._req(ectx, members)
        demoted = self._req(ectx, members[:1], simplex=frozenset())
        assert deployment_nested(simplexed, promoted)
        assert not deployment_nested(promoted, simplexed)
        assert deployment_nested(demoted, simplexed)


class TestRolloutMajorScheduling:
    """The scheduler walks nested-deployment chains with
    ``metric_chain``; the step-independent reference is ``metric`` once
    per scenario, which every chain step must reproduce."""

    IDS = ["fig7a", "fig11"]

    @classmethod
    def _declared(cls, ectx):
        """The experiments' unique requests, in declaration order."""
        from repro.experiments import get_experiment

        requests = [
            req for eid in cls.IDS for req in get_experiment(eid).requests(ectx)
        ]
        return list({req.scenario_hash: req for req in requests}.values())

    @staticmethod
    def _step_independent(ectx, requests, store=None):
        """Every request on its own ``metric`` call (stored if asked)."""
        results = {}
        for req in requests:
            result = ectx.metric(
                req.pairs, req.to_deployment(), req.to_model(),
                attack=req.to_attack(),
            )
            if store is not None:
                store.put(req, result)
            results[req.scenario_hash] = result
        return results

    def test_rollout_major_matches_step_independent(self, tmp_path):
        with make_context(scale="tiny", seed=2013) as ectx:
            requests = self._declared(ectx)
            assert max(len(c) for c in detect_chains(requests)) > 1
            rollout = evaluate_requests(ectx, requests)
            rollout_evals = ectx.metric_evaluations
            independent = self._step_independent(ectx, requests)
            independent_evals = ectx.metric_evaluations - rollout_evals
        assert rollout_evals == independent_evals  # same scenario count
        for req in requests:
            assert rollout.for_request(req) == independent[req.scenario_hash]

    def test_store_records_identical_across_paths(self, tmp_path):
        def records(root, evaluate):
            store = ResultStore(root)
            with make_context(scale="tiny", seed=2013) as ectx:
                evaluate(ectx, self._declared(ectx), store=store)
            store.close()
            lines = store.path.read_text(encoding="utf-8").splitlines()
            return sorted(lines)  # chain walking reorders evaluation only

        assert records(tmp_path / "a", evaluate_requests) == records(
            tmp_path / "b", self._step_independent
        )

    def test_chain_walk_hits_step_independent_store(self, tmp_path):
        """A store written step by step warms the chain walk completely."""
        store = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as ectx:
            self._step_independent(ectx, self._declared(ectx), store=store)
        store.close()
        warm = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as ectx:
            run_experiments(ectx, self.IDS, store=warm)
            assert ectx.metric_evaluations == 0

    def test_partially_warm_chain_advances_over_cached_steps(self, tmp_path):
        """Caching a mid-chain step leaves a chain with a gap: the walk
        must jump it with a bigger advance and still match."""
        with make_context(scale="tiny", seed=2013) as ectx:
            from repro.experiments import get_experiment

            requests = list(get_experiment("fig7a").requests(ectx))
            store = ResultStore(tmp_path / "cache")
            # seed the store with roughly every other scenario.
            seeded = requests[::2]
            full = evaluate_requests(ectx, requests)
            for req in seeded:
                store.put(req, full.for_request(req))
            partial = evaluate_requests(ectx, requests, store=store)
            for req in requests:
                assert (
                    partial.for_request(req).per_pair
                    == full.for_request(req).per_pair
                ), req.scenario_hash


class TestOnePoolPass:
    """``evaluate_requests`` plans every missing chain before its loop
    and the loop's ``metric`` / ``metric_chain`` calls collect them from
    one pass over the pool: what is stored, when, and what a lost bin
    or a cancellation costs must be what the per-chain scheduler
    guaranteed."""

    IDS = ["baseline", "fig7a", "fig11", "nonstubs"]

    @classmethod
    def _requests(cls, ectx):
        from repro.experiments import get_experiment

        requests = [
            req for eid in cls.IDS for req in get_experiment(eid).requests(ectx)
        ]
        unique = list({req.scenario_hash: req for req in requests}.values())
        sizes = sorted(len(chain) for chain in detect_chains(unique))
        assert sizes[0] == 1 and sizes[-1] > 1  # single scenarios and chains
        return unique

    @staticmethod
    def _lines(store):
        store.close()
        return sorted(store.path.read_text(encoding="utf-8").splitlines())

    @pytest.fixture(scope="class")
    def serial_lines(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("serial"))
        with make_context(scale="tiny", seed=2013) as ectx:
            evaluate_requests(ectx, self._requests(ectx), store=store)
        return self._lines(store)

    @staticmethod
    def _spy_on_bins(monkeypatch):
        """Every plan made from here on, as the chains it was given and
        the bins it cut them into."""
        from repro.experiments import runner

        plans = []
        cut = runner.cut_bins

        def spying(chains, cap, share):
            plans.append((chains, cut(chains, cap, share)))
            return plans[-1][1]

        monkeypatch.setattr(runner, "cut_bins", spying)
        return plans

    def test_pooled_pass_stores_what_serial_stores(
        self, tmp_path, serial_lines, monkeypatch
    ):
        plans = self._spy_on_bins(monkeypatch)
        store = ResultStore(tmp_path / "pooled")
        with make_context(scale="tiny", seed=2013, processes=2) as ectx:
            requests = self._requests(ectx)
            evaluate_requests(ectx, requests, store=store)
            assert ectx.metric_evaluations == len(requests)
            assert len(ectx.failure_log) == 0
        ((_, bins),) = plans  # one plan, so one pass, for the whole batch
        assert len(bins) >= 4
        assert self._lines(store) == serial_lines

    def test_a_lost_bin_fails_exactly_the_chains_with_a_part_in_it(
        self, tmp_path, serial_lines, monkeypatch
    ):
        from repro.experiments import FailureLog, SupervisionPolicy
        from repro.experiments.faults import Fault, FaultPlan, disarm

        plans = self._spy_on_bins(monkeypatch)
        store = ResultStore(tmp_path / "lossy")
        log = FailureLog()
        lost_bin = 1
        FaultPlan([Fault(kind="eval_error", shard=lost_bin, attempt=None)]).arm()
        try:
            with make_context(
                scale="tiny", seed=2013, processes=2, failure_log=log,
                supervision=SupervisionPolicy(backoff=0.01),
            ) as ectx:
                requests = self._requests(ectx)
                results = evaluate_requests(ectx, requests, store=store)
        finally:
            disarm()
        ((_, bins),) = plans
        # the plan's chains are detect_chains', same-model ones adjacent
        chains = sorted(detect_chains(requests), key=lambda chain: chain[0].model)
        lost = {
            req.scenario_hash for j, _ in bins[lost_bin] for req in chains[j]
        }
        assert lost and len(lost) < len(requests)
        failed = [i.scenario for i in log.of_kind("scenario_failed")]
        assert sorted(failed) == sorted(lost)
        assert log.count("shard_degraded") == 1
        assert {r.scenario_hash for r in requests if r in results} == {
            r.scenario_hash for r in requests
        } - lost
        kept = [
            line for line in serial_lines if json.loads(line)["hash"] not in lost
        ]
        assert self._lines(store) == kept

    def test_cancel_mid_pass_keeps_every_collected_chain(self, tmp_path):
        from repro.experiments.failures import EvaluationCancelled

        store = ResultStore(tmp_path / "cancelled")
        with make_context(scale="tiny", seed=2013, processes=2) as ectx:
            requests = self._requests(ectx)
            chains = detect_chains(requests)
            polls = []

            def cancel():
                polls.append(len(store))
                return len(polls) > 3  # true before the fourth chain

            with pytest.raises(EvaluationCancelled, match="cancelled with"):
                evaluate_requests(ectx, requests, store=store, cancel=cancel)
            # each chain was in the store the moment it was whole
            assert polls[0] == 0 and polls == sorted(set(polls))
            stored = len(store)
            assert stored == polls[-1] > 0
            assert ectx._pass is None
            # the abandoned pass left a pool that works: the rest of
            # the batch evaluates, the stored chains are hits
            results = evaluate_requests(ectx, requests, store=store)
            assert store.hits == stored
            assert all(req in results for req in requests)
            assert len(store) == len(requests) > stored
            assert len(chains) > 4

    def test_traced_context_spans_every_chain(self, monkeypatch):
        """``perfbench`` shadows ``metric`` / ``metric_chain`` on the
        context and divides by their spans' total: the scheduler must
        go on calling them, and wait for the pass inside them."""
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.harness import trace_context
        from perfbench.trace import Tracer

        tracer = Tracer()
        with make_context(scale="tiny", seed=2013, processes=2) as ectx:
            trace_context(ectx, tracer)
            requests = self._requests(ectx)
            evaluate_requests(ectx, requests)
        spans = tracer.named("experiments.runner.metric")
        chains = detect_chains(requests)
        assert sorted(span.tags["steps"] for span in spans) == sorted(
            len(chain) for chain in chains
        )
        assert all(span.parent is None for span in spans)
        assert tracer.total("experiments.runner.metric") > 0


class TestScheduler:
    def test_global_dedupe_across_experiments(self):
        """fig7a and fig11 share their H(∅) baseline: one evaluation."""
        with make_context(scale="tiny", seed=2013) as ectx:
            from repro.experiments import get_experiment

            declared = [
                req
                for eid in ("fig7a", "fig11")
                for req in get_experiment(eid).requests(ectx)
            ]
            unique = {req.scenario_hash for req in declared}
            assert len(unique) < len(declared)
            run_experiments(ectx, ["fig7a", "fig11"])
            assert ectx.metric_evaluations == len(unique)

    def test_requests_reject_foreign_topology(self):
        with make_context(scale="tiny", seed=1) as ectx, \
                make_context(scale="tiny", seed=2) as other:
            a, b = ectx.graph.asns[:2]
            req = request_for(other, [(a, b)], Deployment.empty(), BASELINE)
            with pytest.raises(ValueError):
                evaluate_requests(ectx, [req])

    def test_requests_reject_transit_simplex_before_dispatch(self):
        """Raised in the parent: a pool would retry, then degrade, a
        request that cannot succeed."""
        with make_context(scale="tiny", seed=2013, processes=2) as ectx:
            graph = ectx.graph
            transit = next(a for a in graph.asns if not graph.is_stub(a))
            others = [a for a in graph.asns if a != transit]
            pairs = [(m, others[0]) for m in others[1:9]]
            req = request_for(
                ectx, pairs, Deployment(simplex=frozenset([transit])),
                SECURITY_SECOND,
            )
            with pytest.raises(ValueError, match=f"{transit} .*customers"):
                evaluate_requests(ectx, [req])
            assert ectx.metric_evaluations == 0
            assert len(ectx.failure_log) == 0

    @pytest.mark.parametrize("bad_pair", ["self-pair", "unknown ASN"])
    @pytest.mark.parametrize("processes", [1, 2], ids=lambda p: f"{p} processes")
    def test_requests_reject_unroutable_pairs_before_dispatch(
        self, processes, bad_pair
    ):
        """Raised in the parent, before anything runs: a pool would
        retry for seconds, then degrade, a request that cannot succeed;
        serially it would abort the batch after storing earlier chains."""
        with make_context(scale="tiny", seed=2013, processes=processes) as ectx:
            asns = ectx.graph.asns
            good = [(m, d) for m, d in zip(asns[:8], asns[8:16])]
            if bad_pair == "self-pair":
                bad, message = (asns[20], asns[20]), "must differ"
            else:
                unknown = max(asns) + 1
                bad, message = (unknown, asns[20]), f"AS {unknown} not in graph"
            requests = [_request(ectx, good + [bad]), _request(ectx, good)]
            started = time.monotonic()
            with pytest.raises(ValueError, match=message):
                evaluate_requests(ectx, requests)
            assert time.monotonic() - started < 1.0
            assert ectx.metric_evaluations == 0
            assert len(ectx.failure_log) == 0

    def test_second_run_evaluates_zero_scenarios(self, tmp_path):
        """Warm-store rerun: the acceptance counter stays at zero."""
        ids = ["baseline", "fig7a", "fig11", "nonstubs", "guideline_t2"]
        store = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as cold:
            run_experiments(cold, ids, store=store)
        assert cold.metric_evaluations > 0
        assert store.misses == cold.metric_evaluations
        # a brand-new context and store instance: only the JSONL persists.
        warm_store = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as warm:
            warm_results = run_experiments(warm, ids, store=warm_store)
        assert warm.metric_evaluations == 0
        assert warm_store.misses == 0
        assert warm_store.hits > 0
        assert warm_results[0].rows  # cached results still render rows

    def test_incremental_new_experiment_only_adds_missing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as ectx:
            run_experiments(ectx, ["fig7a"], store=store)
        first = store.misses
        store2 = ResultStore(tmp_path / "cache")
        with make_context(scale="tiny", seed=2013) as ectx:
            run_experiments(ectx, ["fig7a", "fig11"], store=store2)
            # fig11 reuses fig7a's baseline + pair set; only its own
            # per-step scenarios are new.
            assert 0 < store2.misses < first

    def test_write_md_twice_is_fully_warm(self, tmp_path):
        """The end-to-end acceptance check at write-md granularity."""
        # restrict to two experiments to keep the double full run cheap;
        # the IXP rerun of `baseline` exercises the variant scoping.
        from repro.experiments import run_all

        ids = ["baseline", "fig7a"]
        cold_store = ResultStore(tmp_path / "cache")
        run_all(
            scale="tiny", include_ixp=True, experiment_ids=ids,
            store=cold_store,
        )
        assert cold_store.misses > 0
        warm_store = ResultStore(tmp_path / "cache")
        run_all(
            scale="tiny", include_ixp=True, experiment_ids=ids,
            store=warm_store,
        )
        assert warm_store.misses == 0
        assert warm_store.hits == cold_store.misses


class TestAggregation:
    def _result(self, rows, seed):
        return ExperimentResult(
            experiment_id="fake",
            title="t",
            paper_reference="r",
            paper_expectation="e",
            rows=rows,
            text="body",
            seed=seed,
        )

    def test_mean_and_stderr_math(self):
        rows_a = [{"model": "m", "value": 0.1, "count": 3}]
        rows_b = [{"model": "m", "value": 0.3, "count": 5}]
        mean, err = aggregate_rows([rows_a, rows_b])
        assert mean == [{"model": "m", "value": pytest.approx(0.2), "count": 4.0}]
        # sample std of (0.1, 0.3) is ~0.1414; stderr = std / sqrt(2) = 0.1
        assert err[0]["value"] == pytest.approx(0.1)
        assert err[0]["count"] == pytest.approx(1.0)

    def test_identity_fields_group_rows(self):
        trials = [
            [{"model": "a", "v": 1.0}, {"model": "b", "v": 10.0}],
            [{"model": "b", "v": 20.0}, {"model": "a", "v": 3.0}],
        ]
        mean, _ = aggregate_rows(trials)
        by_model = {row["model"]: row["v"] for row in mean}
        assert by_model == {"a": 2.0, "b": 15.0}

    def test_none_and_missing_values_are_tolerated(self):
        trials = [
            [{"model": "a", "v": 1.0, "t1": None}],
            [{"model": "a", "v": 3.0, "t1": 0.5}],
        ]
        mean, err = aggregate_rows(trials)
        assert mean[0]["v"] == 2.0
        assert mean[0]["t1"] == 0.5  # averaged over trials that have it
        assert err[0]["t1"] == 0.0

    def test_single_trial_returned_untouched(self):
        result = self._result([{"model": "m", "value": 0.123456789}], seed=1)
        aggregated = aggregate_trials([[result]])
        assert aggregated[0] is result
        assert aggregated[0].rows[0]["value"] == 0.123456789
        assert aggregated[0].trials == 1

    def test_multi_trial_result_carries_confidence(self):
        a = self._result([{"model": "m", "value": 0.1}], seed=1)
        b = self._result([{"model": "m", "value": 0.3}], seed=2)
        (agg,) = aggregate_trials([[a], [b]])
        assert agg.trials == 2
        assert agg.trial_seeds == (1, 2)
        assert agg.rows[0]["value"] == pytest.approx(0.2)
        assert agg.row_stderr[0]["value"] == pytest.approx(0.1)
        assert "mean ± stderr over 2 trials" in agg.text
        assert "±" in agg.text
        assert "trials: 2" in agg.render()

    def test_count_columns_never_render_as_percentages(self):
        a = self._result(
            [{"workload": "w", "avg_down": 1.3, "frac": 0.5, "pairs": 20}],
            seed=1,
        )
        b = self._result(
            [{"workload": "w", "avg_down": 0.7, "frac": 0.7, "pairs": 20}],
            seed=2,
        )
        (agg,) = aggregate_trials([[a], [b]])
        assert "1 ±" in agg.text       # float count column (mean 1.0)
        assert "60.0% ±" in agg.text   # fraction column
        assert "20 ±0" in agg.text     # integer count column
        assert "2000.0%" not in agg.text

    def test_fraction_column_detection(self):
        from repro.experiments.registry import fraction_columns

        rows = [
            [{"m": "a", "frac": 0.3, "count": 4, "avg": 1.3, "none": None}],
            [{"m": "a", "frac": -0.9, "count": 5, "avg": 0.2}],
        ]
        assert fraction_columns(rows) == frozenset({"frac"})

    def test_misaligned_trials_raise(self):
        a = self._result([], seed=1)
        b = ExperimentResult(
            experiment_id="other", title="t", paper_reference="r",
            paper_expectation="e", seed=2,
        )
        with pytest.raises(ValueError):
            aggregate_trials([[a], [b]])


class TestTrialsEndToEnd:
    def test_trials_reuse_store_and_aggregate(self, tmp_path):
        from repro.experiments import run_trials

        store = ResultStore(tmp_path / "cache")
        results = run_trials(
            ["baseline"], scale="tiny", seed=2013, trials=2, store=store
        )
        (result,) = results
        assert result.trials == 2
        assert result.trial_seeds == (2013, 2014)
        assert result.row_stderr and "H_lower" in result.row_stderr[0]
        # trial seeds are distinct topologies: distinct scenarios.
        assert store.misses == 4  # 2 scenarios × 2 seeds

    def test_cli_run_with_trials_and_processes(self, tmp_path, capsys):
        from repro.experiments.cli import main

        code = main(
            [
                "run", "baseline",
                "--scale", "tiny",
                "--processes", "2",
                "--trials", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "±" in out
        assert "scenario store" in out
        # rerunning warm evaluates nothing new.
        assert main(
            [
                "run", "baseline",
                "--scale", "tiny",
                "--processes", "2",
                "--trials", "2",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        ) == 0
        out = capsys.readouterr().out
        # exact token: "40 evaluated" must not satisfy the zero check.
        assert ": 0 evaluated" in out
