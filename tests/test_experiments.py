"""Integration tests: every registered experiment runs at tiny scale and
reproduces the paper's qualitative shape."""

import gc

import pytest

from repro.experiments import all_experiments, make_context, run_experiments
from repro.experiments import runner
from repro.experiments.registry import ExperimentResult


@pytest.fixture(scope="module")
def ectx():
    return make_context(scale="tiny", seed=2013)


@pytest.fixture(scope="module")
def results(ectx):
    """Run every experiment once; individual tests assert on shapes."""
    return {r.experiment_id: r for r in run_experiments(ectx)}


class TestRegistry:
    EXPECTED_IDS = {
        "baseline", "fig3", "fig4", "fig5", "fig6", "source_tier",
        "fig7a", "fig7a_dense", "fig7b", "fig8", "fig9", "fig10",
        "fig11", "fig12",
        "fig13", "fig16", "table3", "wedgie", "guideline_t1",
        "guideline_t2", "nonstubs", "hardness", "lp2",
        "hysteresis", "islands",  # §8 extensions
        "lpk_sweep",  # Appendix K.1
        "ablation_tiebreak",  # §5.2.1 knife's edge
        "attacks",  # attacker-strategy robustness (threat models)
    }

    def test_every_table_and_figure_registered(self):
        assert set(all_experiments()) == self.EXPECTED_IDS

    def test_specs_well_formed(self):
        for spec in all_experiments().values():
            assert spec.title and spec.paper_reference and spec.paper_expectation

    def test_unknown_experiment(self):
        from repro.experiments import get_experiment

        with pytest.raises(KeyError):
            get_experiment("fig99")


class TestAllRun:
    def test_every_experiment_returns_result(self, results):
        for eid, result in results.items():
            assert isinstance(result, ExperimentResult), eid
            assert result.text.strip(), eid
            assert result.rows, eid
            assert result.render().startswith(f"== {result.experiment_id}")

    def test_result_metadata_is_its_specs(self, results):
        """The registry entry is the one declaration: ``list``, the
        service and the write-up print the same strings."""
        specs = all_experiments()
        for eid, result in results.items():
            spec = specs[eid]
            assert (
                result.title, result.paper_reference, result.paper_expectation
            ) == (spec.title, spec.paper_reference, spec.paper_expectation), eid


class TestShapes:
    """The paper's qualitative claims at tiny scale (seeded, stable)."""

    def test_baseline_majority_happy(self, results):
        row = results["baseline"].rows[0]
        assert row["H_lower"] > 0.5  # paper: >= 60%

    def test_fig3_gain_ordering(self, results):
        gains = {r["model"]: r["max_gain_over_baseline"] for r in results["fig3"].rows}
        assert gains["security_1st"] >= gains["security_2nd"] >= gains["security_3rd"]

    def test_fig3_sec1st_all_protectable(self, results):
        row = next(r for r in results["fig3"].rows if r["model"] == "security_1st")
        assert row["protectable"] > 0.95

    def test_fig3_immune_grows_as_security_drops(self, results):
        immune = {r["model"]: r["immune"] for r in results["fig3"].rows}
        assert immune["security_3rd"] >= immune["security_2nd"] >= immune["security_1st"]

    def test_fig4_tier1_most_doomed(self, results):
        rows = {r["tier"]: r for r in results["fig4"].rows}
        assert rows["T1"]["doomed"] == max(r["doomed"] for r in results["fig4"].rows)
        assert rows["T1"]["protectable"] < 0.15

    def test_fig6_tier1_attackers_weak(self, results):
        rows = {r["tier"]: r for r in results["fig6"].rows}
        assert rows["T1"]["doomed"] <= rows["T2"]["doomed"]
        assert rows["T1"]["immune"] >= rows["T2"]["immune"]

    def test_source_tier_roughly_uniform(self, results):
        doomed = [r["doomed"] for r in results["source_tier"].rows]
        assert max(doomed) - min(doomed) < 0.35

    def test_fig7a_model_ordering_last_step(self, results):
        rows = [r for r in results["fig7a"].rows if "simplex_shift" in r]
        last_step = rows[-3:]
        by_model = {r["model"]: r["delta_upper"] for r in last_step}
        assert by_model["security_1st"] >= by_model["security_3rd"]

    def test_fig7a_simplex_is_harmless(self, results):
        for row in results["fig7a"].rows:
            assert abs(row["simplex_shift"]) < 0.12  # §5.3.2: ~no change

    def test_fig9_sec1st_dominates(self, results):
        rows = {r["model"]: r for r in results["fig9"].rows}
        assert (
            rows["security_1st"]["mean_delta_lower"]
            >= rows["security_3rd"]["mean_delta_lower"]
        )

    def test_fig9_tier1_best_when_first_worst_when_third(self, results):
        rows = {r["model"]: r for r in results["fig9"].rows}
        t1_first = rows["security_1st"]["tier1_mean_delta_lower"]
        t1_third = rows["security_3rd"]["tier1_mean_delta_lower"]
        if t1_first is not None and t1_third is not None:
            assert t1_first >= t1_third

    def test_fig13_identities(self, results):
        for row in results["fig13"].rows:
            total = (
                row["downgraded"] + row["retained_immune"] + row["retained_other"]
            )
            assert total == pytest.approx(row["secure_normal"], abs=1e-9)

    def test_fig16_identity_and_downgrade_pattern(self, results):
        rows = {r["model"]: r for r in results["fig16"].rows}
        assert rows["security_1st"]["downgrades"] == pytest.approx(0.0, abs=1e-6)
        assert rows["security_3rd"]["downgrades"] > 0
        assert rows["security_3rd"]["collateral_damages"] == 0.0
        for row in rows.values():
            assert abs(row["identity_residual"]) < 1e-9

    def test_table3_matches_paper(self, results):
        for row in results["table3"].rows:
            if row["possible_per_paper"]:
                # every allowed phenomenon has a witness or sweep hits.
                assert row["witness"] or row["observed_count"] >= 0
            else:
                assert row["observed_count"] == 0

    def test_wedgie_rows(self, results):
        rows = results["wedgie"].rows
        assert rows[0]["returns_to_intended_state"] is False
        assert rows[1]["returns_to_intended_state"] is True

    def test_hardness_theorem_holds(self, results):
        assert all(r["matches_theorem"] for r in results["hardness"].rows)

    def test_guideline_t2_beats_t1(self, results):
        t1 = {
            (r["scenario"], r["model"]): r["delta_upper"]
            for r in results["guideline_t1"].rows
        }
        t2 = {r["model"]: r["delta_upper"] for r in results["guideline_t2"].rows}
        # paper §5.3.1: Tier-2 early adoption beats Tier-1 for sec 2nd/3rd.
        assert t2["security_3rd"] >= t1[("T1+stubs", "security_3rd")] - 0.02

    def test_nonstubs_ordering(self, results):
        rows = {r["model"]: r for r in results["nonstubs"].rows}
        assert (
            rows["security_1st"]["delta_upper"]
            >= rows["security_2nd"]["delta_upper"]
            >= rows["security_3rd"]["delta_upper"] - 1e-9
        )

    def test_hysteresis_blunts_downgrades(self, results):
        rows = results["hysteresis"].rows
        for workload in {r["workload"] for r in rows}:
            off = next(
                r for r in rows if r["workload"] == workload and not r["hysteresis"]
            )
            on = next(
                r for r in rows if r["workload"] == workload and r["hysteresis"]
            )
            assert on["downgraded"] <= off["downgraded"]
            assert on["unhappy"] <= off["unhappy"]

    def test_islands_protect_members(self, results):
        rows = {r["policies"]: r for r in results["islands"].rows}
        assert (
            rows["island security 1st"]["island_unhappy_per_attack"]
            <= rows["uniform security 3rd"]["island_unhappy_per_attack"]
        )

    def test_lp2_smaller_gains_than_classic(self, results):
        lp2_rows = {
            r["model"]: r for r in results["lp2"].rows if "max_gain_over_baseline" in r
        }
        fig3_rows = {r["model"]: r for r in results["fig3"].rows}
        assert (
            lp2_rows["security_3rd/LP2"]["max_gain_over_baseline"]
            <= fig3_rows["security_3rd"]["max_gain_over_baseline"] + 0.05
        )

    def test_lpk_sweep_covers_family(self, results):
        rows = results["lpk_sweep"].rows
        assert {r["k"] for r in rows} == {"1", "2", "3", "inf"}
        for row in rows:
            total = row["doomed"] + row["protectable"] + row["immune"]
            assert total == pytest.approx(1.0, abs=0.02)

    def test_lpk_doomed_shrinks_with_window(self, results):
        # larger windows let short legitimate peer routes beat bogus
        # customer routes: doomed must not grow from k=1 to k=inf.
        rows = [
            r
            for r in results["lpk_sweep"].rows
            if r["model"].startswith("security_3rd")
        ]
        by_k = {r["k"]: r["doomed"] for r in rows}
        assert by_k["inf"] <= by_k["1"] + 0.02

    def test_ablation_knife_edge_shrinks_but_persists(self, results):
        rows = results["ablation_tiebreak"].rows
        baseline = rows[0]
        assert baseline["model"] == "baseline"
        assert baseline["knife_edge_fraction"] > 0.0
        last = [r for r in rows if r["step"] == rows[-1]["step"]]
        for row in last:
            # §5.2.1: the knife-edge population persists deep into the
            # rollout (never collapses to ~zero).
            assert row["knife_edge_fraction"] > 0.005


class TestParallelRunner:
    def test_fork_parallel_metric_matches_serial(self):
        """The Appendix H parallelization must not change any number."""
        from repro.core import BASELINE, Deployment

        with make_context(scale="tiny", seed=77, processes=1) as serial_ctx, \
                make_context(scale="tiny", seed=77, processes=2) as parallel_ctx:
            asns = serial_ctx.graph.asns
            pairs = [(asns[-i], asns[i]) for i in range(1, 12)]
            deployment = Deployment.of(asns[: len(asns) // 3])
            serial = serial_ctx.metric(pairs, deployment, BASELINE)
            parallel = parallel_ctx.metric(pairs, deployment, BASELINE)
        assert serial.value == parallel.value
        assert serial.per_pair == parallel.per_pair

    def test_map_tasks_serial_fallback_for_few_items(self, ectx):
        result = ectx.map_tasks(
            lambda ectx, item, state: item * 2, [1, 2, 3]
        )
        assert result == [2, 4, 6]

    def test_persistent_pool_is_reused(self):
        """The fork pool is created once per context and reused."""
        from repro.core import BASELINE, Deployment

        with make_context(scale="tiny", seed=77, processes=2) as ectx:
            asns = ectx.graph.asns
            pairs = [(asns[-i], asns[i]) for i in range(1, 12)]
            ectx.metric(pairs, Deployment.empty(), BASELINE)
            first_pool = ectx._pool
            assert first_pool is not None
            ectx.metric(pairs, Deployment.empty(), BASELINE)
            assert ectx._pool is first_pool
        assert ectx._pool is None  # closed on context exit


class TestIxpVariant:
    def test_ixp_context_runs_partition_family(self):
        from repro.experiments import run_experiment

        ectx = make_context(scale="tiny", seed=2013, ixp=True)
        result = run_experiment(ectx, "fig3")
        assert result.experiment_id == "fig3"  # registry id stays first-class
        assert result.ixp is True
        assert result.label == "fig3_ixp"
        assert "[IXP graph]" in result.render()
        assert result.rows

    def test_ixp_graph_has_more_peerings(self):
        plain = make_context(scale="tiny", seed=2013)
        ixp = make_context(scale="tiny", seed=2013, ixp=True)
        assert ixp.graph.num_peer_links > plain.graph.num_peer_links
        assert len(ixp.graph) == len(plain.graph)


class TestMakeContextCollector:
    """``make_context`` pauses the cyclic collector for the build and
    leaves it as it found it, on success and on error."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled):
        (gc.enable if enabled else gc.disable)()
        make_context(scale="tiny", seed=2013).close()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_when_build_raises(self, enabled, monkeypatch):
        seen = []

        def broken(params):
            seen.append(gc.isenabled())
            raise RuntimeError("build failed")

        monkeypatch.setattr(runner, "generate_topology", broken)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="build failed"):
            make_context(scale="tiny", seed=2013)
        assert seen == [False]  # paused during the build
        assert gc.isenabled() is enabled

    def test_concurrent_builds_leave_it_enabled(self):
        """The service builds contexts on a thread pool."""
        from concurrent.futures import ThreadPoolExecutor

        gc.enable()
        with ThreadPoolExecutor(4) as pool:
            built = list(
                pool.map(lambda seed: make_context(scale="tiny", seed=seed), range(8))
            )
        for ectx in built:
            ectx.close()
        assert gc.isenabled()
