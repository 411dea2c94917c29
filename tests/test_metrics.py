"""Tests for the security metric H_{M,D}(S) and its interval arithmetic."""

import pytest

from repro.core import (
    BASELINE,
    Deployment,
    Interval,
    SECURITY_FIRST,
    SECURITY_THIRD,
    attack_happiness,
    metric_for_destination,
    metric_improvement,
    security_metric,
)
from repro.core.metrics import _mean_interval
from repro.topology import graph_from_edges


@pytest.fixture()
def graph():
    return graph_from_edges(
        customer_provider=[(2, 1), (3, 1), (4, 2), (666, 3), (5, 2)]
    )


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(0.7, 0.3)

    def test_width_and_midpoint(self):
        iv = Interval(0.2, 0.6)
        assert iv.width == pytest.approx(0.4)
        assert iv.midpoint == pytest.approx(0.4)

    def test_subtraction_is_conservative(self):
        a = Interval(0.5, 0.7)
        b = Interval(0.1, 0.2)
        d = a - b
        assert d.lower == pytest.approx(0.3)
        assert d.upper == pytest.approx(0.6)

    def test_bound_delta_is_bound_wise(self):
        a = Interval(0.5, 0.7)
        b = Interval(0.1, 0.2)
        d = a.bound_delta(b)
        assert d.lower == pytest.approx(0.4)  # 0.5 - 0.1
        assert d.upper == pytest.approx(0.5)  # 0.7 - 0.2

    def test_bound_delta_orders_crossed_bounds(self):
        # lower bound improved more than the upper: deltas arrive
        # unordered and must be sorted into a valid interval.
        a = Interval(0.6, 0.7)
        b = Interval(0.1, 0.65)
        d = a.bound_delta(b)
        assert d.lower == pytest.approx(0.05)  # 0.7 - 0.65
        assert d.upper == pytest.approx(0.5)  # 0.6 - 0.1

    def test_two_difference_semantics_differ(self):
        # The historical trap: __sub__ is NOT the Figures 7-12 delta.
        a = Interval(0.5, 0.7)
        b = Interval(0.1, 0.2)
        conservative = a - b
        bound_wise = a.bound_delta(b)
        assert conservative != bound_wise
        # The bound-wise delta is always contained in the conservative
        # interval difference.
        assert conservative.lower <= bound_wise.lower
        assert bound_wise.upper <= conservative.upper

    def test_bound_delta_identity_is_zero(self):
        a = Interval(0.3, 0.9)
        assert a.bound_delta(a) == Interval(0.0, 0.0)

    def test_str(self):
        assert "0.2" in str(Interval(0.2, 0.6))


class TestAttackHappiness:
    def test_counts_fraction(self, graph):
        result = attack_happiness(graph, 666, 1, Deployment.empty(), BASELINE)
        assert result.num_sources == 4
        # 3 is doomed (customer bogus); 2, 4, 5 are happy.
        assert result.happy_lower == 3
        assert result.happy_upper == 3
        assert result.fraction.lower == pytest.approx(0.75)

    def test_zero_sources_edge_case(self):
        g = graph_from_edges(customer_provider=[(2, 1)])
        result = attack_happiness(g, 2, 1, Deployment.empty(), BASELINE)
        assert result.num_sources == 0
        assert result.fraction == Interval(0.0, 0.0)


class TestSecurityMetric:
    def test_average_over_pairs(self, graph):
        pairs = [(666, 1), (666, 2)]
        result = security_metric(graph, pairs, Deployment.empty(), BASELINE)
        assert result.num_pairs == 2
        per_pair = {(r.attacker, r.destination): r for r in result.per_pair}
        expected = (
            per_pair[(666, 1)].fraction.lower + per_pair[(666, 2)].fraction.lower
        ) / 2
        assert result.value.lower == pytest.approx(expected)

    def test_empty_pairs(self, graph):
        result = security_metric(graph, [], Deployment.empty(), BASELINE)
        assert result.value == Interval(0.0, 0.0)

    def test_bounds_ordered(self, small_ctx):
        asns = small_ctx.asns
        pairs = [(asns[-1], asns[0]), (asns[-2], asns[1]), (asns[-5], asns[7])]
        result = security_metric(small_ctx, pairs, Deployment.empty(), BASELINE)
        assert result.value.lower <= result.value.upper


class TestMetricForDestination:
    def test_excludes_self_attack(self, graph):
        result = metric_for_destination(
            graph, [666, 1], 1, Deployment.empty(), BASELINE
        )
        assert result.num_pairs == 1  # the (1, 1) pair is dropped


class TestBatchHappiness:
    def test_matches_per_pair_calls(self, graph):
        from repro.core import batch_happiness

        pairs = [(666, 1), (666, 2), (4, 1)]
        dep = Deployment.of([1, 2, 3])
        batch = batch_happiness(graph, pairs, dep, SECURITY_FIRST)
        singles = [
            attack_happiness(graph, m, d, dep, SECURITY_FIRST) for m, d in pairs
        ]
        assert batch == singles

    def test_security_metric_equals_per_pair_attack_happiness(self, small_ctx):
        asns = small_ctx.asns
        pairs = [(asns[-1], asns[0]), (asns[-2], asns[1]), (asns[-5], asns[7])]
        dep = Deployment.of(asns[: len(asns) // 4])
        fast = security_metric(small_ctx, pairs, dep, SECURITY_THIRD)
        slow = tuple(
            attack_happiness(small_ctx, m, d, dep, SECURITY_THIRD)
            for m, d in pairs
        )
        assert fast.per_pair == slow
        assert fast.value == _mean_interval(slow)


class TestMetricImprovement:
    def test_full_deployment_improves_security_first(self, graph):
        deployment = Deployment.of(graph.asns)
        delta, secured, baseline = metric_improvement(
            graph, [(666, 1)], deployment, SECURITY_FIRST
        )
        # with everyone secure and security 1st, 3 still prefers... 3's
        # bogus customer route is its own doom; but 2/4/5 keep secure
        # routes. At minimum the metric must not degrade.
        assert delta.upper >= delta.lower
        assert secured.value.lower >= baseline.value.lower

    def test_reuses_provided_baseline(self, graph):
        pairs = [(666, 1)]
        baseline = security_metric(graph, pairs, Deployment.empty(), SECURITY_THIRD)
        delta, _, returned = metric_improvement(
            graph, pairs, Deployment.of([1, 2]), SECURITY_THIRD, baseline=baseline
        )
        assert returned is baseline

    def test_monotone_model_never_degrades(self, small_ctx):
        # Theorem 6.1: security 3rd is monotone, so the lower bound of
        # the improvement over ∅ is non-negative for any S.
        asns = small_ctx.asns
        pairs = [(asns[-1], asns[4]), (asns[17], asns[60])]
        deployment = Deployment.of(asns[: len(asns) // 3])
        delta, _, _ = metric_improvement(
            small_ctx, pairs, deployment, SECURITY_THIRD
        )
        assert delta.lower >= -1e-12
