"""Tests for the planner work ledger and virtual-time model."""

from dataclasses import asdict, fields

import pytest

from repro.planners import PlannerStats, WorkModel


class TestPlannerStats:
    def test_merge_adds_fields(self):
        a = PlannerStats(sample_attempts=1, lp_checks=10, nn_distance_evals=5)
        b = PlannerStats(sample_attempts=2, lp_checks=20, nn_distance_evals=7)
        m = a.merge(b)
        assert m.sample_attempts == 3
        assert m.lp_checks == 30
        assert m.nn_distance_evals == 12

    def test_iadd(self):
        a = PlannerStats(lp_calls=1)
        a += PlannerStats(lp_calls=4)
        assert a.lp_calls == 5

    def test_every_sum_covers_every_field(self):
        """``merge``, ``+=`` and ``total`` add each field, the last included."""
        names = [f.name for f in fields(PlannerStats)]
        a = PlannerStats(*range(1, len(names) + 1))
        b = PlannerStats(*range(100, 100 + len(names)))
        want = {name: asdict(a)[name] + asdict(b)[name] for name in names}
        assert asdict(a.merge(b)) == want
        assert asdict(PlannerStats.total([a, b])) == want
        assert PlannerStats.total([]) == PlannerStats()
        c = PlannerStats(**asdict(a))
        c += b
        assert asdict(c) == want and asdict(a) != want


class TestWorkModel:
    def test_time_of_linear(self):
        model = WorkModel(cost_sample_attempt=2.0, cost_lp_check=3.0, cost_nn_eval=0.5)
        st = PlannerStats(sample_attempts=4, lp_checks=10, nn_distance_evals=6)
        assert model.time_of(st) == pytest.approx(2.0 * 4 + 3.0 * 10 + 0.5 * 6)

    def test_fixed_cost_per_call(self):
        model = WorkModel(cost_fixed_per_call=1.5)
        st = PlannerStats(lp_calls=4)
        assert model.time_of(st) == pytest.approx(6.0)

    def test_zero_stats_zero_time(self):
        assert WorkModel().time_of(PlannerStats()) == 0.0
