"""Tests for solve_many retry/abandonment accounting (satellite fix:
pool-dispatched queries must surface attempts the same way plan() does)."""

import numpy as np
import pytest

from repro import ExecutionPolicy, FaultPolicy, WorkloadSpec
from repro.planners.engine import BatchQueryResult
from repro.runtime import Fault, FaultInjector
from repro.service.cache import build_engine


def _engine_and_queries(n=6):
    spec = WorkloadSpec(
        environment="med-cube",
        planner="prm",
        num_regions=16,
        samples_per_region=4,
        seed=3,
    )
    engine = build_engine(spec)
    cs = spec.resolve_cspace()
    lo, hi = cs.bounds.lo, cs.bounds.hi
    rng = np.random.default_rng(1)
    queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]
    return engine, queries


class TestAttemptsAccounting:
    def test_inline_path_counts_one_attempt_each(self):
        engine, queries = _engine_and_queries()
        res = engine.solve_many(queries, execution=ExecutionPolicy(workers=1))
        assert res.attempts == {i: 1 for i in range(len(queries))}

    def test_pool_path_surfaces_attempts(self):
        engine, queries = _engine_and_queries()
        res = engine.solve_many(
            queries, execution=ExecutionPolicy(workers=2), faults=FaultPolicy(policy="retry")
        )
        assert set(res.attempts) == set(range(len(queries)))
        assert all(v >= 1 for v in res.attempts.values())

    def test_retried_query_counts_extra_attempts(self):
        engine, queries = _engine_and_queries()
        res = engine.solve_many(
            queries,
            execution=ExecutionPolicy(workers=2),
            faults=FaultPolicy(
                policy="retry",
                max_retries=2,
                injector=FaultInjector([Fault("raise", task=1, attempt=0)]),
            ),
        )
        assert res.attempts[1] == 2  # first attempt failed, second served
        assert res.retries == 1
        assert res.abandoned == []

    def test_abandoned_queries_keep_their_attempt_count(self):
        engine, queries = _engine_and_queries()
        res = engine.solve_many(
            queries,
            execution=ExecutionPolicy(workers=2),
            faults=FaultPolicy(
                policy="degrade",
                max_retries=1,
                injector=FaultInjector(
                    [Fault("raise", task=2, attempt=0), Fault("raise", task=2, attempt=1)]
                ),
            ),
        )
        assert res.abandoned == [2]
        assert res.results[2] is None
        # The abandoned query appears in attempts with its full failed
        # count instead of silently vanishing from per-task accounting.
        assert res.attempts[2] == 2
        assert set(res.attempts) == set(range(len(queries)))


class TestPercentilesExcludeAbandoned:
    def test_abandoned_latencies_do_not_dilute_percentiles(self):
        res = BatchQueryResult(
            results=[object(), None, object(), None],
            wall_time=1.0,
            setup_time=0.1,
            latencies=[0.5, 0.001, 0.7, 0.002],  # abandoned carry setup only
            solved=2,
            abandoned=[1, 3],
        )
        # Only the two real latencies participate.
        assert res.latency_percentile(0) == 0.5
        assert res.latency_percentile(100) == 0.7
        assert res.latency_percentile(50) in (0.5, 0.7)

    def test_all_abandoned_reports_zero(self):
        res = BatchQueryResult(
            results=[None, None],
            wall_time=1.0,
            setup_time=0.1,
            latencies=[0.1, 0.2],
            solved=0,
            abandoned=[0, 1],
        )
        assert res.latency_percentile(50) == 0.0

    def test_end_to_end_degrade_excludes_abandoned(self):
        engine, queries = _engine_and_queries()
        clean = engine.solve_many(queries, execution=ExecutionPolicy(workers=2))
        degraded = engine.solve_many(
            queries,
            execution=ExecutionPolicy(workers=2),
            faults=FaultPolicy(
                policy="degrade",
                max_retries=0,
                injector=FaultInjector([Fault("raise", task=0, attempt=0)]),
            ),
        )
        assert degraded.abandoned == [0]
        # p100 over the surviving queries only (no artificially low or
        # stale entry from the abandoned one).
        survivors = [
            lat for i, lat in enumerate(degraded.latencies) if i != 0
        ]
        assert degraded.latency_percentile(100) == pytest.approx(max(survivors))
        assert clean.latency_percentile(100) > 0
