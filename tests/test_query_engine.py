"""Tests for the amortised query-serving engine (repro.planners.engine)."""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, FaultPolicy, PlanRequest, WorkloadSpec, plan
from repro.knn import BruteForceNN, IncrementalNN, KDTreeNN
from repro.obs import EV_QUERY_END, EV_QUERY_START, Tracer, summarize_events
from repro.obs.summary import format_summary
from repro.planners import PRM, FrozenRoadmap, QueryEngine, QueryRequest, RoadmapQuery
from repro.planners.engine import _AUTO_KDTREE_MIN
from repro.runtime import Fault, FaultInjector


@pytest.fixture(scope="module")
def built():
    """One PRM roadmap shared by the parity tests (module-scoped: the
    engine never mutates it)."""
    from repro.cspace import EuclideanCSpace
    from repro.geometry import AABB, Environment

    bounds = AABB([-5.0, -5.0], [5.0, 5.0])
    obstacles = [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])]
    cs = EuclideanCSpace(Environment(bounds, obstacles, name="two-box"))
    rmap = PRM(cs, k=6).build(250, np.random.default_rng(0)).roadmap
    return cs, rmap


def _queries(cs, n, seed=1):
    rng = np.random.default_rng(seed)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n)]


def _same_result(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (
        a.path_vertices == b.path_vertices
        and a.length == b.length
        and np.array_equal(a.path_configs, b.path_configs)
    )


class TestSolveParity:
    """The acceptance property: every engine answer is bit-identical to
    RoadmapQuery.solve on the source roadmap."""

    def test_matches_roadmap_query(self, built):
        cs, rmap = built
        rq = RoadmapQuery(cs, k=8)
        eng = QueryEngine(cs, rmap, k=8)
        solved = 0
        for s, g in _queries(cs, 40):
            ref = rq.solve(rmap, s, g)
            got = eng.solve(s, g)
            assert _same_result(ref, got)
            solved += ref is not None
        assert solved > 0  # the battery must exercise real paths

    @pytest.mark.parametrize(
        "factory",
        [KDTreeNN, IncrementalNN],
        ids=["kdtree", "incremental"],
    )
    def test_nn_backend_is_drop_in(self, built, factory):
        cs, rmap = built
        ref_eng = QueryEngine(cs, rmap, k=8, nn_factory=BruteForceNN)
        alt_eng = QueryEngine(cs, rmap, k=8, nn_factory=factory)
        for s, g in _queries(cs, 25, seed=2):
            assert _same_result(ref_eng.solve(s, g), alt_eng.solve(s, g))

    def test_invalid_endpoints_return_none(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        # (0, 0) is inside the first obstacle.
        assert eng.solve(np.zeros(2), np.array([4.5, -4.5])) is None
        assert eng.solve(np.array([4.5, -4.5]), np.zeros(2)) is None

    def test_roadmap_never_mutated(self, built):
        cs, rmap = built
        v, e = rmap.num_vertices, rmap.num_edges
        eng = QueryEngine(cs, rmap)
        for s, g in _queries(cs, 10, seed=3):
            eng.solve(s, g)
        assert rmap.num_vertices == v and rmap.num_edges == e

    def test_accepts_prefrozen_roadmap(self, built):
        cs, rmap = built
        frozen = FrozenRoadmap.from_roadmap(rmap)
        eng = QueryEngine(cs, frozen)
        assert eng.frozen is frozen
        s, g = np.array([-4.5, -4.5]), np.array([4.5, -4.5])
        assert _same_result(eng.solve(s, g), RoadmapQuery(cs, k=8).solve(rmap, s, g))


class TestAutoBackend:
    def test_small_roadmap_uses_brute_force(self, built):
        cs, rmap = built
        assert rmap.num_vertices < _AUTO_KDTREE_MIN
        assert QueryEngine(cs, rmap).nn_factory is BruteForceNN

    def test_explicit_factory_wins(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap, nn_factory=KDTreeNN)
        assert eng.nn_factory is KDTreeNN
        assert isinstance(eng._nn, KDTreeNN)


class TestSolveMany:
    def test_matches_per_query_solve(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap, k=8)
        queries = _queries(cs, 30, seed=4)
        batch = eng.solve_many(queries)
        assert batch.num_queries == 30
        assert len(batch.latencies) == 30
        assert batch.setup_time > 0 and batch.wall_time >= batch.setup_time
        assert batch.solved == sum(r is not None for r in batch.results)
        for (s, g), got in zip(queries, batch.results):
            assert _same_result(eng.solve(s, g), got)

    def test_accepts_query_requests(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        pairs = _queries(cs, 6, seed=5)
        as_requests = eng.solve_many([QueryRequest(s, g) for s, g in pairs])
        as_tuples = eng.solve_many(pairs)
        for a, b in zip(as_requests.results, as_tuples.results):
            assert _same_result(a, b)

    def test_empty_batch(self, built):
        cs, rmap = built
        batch = QueryEngine(cs, rmap).solve_many([])
        assert batch.results == [] and batch.solved == 0
        assert batch.queries_per_sec == 0.0
        assert batch.latency_percentile(50) == 0.0

    def test_throughput_accounting(self, built):
        cs, rmap = built
        batch = QueryEngine(cs, rmap).solve_many(_queries(cs, 10, seed=6))
        assert batch.queries_per_sec > 0
        p50, p99 = batch.latency_percentile(50), batch.latency_percentile(99)
        assert 0 < p50 <= p99 <= max(batch.latencies)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_dispatch_matches_inline(self, built, backend):
        cs, rmap = built
        eng = QueryEngine(cs, rmap, k=8)
        queries = _queries(cs, 12, seed=7)
        inline = eng.solve_many(queries)
        pooled = eng.solve_many(
            queries, execution=ExecutionPolicy(workers=2, backend=backend)
        )
        for a, b in zip(inline.results, pooled.results):
            assert _same_result(a, b)
        assert pooled.abandoned == [] and pooled.retries == 0

    def test_degrade_abandons_faulty_query(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap, k=8)
        queries = _queries(cs, 8, seed=8)
        inj = FaultInjector([Fault("raise", task=3, attempt=a) for a in range(5)])
        batch = eng.solve_many(
            queries,
            execution=ExecutionPolicy(workers=2),
            faults=FaultPolicy(policy="degrade", max_retries=1, injector=inj),
        )
        assert batch.abandoned == [3]
        assert batch.results[3] is None
        assert batch.retries >= 1
        inline = eng.solve_many(queries)
        for i, (a, b) in enumerate(zip(inline.results, batch.results)):
            if i != 3:
                assert _same_result(a, b)


class TestObservability:
    def test_events_and_serve_span(self, built):
        cs, rmap = built
        tr = Tracer()
        eng = QueryEngine(cs, rmap)
        batch = eng.solve_many(_queries(cs, 9, seed=9), tracer=tr)
        events = tr.memory.events
        starts = [e for e in events if e.name == EV_QUERY_START]
        ends = [e for e in events if e.name == EV_QUERY_END]
        assert len(starts) == len(ends) == 9
        assert sum(e.attrs["solved"] for e in ends) == batch.solved
        spans = [e for e in events if e.name == "serve"]
        assert {e.kind for e in spans} == {"span_begin", "span_end"}

    def test_summary_reports_query_serving(self, built):
        cs, rmap = built
        tr = Tracer()
        QueryEngine(cs, rmap).solve_many(_queries(cs, 9, seed=9), tracer=tr)
        s = summarize_events(tr.memory.events)
        assert s.queries_executed == 9
        assert s.queries_per_sec() > 0
        assert "Query serving" in format_summary(s)


class TestPlanReportIntegration:
    @pytest.fixture(scope="class")
    def report(self):
        return plan(PlanRequest(
            workload=WorkloadSpec(
                planner="prm", num_regions=8, samples_per_region=6, seed=0,
            ),
            execution=ExecutionPolicy(num_pes=2),
        ))

    def test_query_engine_is_cached(self, report):
        eng = report.query_engine()
        assert report.query_engine() is eng

    def test_solve_queries(self, report):
        cs = report.request.resolve_cspace()
        queries = _queries(cs, 6, seed=10)
        batch = report.solve_queries(queries)
        assert batch.num_queries == 6
        eng = report.query_engine()
        for (s, g), got in zip(queries, batch.results):
            assert _same_result(eng.solve(s, g), got)
