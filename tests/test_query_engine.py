"""Tests for the amortised query-serving engine (repro.planners.engine)."""

import numpy as np
import pytest

from repro.api import ExecutionPolicy, FaultPolicy, PlanRequest, WorkloadSpec, plan
from repro.knn import BruteForceNN, IncrementalNN, KDTreeNN
from repro.obs import EV_QUERY_END, EV_QUERY_START, Tracer, summarize_events
from repro.obs.summary import format_summary
from repro.planners import PRM, FrozenRoadmap, QueryEngine, QueryRequest, RoadmapQuery
from repro.planners import engine as engine_module
from repro.planners.frozen import LANDMARKS
from repro.runtime import Fault, FaultInjector

from .oracle import same_answer


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


class TestSolveParity:
    """The acceptance property: every engine answer is bit-identical to
    RoadmapQuery.solve on the source roadmap."""

    def test_matches_roadmap_query(self, built):
        cs, rmap = built
        rq = RoadmapQuery(cs, k=8)
        eng = QueryEngine(cs, rmap)
        solved = 0
        for s, g in _queries(cs, 40):
            ref = rq.solve(rmap, s, g)
            got = eng.solve(s, g)
            assert same_answer(ref, got)
            solved += ref is not None
        assert solved > 0  # the battery must exercise real paths

    @pytest.mark.parametrize(
        "factory",
        [KDTreeNN, IncrementalNN],
        ids=["kdtree", "incremental"],
    )
    def test_nn_backend_is_drop_in(self, built, factory):
        """The engine builds a ``BruteForceNN``, whose attachment pass also
        hands back the distance block the searches' heuristics come from;
        every finder shares its canonical tie-break, so another one picks
        the same attachment candidates for the engine's queries."""
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        fz = eng.frozen
        alt = factory(cs.dim)
        alt.add_batch(np.arange(fz.num_vertices, dtype=np.int64), fz.configs)
        ends = np.vstack([np.vstack(pair) for pair in _queries(cs, 25, seed=2)])
        got = alt.knn_batch_arrays(ends, engine_module.ATTACH_K)
        want = eng._nn.knn_batch_arrays(ends, engine_module.ATTACH_K)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

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
        assert same_answer(eng.solve(s, g), RoadmapQuery(cs, k=8).solve(rmap, s, g))


class TestAutoBackend:
    def test_small_roadmap_uses_brute_force(self, built):
        cs, rmap = built
        assert type(QueryEngine(cs, rmap)._nn) is BruteForceNN


class TestSolveMany:
    def test_matches_per_query_solve(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        queries = _queries(cs, 30, seed=4)
        batch = eng.solve_many(queries)
        assert batch.num_queries == 30
        assert len(batch.latencies) == 30
        assert batch.setup_time > 0 and batch.wall_time >= batch.setup_time
        assert batch.solved == sum(r is not None for r in batch.results)
        for (s, g), got in zip(queries, batch.results):
            assert same_answer(eng.solve(s, g), got)

    def test_accepts_query_requests(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        pairs = _queries(cs, 6, seed=5)
        as_requests = eng.solve_many([QueryRequest(s, g) for s, g in pairs])
        as_tuples = eng.solve_many(pairs)
        for a, b in zip(as_requests.results, as_tuples.results):
            assert same_answer(a, b)

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

    def test_a_timeout_needs_the_process_backend(self, built):
        cs, rmap = built
        eng, faults = QueryEngine(cs, rmap), FaultPolicy(task_timeout=1.0)
        for execution in (None, ExecutionPolicy(workers=2), ExecutionPolicy(backend="thread")):
            with pytest.raises(ValueError, match="backend='process'"):
                eng.solve_many(_queries(cs, 4, seed=9), execution=execution, faults=faults)

    def test_degrade_abandons_faulty_query(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
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
                assert same_answer(a, b)


class TestLandmarkAmortisation:
    """The engine builds its snapshot's landmark table once the searches
    have settled what the table costs; answers never change."""

    def test_cold_engine_builds_no_table(self, built):
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        eng.solve_many(_queries(cs, 3, seed=11))
        assert eng._landmark_build is None
        assert eng.frozen.landmark_table is None

    def test_table_is_built_once_searches_paid_for_it(self, built):
        """The build starts with the call whose searches bring the settled
        count to ``K n`` — not one call earlier — and publishes the table."""
        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        fz = eng.frozen
        cost = min(LANDMARKS, fz.num_vertices) * fz.num_vertices
        for s, g in _queries(cs, 1000, seed=12):
            before = fz.settled
            eng.solve(s, g)
            if eng._landmark_build is not None:
                assert before < cost <= fz.settled
                break
            assert fz.settled < cost
        else:
            pytest.fail("the table build never started")
        eng._landmark_build.join()
        assert fz.landmark_table.shape == (LANDMARKS, fz.num_vertices)

    def test_answers_with_the_table_match_roadmap_query(self, built):
        cs, rmap = built
        rq = RoadmapQuery(cs, k=8)
        eng = QueryEngine(cs, rmap)
        eng.frozen.build_landmarks()
        queries = _queries(cs, 40)
        inline = eng.solve_many(queries)
        pooled = eng.solve_many(queries, execution=ExecutionPolicy(workers=2))
        for (s, g), a, b in zip(queries, inline.results, pooled.results):
            ref = rq.solve(rmap, s, g)
            assert same_answer(ref, a) and same_answer(ref, b)
        assert inline.solved > 0
        assert eng.frozen.searches > eng.frozen.fallbacks

    def test_concurrent_batches_build_the_table_once(self, built):
        import threading

        cs, rmap = built
        eng = QueryEngine(cs, rmap)
        fz = eng.frozen
        fz.settled = fz.num_vertices ** 2
        builds = []
        build = fz.build_landmarks

        def counted():
            builds.append(threading.get_ident())
            build()

        fz.build_landmarks = counted
        barrier = threading.Barrier(4)

        def serve(seed):
            barrier.wait()
            for i in range(3):
                eng.solve_many(_queries(cs, 2, seed=seed + i))

        threads = [threading.Thread(target=serve, args=(20 + 10 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        eng._landmark_build.join()
        assert len(builds) == 1
        assert fz.landmark_table is not None


class TestBatchPasses:
    """A batch is prepared in array passes — the attachment block's goal
    rows are the heuristics, one landmark pass bounds every query — and
    searched in one chunk per pool worker; every answer stays
    ``RoadmapQuery.solve``'s, however the searches run."""

    @pytest.fixture(scope="class")
    def truth(self, built):
        cs, rmap = built
        queries = [(np.zeros(2), np.array([4.5, -4.5])), *_queries(cs, 23, seed=13)]
        rq = RoadmapQuery(cs, k=8)
        return queries, [rq.solve(rmap, s, g) for s, g in queries]

    RUNS = {
        "inline": lambda: {},
        # The inline backend: two chunks, one after the other, in the caller.
        "pooled": lambda: {"execution": ExecutionPolicy(workers=2)},
        "process": lambda: {"execution": ExecutionPolicy(workers=2, backend="process")},
        # An injector sends every chunk through the per-task loop.
        "injected": lambda: {
            "execution": ExecutionPolicy(workers=2),
            "faults": FaultPolicy(policy="retry", max_retries=1, injector=FaultInjector(
                [Fault("raise", task=1, attempt=0), Fault("raise", task=20, attempt=0)])),
        },
    }

    @pytest.mark.parametrize("table", [False, True], ids=["euclidean", "landmarks"])
    @pytest.mark.parametrize("run", list(RUNS))
    def test_solve_many_equals_roadmap_query(self, built, truth, run, table, fast_backoff):
        cs, rmap = built
        queries, want = truth
        eng = QueryEngine(cs, rmap)
        if table:
            eng.frozen.build_landmarks()
        batch = eng.solve_many(queries, **self.RUNS[run]())
        assert batch.abandoned == []
        if run in ("pooled", "process"):
            assert batch.retries == 0
        assert batch.results[0] is None and batch.solved > 10
        for ref, got in zip(want, batch.results):
            assert same_answer(ref, got)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_forced_certificate_fallback(self, built, truth, workers, monkeypatch):
        """Every ALT answer discarded: the Euclidean re-run answers."""
        cs, rmap = built
        queries, want = truth
        eng = QueryEngine(cs, rmap)
        eng.frozen.build_landmarks()
        monkeypatch.setattr(FrozenRoadmap, "_certified", lambda *_a: False)
        batch = eng.solve_many(queries, execution=ExecutionPolicy(workers=workers))
        for ref, got in zip(want, batch.results):
            assert same_answer(ref, got)
        assert eng.frozen.fallbacks == eng.frozen.searches > 10

    def test_prepared_rows_equal_one_query_at_a_time(self, built, truth):
        """Invalid endpoints get no job; every other job carries the rows
        its query computes alone (``tests/oracle.py::prepared_one``)."""
        from .oracle import prepared_one

        cs, rmap = built
        queries, _want = truth
        eng = QueryEngine(cs, rmap)
        eng.frozen.build_landmarks()
        starts = np.array([s for s, _g in queries])
        goals = np.array([g for _s, g in queries])
        valid = cs.valid(starts) & cs.valid(goals)
        jobs = eng._prepare(starts, goals)
        assert [j is not None for j in jobs] == valid.tolist()
        bounded = 0
        for job in jobs:
            if job is None:
                continue
            start, goal, s_links, g_links, row = job
            h, alt, d_sg = prepared_one(eng.frozen, start, goal, s_links, g_links)
            assert np.array_equal(row.h, h) and row.d_sg == d_sg
            assert (row.alt is None) == (alt is None)
            if alt is not None:
                assert np.array_equal(row.alt, alt)
                bounded += 1
        assert bounded > 10

    def test_one_chunk_per_worker(self, built, truth):
        """``q`` searches go out in ``min(q, workers)`` chunks, whatever
        ``ExecutionPolicy.chunksize`` says (it sizes ``plan()``'s tasks)."""
        cs, rmap = built
        queries, _want = truth
        eng = QueryEngine(cs, rmap)
        for chunksize in (1, 5, "guided"):
            batch = eng.solve_many(
                queries, execution=ExecutionPolicy(workers=2, chunksize=chunksize))
            assert batch.dispatch.chunks_issued == 2
        batch = eng.solve_many(queries[:3], execution=ExecutionPolicy(workers=4))
        assert batch.dispatch.chunks_issued == 3


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
            assert same_answer(eng.solve(s, g), got)
