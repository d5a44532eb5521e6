"""Tests for the frozen CSR roadmap snapshot (repro.planners.frozen)."""

import numpy as np
import pytest

from repro.planners import FrozenRoadmap, Roadmap, dijkstra


def _line_graph():
    rm = Roadmap(2)
    for i in range(5):
        rm.add_vertex(np.array([float(i), 0.0]), i)
    for i in range(4):
        rm.add_edge(i, i + 1)
    return rm


def _random_roadmap(rng, n=60, extra_cluster=True):
    """A random graph roadmap with (optionally) a second disconnected
    cluster, exercising multi-component behaviour."""
    rm = Roadmap(2)
    pts = rng.uniform(-5, 5, size=(n, 2))
    for i, p in enumerate(pts):
        rm.add_vertex(p, i)
    for _ in range(3 * n):
        u, v = rng.integers(0, n, 2)
        if u != v and not rm.has_edge(int(u), int(v)):
            rm.add_edge(int(u), int(v))
    if extra_cluster:
        base = n
        for j in range(5):
            rm.add_vertex(rng.uniform(20, 25, 2), base + j)
        for j in range(4):
            rm.add_edge(base + j, base + j + 1)
    return rm


class TestStructure:
    def test_counts_and_ids(self):
        fr = FrozenRoadmap.from_roadmap(_line_graph())
        assert fr.num_vertices == 5
        assert fr.num_edges == 4
        assert fr.max_id == 4
        assert fr.ids.tolist() == [0, 1, 2, 3, 4]

    def test_csr_mirrors_adjacency(self):
        rm = _line_graph()
        fr = FrozenRoadmap.from_roadmap(rm)
        for vid in range(5):
            row = fr.row_of(vid)
            lo, hi = fr.indptr[row], fr.indptr[row + 1]
            got = {int(fr.ids[r]): float(w) for r, w in
                   zip(fr.indices[lo:hi], fr.weights[lo:hi])}
            assert got == dict(rm.neighbors(vid))

    def test_config_access(self, rng):
        rm = _random_roadmap(rng, n=20, extra_cluster=False)
        fr = FrozenRoadmap.from_roadmap(rm)
        for vid in (0, 7, 19):
            assert np.array_equal(fr.config(vid), rm.config(vid))
        gathered = fr.configs_of([3, 3, 11, 0])
        assert np.array_equal(
            gathered, np.vstack([rm.config(3), rm.config(3), rm.config(11), rm.config(0)])
        )
        assert fr.configs_of([]).shape == (0, 2)

    def test_empty_roadmap(self):
        fr = FrozenRoadmap.from_roadmap(Roadmap(3))
        assert fr.num_vertices == 0
        assert fr.num_edges == 0
        assert fr.max_id == -1
        assert fr.num_components == 0

    def test_missing_vertex_raises(self):
        fr = FrozenRoadmap.from_roadmap(_line_graph())
        with pytest.raises(KeyError):
            fr.row_of(1234)
        with pytest.raises(KeyError):
            fr.same_component(0, 1234)
        with pytest.raises(KeyError):
            fr.config(1234)


class TestComponents:
    def test_labels_partition_clusters(self, rng):
        rm = _random_roadmap(rng)
        fr = FrozenRoadmap.from_roadmap(rm)
        assert fr.num_components >= 2
        # The far-away chain shares one label and it differs from cluster 0.
        chain = {fr.comp[fr.row_of(v)] for v in range(60, 65)}
        assert len(chain) == 1
        assert not fr.same_component(0, 60) or fr.comp[fr.row_of(0)] in chain

    def test_exact_after_edge_removal(self):
        """Labels are BFS-exact, not stale union-find: splitting a chain by
        removing its middle edge must yield two components."""
        rm = _line_graph()
        rm.remove_edge(2, 3)
        fr = FrozenRoadmap.from_roadmap(rm)
        assert not fr.same_component(0, 4)
        assert fr.same_component(0, 2)
        assert dijkstra(rm, 0, 4) is None

    def test_same_component_matches_search(self, rng):
        rm = _random_roadmap(rng)
        fr = FrozenRoadmap.from_roadmap(rm)
        ids = [int(v) for v in fr.ids]
        for _ in range(50):
            s, g = (ids[int(i)] for i in rng.integers(0, len(ids), 2))
            assert fr.same_component(s, g) == (dijkstra(rm, s, g) is not None)


class TestSearchParity:
    """Path-exactness of the served search is pinned where it is served:
    ``TestAstarVirtual`` below and the ``QueryEngine == RoadmapQuery.solve``
    batteries of ``test_query_engine``."""

    def test_snapshot_is_decoupled_from_source(self):
        """Mutating the source roadmap after freezing must not leak into
        the snapshot (freeze copies, never aliases)."""
        rm = _line_graph()
        fr = FrozenRoadmap.from_roadmap(rm)
        rm.add_vertex(np.array([9.0, 9.0]), 99)
        rm.add_edge(0, 99)
        assert fr.num_vertices == 5
        assert not fr.has_vertex(99)


class TestAstarVirtual:
    def test_no_links_is_unsolvable(self):
        fr = FrozenRoadmap.from_roadmap(_line_graph())
        assert fr.astar_virtual(
            np.zeros(2), np.ones(2), [], [(0, 1.0)], 100, 101
        ) is None
        assert fr.astar_virtual(
            np.zeros(2), np.ones(2), [(0, 1.0)], [], 100, 101
        ) is None

    def test_direct_start_goal_edge(self):
        """A goal link whose row == num_vertices is the direct start-goal
        edge and must work even with no common roadmap component."""
        rm = _line_graph()
        rm.remove_edge(2, 3)
        fr = FrozenRoadmap.from_roadmap(rm)
        n = fr.num_vertices
        start, goal = np.array([0.0, 1.0]), np.array([0.0, 2.0])
        got = fr.astar_virtual(
            start, goal,
            [(fr.row_of(0), 1.0)],
            [(n, 1.0), (fr.row_of(4), 1.0)],
            100, 101,
        )
        assert got is not None
        path, dist = got
        assert path == [100, 101]
        assert dist == pytest.approx(1.0)

    def test_cross_component_without_direct_edge(self):
        rm = _line_graph()
        rm.remove_edge(2, 3)
        fr = FrozenRoadmap.from_roadmap(rm)
        got = fr.astar_virtual(
            np.zeros(2), np.ones(2),
            [(fr.row_of(0), 1.0)],
            [(fr.row_of(4), 1.0)],
            100, 101,
        )
        assert got is None

    def test_path_through_roadmap(self):
        fr = FrozenRoadmap.from_roadmap(_line_graph())
        start, goal = np.array([-1.0, 0.0]), np.array([5.0, 0.0])
        got = fr.astar_virtual(
            start, goal,
            [(fr.row_of(0), 1.0)],
            [(fr.row_of(4), 1.0)],
            100, 101,
        )
        assert got is not None
        path, dist = got
        assert path == [100, 0, 1, 2, 3, 4, 101]
        assert dist == pytest.approx(6.0)


# -- the landmark (ALT) order and its tie certificate ------------------------
#
# Every case compares the served search (``astar_virtual`` with the
# snapshot's landmark table) with the landmark-free order, which stays
# callable as the oracle (``landmarks=False``): path and float length must
# be equal to the bit, whether the certificate held or the search fell back.


def _served_and_oracle(fr, start, goal, s_links, g_links):
    args = (np.asarray(start, dtype=float), np.asarray(goal, dtype=float),
            s_links, g_links, fr.max_id + 1, fr.max_id + 2)
    return fr.astar_virtual(*args), fr.astar_virtual(*args, landmarks=False)


def _links(fr, point, rows):
    """``(row, Euclidean length)`` links from ``point`` to ``rows``."""
    return [(r, float(np.linalg.norm(fr.configs[r] - point))) for r in rows]


def _lattice(side):
    """A ``side x side`` unit lattice: every shortest path has equal-weight twins."""
    rm = Roadmap(2)
    for i in range(side):
        for j in range(side):
            rm.add_vertex(np.array([float(i), float(j)]), i * side + j)
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                rm.add_edge(i * side + j, (i + 1) * side + j)
            if j + 1 < side:
                rm.add_edge(i * side + j, i * side + j + 1)
    return rm


class TestLandmarkTable:
    def test_table_is_exact_graph_distance(self, rng):
        rm = _random_roadmap(rng)
        fr = FrozenRoadmap.from_roadmap(rm)
        fr.build_landmarks()
        table = fr.landmark_table
        assert table.shape == (16, fr.num_vertices)
        for row in table[:3]:
            lm = int(np.flatnonzero(row == 0.0)[0])
            for r in range(0, fr.num_vertices, 7):
                found = dijkstra(rm, int(fr.ids[lm]), int(fr.ids[r]))
                if found is None:
                    assert np.isnan(row[r])  # another component
                else:
                    assert row[r] == pytest.approx(found[1], rel=1e-12)

    def test_build_is_deterministic_and_idempotent(self, rng):
        rm = _random_roadmap(rng)
        a, b = FrozenRoadmap.from_roadmap(rm), FrozenRoadmap.from_roadmap(rm)
        a.build_landmarks()
        b.build_landmarks()
        assert np.array_equal(a.landmark_table, b.landmark_table, equal_nan=True)
        table = a.landmark_table
        a.build_landmarks()
        assert a.landmark_table is table

    def test_small_and_empty_snapshots(self):
        fr = FrozenRoadmap.from_roadmap(_line_graph())
        fr.build_landmarks()
        assert fr.landmark_table.shape == (5, 5)
        empty = FrozenRoadmap.from_roadmap(Roadmap(2))
        empty.build_landmarks()
        assert empty.landmark_table is None


class TestTieCertificate:
    @staticmethod
    def _two_routes(w_b):
        """Start and goal joined through rows a and b: routes of length 2
        and ``1 + w_b``, b's heuristic exact."""
        rm = Roadmap(2)
        rm.add_vertex(np.array([1.0, 1.0]), 0)
        rm.add_vertex(np.array([1.0, -1.0]), 1)
        fr = FrozenRoadmap.from_roadmap(rm)
        return fr, [(0, 1.0), (1, 1.0)], {0: 1.0, 1: w_b}, [0.5, w_b, 0.0, 0.0]

    def _certify(self, w_b, gid):
        fr, start_links, g_back, h = self._two_routes(w_b)
        state = fr._search(h, start_links, None, g_back, -2, gid)
        assert fr._answer(state, -2, gid) == ([-2, 0, gid], 2.0)
        return fr._certified(state, start_links, None, g_back)

    def test_unique_route_is_certified(self):
        assert self._certify(1.5, gid=5)
        assert self._certify(1.5, gid=-1)

    def test_a_tie_still_in_the_heap_fails_check_a(self):
        """With a goal id below b's, the goal pops before b's equal key:
        only the heap shows the tie."""
        assert not self._certify(1.0, gid=-1)

    def test_a_settled_tie_fails_check_b(self):
        """With the goal id largest, b settles first and reaches the goal
        with the answer's length: only the settled neighbours show the tie."""
        assert not self._certify(1.0, gid=5)

    def test_equal_weight_lattice_falls_back(self):
        """Lattice shortest paths have many equal-length twins: the
        certificate must see them and re-run the Euclidean order."""
        side = 7
        fr = FrozenRoadmap.from_roadmap(_lattice(side))
        fr.build_landmarks()
        rows = list(range(fr.num_vertices))
        pairs = 0
        for s in rows[::3]:
            for t in rows[1::4]:
                start, goal = fr.configs[s], fr.configs[t]
                # Zero-weight links onto the lattice point plus its lattice
                # neighbours: ties at the endpoints as well as inside.
                near_s = [r for r in rows if np.abs(fr.configs[r] - start).sum() <= 1]
                near_t = [r for r in rows if np.abs(fr.configs[r] - goal).sum() <= 1]
                served, oracle = _served_and_oracle(
                    fr, start, goal, _links(fr, start, near_s), _links(fr, goal, near_t))
                assert served == oracle
                pairs += 1
        assert 0 < fr.fallbacks <= pairs

    def test_medcube_pool_needs_no_fallback(self):
        """On a served med-cube tenant the certificate holds for every
        query, and the landmark order settles fewer vertices."""
        from repro.planners import QueryEngine
        from repro.spec import WorkloadSpec

        spec = WorkloadSpec("med-cube", "prm", 256, 8, seed=1)
        cs = spec.resolve_cspace()
        eng = QueryEngine(cs, spec.build_workload(cs).roadmap)
        fr = eng.frozen
        rng = np.random.default_rng(1)
        queries = []
        while len(queries) < 60:
            pair = cs.sample(rng, 2)
            if bool(np.all(cs.valid(pair))):
                queries.append((pair[0], pair[1]))
        jobs = [j for j in eng._prepare(np.array([q[0] for q in queries]),
                                        np.array([q[1] for q in queries])) if j]
        fr.build_landmarks()
        settled = {}
        answers = {}
        for landmarks in (False, True):
            before = fr.settled
            answers[landmarks] = [
                fr.astar_virtual(*job[:4], fr.max_id + 1, fr.max_id + 2, landmarks=landmarks)
                for job in jobs
            ]
            settled[landmarks] = fr.settled - before
        assert answers[True] == answers[False]
        assert sum(a is not None for a in answers[True]) > 50
        assert fr.fallbacks == 0
        assert settled[True] < settled[False]


def _tie_prone_case(draw):
    """Small integer-coordinate graphs: zero-weight edges and links, an
    optional direct start-goal edge, several components."""
    n = draw(st.integers(2, 14))
    point = st.tuples(st.integers(0, 3), st.integers(0, 3))
    pts = draw(st.lists(point, min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    start, goal = draw(point), draw(point)
    s_rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    g_rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    direct = draw(st.booleans())
    return pts, edges, start, goal, s_rows, g_rows, direct


try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    _tie_prone = st.composite(_tie_prone_case)
except ImportError:  # pragma: no cover - hypothesis is a test extra
    given = None


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_served_search_equals_oracle_on_tie_prone_graphs():
    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_tie_prone())
    def check(case):
        pts, edges, start, goal, s_rows, g_rows, direct = case
        rm = Roadmap(2)
        for i, p in enumerate(pts):
            rm.add_vertex(np.array(p, dtype=float), i)
        for u, v in edges:
            if u != v and not rm.has_edge(u, v):
                rm.add_edge(u, v)
        fr = FrozenRoadmap.from_roadmap(rm)
        fr.build_landmarks()
        start, goal = np.array(start, dtype=float), np.array(goal, dtype=float)
        g_links = _links(fr, goal, g_rows)
        if direct:
            g_links.insert(0, (fr.num_vertices, float(np.linalg.norm(start - goal))))
        served, oracle = _served_and_oracle(
            fr, start, goal, _links(fr, start, s_rows), g_links)
        assert served == oracle

    check()


# -- a batch's heuristics are prepared in array passes ------------------------


def _batch_case(draw):
    """A multi-component graph (NaN landmark distances) and a batch of
    queries whose link lists are ragged: some link only the direct
    start-goal edge on the goal side, some have no start link."""
    n = draw(st.integers(2, 16))
    point = st.tuples(st.floats(-4, 4, allow_nan=False), st.floats(-4, 4, allow_nan=False))
    pts = draw(st.lists(point, min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    rows = st.lists(st.integers(0, n - 1), max_size=6, unique=True)
    query = st.tuples(point, point, rows, rows, st.booleans())
    return pts, edges, draw(st.lists(query, min_size=1, max_size=6))


if given is not None:
    _batches = st.composite(_batch_case)


@pytest.mark.skipif(given is None, reason="needs hypothesis")
def test_prepared_batch_equals_one_query_at_a_time():
    """``prepare``'s rows are, bit for bit, what each query computes alone
    (``tests/oracle.py::prepared_one``): the Euclidean row, the start-goal
    distance and the ALT bound, with and without a landmark table."""
    from .oracle import prepared_one

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_batches())
    def check(case):
        pts, edges, queries = case
        rm = Roadmap(2)
        for i, p in enumerate(pts):
            rm.add_vertex(np.array(p, dtype=float), i)
        for u, v in edges:
            if u != v and not rm.has_edge(u, v):
                rm.add_edge(u, v)
        fr = FrozenRoadmap.from_roadmap(rm)
        n = fr.num_vertices
        starts = np.array([q[0] for q in queries], dtype=float)
        goals = np.array([q[1] for q in queries], dtype=float)
        links = []
        for (_s, _g, s_rows, g_rows, direct), start, goal in zip(queries, starts, goals):
            g_links = _links(fr, goal, g_rows)
            if direct:
                g_links.insert(len(g_links) // 2, (n, float(np.linalg.norm(start - goal))))
            links.append((_links(fr, start, s_rows), g_links))
        for build in (False, True):
            if build:
                fr.build_landmarks()
            got = fr.prepare(starts, goals, links)
            for (s_links, g_links), start, goal, row in zip(links, starts, goals, got):
                h, alt, d_sg = prepared_one(fr, start, goal, s_links, g_links)
                assert np.array_equal(row.h, h) and row.d_sg == d_sg
                assert (row.alt is None) == (alt is None)
                if alt is not None:
                    assert np.array_equal(row.alt, alt)

    check()


def test_batch_bound_keeps_unreachable_landmarks_out():
    """Two components, so the table holds NaNs: a query across them, one
    inside the start's component and one whose only goal link is the
    direct edge share a batch, and each gets the rows it gets alone."""
    from .oracle import prepared_one

    rm = _line_graph()
    rm.remove_edge(2, 3)
    fr = FrozenRoadmap.from_roadmap(rm)
    fr.build_landmarks()
    assert np.isnan(fr.landmark_table).any()
    start, goal = np.array([-1.0, 0.0]), np.array([5.0, 0.0])
    links = [
        ([(0, 1.0)], [(4, 1.0)]),
        ([(0, 1.0), (1, 2.0)], [(2, 3.0)]),
        ([(0, 1.0)], [(fr.num_vertices, 6.0)]),
    ]
    got = fr.prepare(np.vstack([start] * 3), np.vstack([goal] * 3), links)
    for row, lk in zip(got, links):
        h, alt, d_sg = prepared_one(fr, start, goal, *lk)
        assert np.array_equal(row.h, h) and row.d_sg == d_sg
        assert (row.alt is None) == (alt is None)
        if alt is not None:
            assert np.array_equal(row.alt, alt)
    assert got[1].alt is not None and got[2].alt is None
