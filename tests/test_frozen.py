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
