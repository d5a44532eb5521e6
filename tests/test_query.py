"""Tests for roadmap queries (Dijkstra, A*, start/goal attachment)."""

import numpy as np
import pytest

from repro import WorkloadSpec, plan
from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.planners import PRM, Roadmap, RoadmapQuery, astar, dijkstra

from .oracle import assert_same, digest


def _line_graph():
    rm = Roadmap(2)
    for i in range(5):
        rm.add_vertex(np.array([float(i), 0.0]), i)
    for i in range(4):
        rm.add_edge(i, i + 1)
    return rm


class TestShortestPaths:
    def test_dijkstra_line(self):
        rm = _line_graph()
        path, dist = dijkstra(rm, 0, 4)
        assert path == [0, 1, 2, 3, 4]
        assert dist == pytest.approx(4.0)

    def test_dijkstra_disconnected_returns_none(self):
        rm = _line_graph()
        rm.add_vertex(np.array([10.0, 10.0]), 99)
        assert dijkstra(rm, 0, 99) is None

    def test_dijkstra_missing_vertex_raises(self):
        rm = _line_graph()
        with pytest.raises(KeyError):
            dijkstra(rm, 0, 1234)

    def test_dijkstra_prefers_shortcut(self):
        rm = _line_graph()
        rm.add_edge(0, 4, weight=1.5)
        path, dist = dijkstra(rm, 0, 4)
        assert path == [0, 4]
        assert dist == pytest.approx(1.5)

    def test_astar_matches_dijkstra(self, rng):
        rm = Roadmap(2)
        n = 40
        pts = rng.uniform(-5, 5, size=(n, 2))
        for i, p in enumerate(pts):
            rm.add_vertex(p, i)
        for _ in range(120):
            u, v = rng.integers(0, n, 2)
            if u != v and not rm.has_edge(int(u), int(v)):
                rm.add_edge(int(u), int(v))
        for s, t in [(0, n - 1), (3, 17), (5, 5)]:
            d_res = dijkstra(rm, s, t)
            a_res = astar(rm, s, t)
            if d_res is None:
                assert a_res is None
            else:
                assert a_res[1] == pytest.approx(d_res[1])

    def test_source_equals_target(self):
        rm = _line_graph()
        path, dist = dijkstra(rm, 2, 2)
        assert path == [2] and dist == 0.0


class TestRoadmapQuery:
    def test_solves_across_free_space(self, box_cspace, rng):
        res = PRM(box_cspace, k=6).build(250, rng)
        q = RoadmapQuery(box_cspace)
        out = q.solve(res.roadmap, np.array([-4.5, -4.5]), np.array([4.5, -4.5]))
        assert out is not None
        assert out.length >= 9.0  # at least the straight-line distance
        # Path endpoints are exactly the query configurations.
        assert np.allclose(out.path_configs[0], [-4.5, -4.5])
        assert np.allclose(out.path_configs[-1], [4.5, -4.5])

    def test_roadmap_unchanged_after_query(self, box_cspace, rng):
        res = PRM(box_cspace, k=6).build(200, rng)
        v_before, e_before = res.roadmap.num_vertices, res.roadmap.num_edges
        RoadmapQuery(box_cspace).solve(
            res.roadmap, np.array([-4.5, -4.5]), np.array([4.5, -4.5])
        )
        assert res.roadmap.num_vertices == v_before
        assert res.roadmap.num_edges == e_before

    def test_solve_leaves_components_alone(self):
        """Two disconnected vertices and a start between them: the start's
        links unite them only while the query is solved."""
        cs = EuclideanCSpace(Environment(AABB([-5.0, -5.0], [5.0, 5.0]), []))
        rm = Roadmap(2)
        rm.add_vertices([0, 1], [[1.0, 1.0], [3.0, 1.0]])
        before = digest(rm)
        assert RoadmapQuery(cs).solve(rm, np.array([2.0, 1.0]), np.array([3.0, 2.0]))
        assert rm.connected_components() == [{0}, {1}]
        assert_same(digest(rm), before)

    def test_twenty_solves_leave_a_planned_roadmap_as_it_was(self):
        spec = WorkloadSpec("med-cube", "prm", num_regions=64, samples_per_region=8, seed=3)
        rm, cs = plan(spec).roadmap, spec.resolve_cspace()
        before = digest(rm)
        rng = np.random.default_rng(5)
        solved = [RoadmapQuery(cs).solve(rm, *rng.uniform(cs.bounds.lo, cs.bounds.hi, (2, 3)))
                  for _ in range(20)]
        assert any(solved)
        assert_same(digest(rm), before)

    def test_invalid_start_returns_none(self, box_cspace, rng):
        res = PRM(box_cspace, k=4).build(50, rng)
        q = RoadmapQuery(box_cspace)
        assert q.solve(res.roadmap, np.array([0.0, 0.0]), np.array([4.5, -4.5])) is None

    def test_path_edges_are_valid(self, box_cspace, rng):
        res = PRM(box_cspace, k=6).build(250, rng)
        out = RoadmapQuery(box_cspace).solve(
            res.roadmap, np.array([-4.5, -4.5]), np.array([4.5, 4.5])
        )
        assert out is not None
        for a, b in zip(out.path_configs[:-1], out.path_configs[1:]):
            assert box_cspace.segment_valid(a, b)
