"""Tests for the sequential PRM planner."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.planners import PRM


class TestPRMBuild:
    def test_builds_requested_samples(self, box_cspace, rng):
        res = PRM(box_cspace, k=4).build(100, rng)
        assert res.roadmap.num_vertices == 100
        assert res.stats.samples_accepted == 100

    def test_all_vertices_valid(self, box_cspace, rng):
        res = PRM(box_cspace, k=4).build(80, rng)
        _ids, cfgs = res.roadmap.configs_array()
        assert box_cspace.valid(cfgs).all()

    def test_all_edges_collision_free(self, box_cspace, rng):
        """Edges are valid at the planner's resolution; the exact swept
        test may reject a few corner-sliver edges (resolution
        completeness, not exactness), so allow a small fraction."""
        res = PRM(box_cspace, k=4).build(60, rng)
        exact_bad = 0
        for u, v, _w in res.roadmap.edges():
            a, b = res.roadmap.config(u), res.roadmap.config(v)
            if not box_cspace.segment_valid(a, b):
                exact_bad += 1
                # Any exact miss must be a thin sliver: both endpoints and
                # the midpoint are free.
                assert box_cspace.valid_single(0.5 * (a + b))
        assert exact_bad <= max(2, res.roadmap.num_edges // 25)

    def test_edge_weights_are_distances(self, box_cspace, rng):
        res = PRM(box_cspace, k=3).build(40, rng)
        for u, v, w in res.roadmap.edges():
            d = box_cspace.distance(res.roadmap.config(u), res.roadmap.config(v))
            assert w == pytest.approx(d)

    def test_id_base_offsets_ids(self, box_cspace, rng):
        res = PRM(box_cspace, k=2).build(10, rng, id_base=1 << 20)
        assert all(v >= (1 << 20) for v in res.roadmap.vertices())

    def test_within_restricts_sampling(self, box_cspace, rng):
        region = AABB([-5, -5], [-2, -2])
        res = PRM(box_cspace, k=3).build(30, rng, within=region)
        _ids, cfgs = res.roadmap.configs_array()
        assert region.contains(cfgs).all()

    def test_extends_existing_roadmap(self, box_cspace, rng):
        planner = PRM(box_cspace, k=3)
        first = planner.build(20, rng)
        second = planner.build(20, rng, roadmap=first.roadmap)
        assert second.roadmap.num_vertices == 40

    def test_deterministic_given_seed(self, box_cspace):
        r1 = PRM(box_cspace, k=4).build(50, np.random.default_rng(9))
        r2 = PRM(box_cspace, k=4).build(50, np.random.default_rng(9))
        ids1, c1 = r1.roadmap.configs_array()
        ids2, c2 = r2.roadmap.configs_array()
        assert np.array_equal(ids1, ids2)
        assert np.allclose(c1, c2)
        assert r1.roadmap.num_edges == r2.roadmap.num_edges

    def test_k_validation(self, box_cspace):
        with pytest.raises(ValueError):
            PRM(box_cspace, k=0)

    def test_stats_account_lp_work(self, box_cspace, rng):
        res = PRM(box_cspace, k=4).build(50, rng)
        st = res.stats
        assert st.lp_calls > 0
        assert st.lp_successes <= st.lp_calls
        assert st.edges_added <= st.lp_successes
        assert st.nn_queries == 50


class TestConnectRoadmaps:
    def _two_regions(self, box_cspace, rng):
        planner = PRM(box_cspace, k=3)
        left = planner.build(25, rng, within=AABB([-5, -5], [-2, 5]), id_base=0)
        right = planner.build(25, rng, within=AABB([2, -5], [5, 5]), id_base=1 << 20)
        left.roadmap.merge(right.roadmap)
        ids, _ = left.roadmap.configs_array()
        ids_a = ids[ids < (1 << 20)]
        ids_b = ids[ids >= (1 << 20)]
        return planner, left.roadmap, ids_a, ids_b

    def test_connects_two_regional_roadmaps(self, box_cspace, rng):
        planner, rmap, ids_a, ids_b = self._two_regions(box_cspace, rng)
        before = rmap.num_edges
        stats = planner.connect_roadmaps(rmap, ids_a, ids_b, k=3)
        assert stats.lp_calls > 0
        cross = [
            (u, v)
            for u, v, _w in rmap.edges()
            if (u < (1 << 20)) != (v < (1 << 20))
        ]
        assert rmap.num_edges >= before
        assert stats.edges_added == len(cross)

    def test_empty_sides_are_noop(self, box_cspace, rng):
        planner, rmap, ids_a, _ = self._two_regions(box_cspace, rng)
        stats = planner.connect_roadmaps(rmap, ids_a, np.empty(0, dtype=np.int64))
        assert stats.lp_calls == 0

