"""Tests for the sequential RRT planner."""

import numpy as np
import pytest

from repro.planners import RRT


class TestRRTGrow:
    def test_grows_tree(self, box_cspace, rng):
        res = RRT(box_cspace, step_size=0.5).grow(np.array([-4.0, -4.0]), 100, rng)
        assert res.tree.num_vertices > 50
        # A tree has exactly V-1 edges.
        assert res.tree.num_edges == res.tree.num_vertices - 1

    def test_invalid_root_rejected(self, box_cspace, rng):
        with pytest.raises(ValueError):
            RRT(box_cspace).grow(np.array([0.0, 0.0]), 10, rng)  # inside obstacle

    def test_parents_form_tree_to_root(self, box_cspace, rng):
        res = RRT(box_cspace, step_size=0.5).grow(np.array([-4.0, -4.0]), 60, rng)
        for vid in res.tree.vertices():
            path = [vid]
            while path[-1] != res.root_id:
                path.append(res.parents[path[-1]])
                assert len(path) <= res.tree.num_vertices

    def test_step_size_respected(self, box_cspace, rng):
        step = 0.4
        res = RRT(box_cspace, step_size=step).grow(np.array([-4.0, -4.0]), 80, rng)
        for _u, _v, w in res.tree.edges():
            assert w <= step + 1e-9

    def test_all_nodes_valid(self, box_cspace, rng):
        res = RRT(box_cspace, step_size=0.5).grow(np.array([-4.0, -4.0]), 80, rng)
        _ids, cfgs = res.tree.configs_array()
        assert box_cspace.valid(cfgs).all()

    def test_region_predicate_constrains_growth(self, box_cspace, rng):
        root = np.array([-4.0, -4.0])
        predicate = lambda qs: qs[:, 0] <= -2.0  # stay on the left
        res = RRT(box_cspace, step_size=0.5).grow(
            root, 60, rng, region_predicate=predicate
        )
        _ids, cfgs = res.tree.configs_array()
        assert (cfgs[:, 0] <= -2.0 + 1e-9).all()

    def test_bias_target_pulls_growth(self, box_cspace):
        root = np.array([-4.0, -4.0])
        target = np.array([4.0, -4.0])
        biased = RRT(box_cspace, step_size=0.5, goal_bias=0.6).grow(
            root, 60, np.random.default_rng(1), bias_target=target
        )
        _ids, cfgs = biased.tree.configs_array()
        assert cfgs[:, 0].max() > 0.0  # reached the right half

    def test_extension_validation(self, box_cspace):
        with pytest.raises(ValueError):
            RRT(box_cspace, step_size=0.0)
        with pytest.raises(ValueError):
            RRT(box_cspace, goal_bias=1.5)

    def test_deterministic_given_seed(self, box_cspace):
        r1 = RRT(box_cspace, step_size=0.5).grow(
            np.array([-4.0, -4.0]), 50, np.random.default_rng(3)
        )
        r2 = RRT(box_cspace, step_size=0.5).grow(
            np.array([-4.0, -4.0]), 50, np.random.default_rng(3)
        )
        assert r1.tree.num_vertices == r2.tree.num_vertices
        _i1, c1 = r1.tree.configs_array()
        _i2, c2 = r2.tree.configs_array()
        assert np.allclose(c1, c2)

    def test_max_iterations_caps_work(self, box_cspace, rng):
        # Demand far more nodes than iterations allow.
        res = RRT(box_cspace, step_size=0.3).grow(
            np.array([-4.0, -4.0]), 10_000, rng, max_iterations=50
        )
        assert res.tree.num_vertices <= 51
