"""Tests for configuration spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace, RigidBodyCSpace, box_body_points
from repro.geometry import AABB, Environment


class TestEuclideanCSpace:
    def test_dim_and_bounds(self, box_cspace):
        assert box_cspace.dim == 2
        assert box_cspace.positional_dims == (0, 1)

    def test_negative_radius_rejected(self, box_env):
        with pytest.raises(ValueError):
            EuclideanCSpace(box_env, robot_radius=-1.0)

    def test_valid_matches_environment(self, box_cspace, box_env, rng):
        pts = rng.uniform(-5, 5, size=(128, 2))
        assert np.array_equal(box_cspace.valid(pts), ~box_env.points_in_collision(pts))

    def test_robot_radius_inflates_obstacles(self, box_env):
        cs = EuclideanCSpace(box_env, robot_radius=0.5)
        # Point just outside the bare obstacle but within the inflation.
        assert not cs.valid_single(np.array([1.3, 0.0]))
        assert cs.valid_single(np.array([2.0, 0.0]))
        # Bounds shrink by the radius.
        assert np.allclose(cs.bounds.lo, [-4.5, -4.5])

    def test_inflated_environment_inherits_kernel_backend(self, box_env):
        """The obstacle-inflated check environment runs on the backend the
        caller's environment was configured with, not the default."""
        env = Environment(box_env.bounds, box_env.obstacles, kernel_backend="bvh")
        assert EuclideanCSpace(env)._check_env.kernel_backend.name == "bvh"
        cs = EuclideanCSpace(env, robot_radius=0.5)
        assert cs._check_env is not env
        assert cs._check_env.kernel_backend.name == "bvh"

    def test_distance_scalar_and_batch(self, box_cspace):
        a = np.zeros(2)
        assert box_cspace.distance(a, np.array([3.0, 4.0])) == pytest.approx(5.0)
        d = box_cspace.distance(a, np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert np.allclose(d, [5.0, 1.0])

    def test_interpolate_endpoints(self, box_cspace):
        a, b = np.array([0.0, 0.0]), np.array([2.0, -2.0])
        assert np.allclose(box_cspace.interpolate(a, b, 0.0), a)
        assert np.allclose(box_cspace.interpolate(a, b, 1.0), b)
        mid = box_cspace.interpolate(a, b, 0.5)
        assert np.allclose(mid, [1.0, -1.0])

    def test_interpolate_array_t(self, box_cspace):
        a, b = np.zeros(2), np.array([1.0, 0.0])
        out = box_cspace.interpolate(a, b, np.array([0.25, 0.75]))
        assert out.shape == (2, 2)
        assert np.allclose(out[:, 0], [0.25, 0.75])

    def test_distance_pairs_matches_loop(self, box_cspace, rng):
        A = rng.uniform(-5, 5, (32, 2))
        B = rng.uniform(-5, 5, (32, 2))
        d = box_cspace.distance_pairs(A, B)
        expected = [box_cspace.distance(a, b) for a, b in zip(A, B)]
        assert np.allclose(d, expected)

    def test_interpolate_pairs_matches_loop(self, box_cspace, rng):
        A = rng.uniform(-5, 5, (16, 2))
        B = rng.uniform(-5, 5, (16, 2))
        t = rng.uniform(0, 1, 16)
        out = box_cspace.interpolate_pairs(A, B, t)
        expected = np.stack([box_cspace.interpolate(a, b, ti) for a, b, ti in zip(A, B, t)])
        assert np.allclose(out, expected)

    def test_segment_valid(self, box_cspace):
        assert box_cspace.segment_valid(np.array([-4.0, -4.0]), np.array([4.0, -4.0]))
        assert not box_cspace.segment_valid(np.array([-3.0, 0.0]), np.array([3.0, 0.0]))

    def test_sample_within_region(self, box_cspace, rng):
        region = AABB([-5, -5], [-3, -3])
        pts = box_cspace.sample(rng, 50, within=region)
        assert region.contains(pts).all()


class TestRigidBodyCSpace:
    @pytest.fixture
    def rb2(self, box_env):
        body = box_body_points(np.array([0.4, 0.2]))
        return RigidBodyCSpace(box_env, body, rotation_weight=0.5)

    def test_dof_layout(self, rb2):
        assert rb2.dim == 3
        assert rb2.positional_dims == (0, 1)

    def test_body_too_large_rejected(self):
        env = Environment(AABB([0, 0], [1, 1]), [])
        with pytest.raises(ValueError):
            RigidBodyCSpace(env, box_body_points(np.array([2.0, 2.0])))

    def test_collision_depends_on_rotation(self, box_env):
        # A long thin robot beside the [2,2]x[4,4] obstacle: vertical fits
        # in the gap at x=1.3, horizontal reaches into the obstacle.
        body = box_body_points(np.array([1.2, 0.05]), points_per_edge=5)
        cs = RigidBodyCSpace(box_env, body)
        cfg_vertical = np.array([1.3, 3.0, np.pi / 2])
        cfg_horizontal = np.array([1.3, 3.0, 0.0])
        assert cs.valid_single(cfg_vertical)
        assert not cs.valid_single(cfg_horizontal)

    def test_distance_accounts_for_rotation(self, rb2):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, np.pi])
        assert rb2.distance(a, b) == pytest.approx(0.5 * np.pi)

    def test_distance_wraps_angle(self, rb2):
        a = np.array([0.0, 0.0, np.pi - 0.1])
        b = np.array([0.0, 0.0, -np.pi + 0.1])
        assert rb2.distance(a, b) == pytest.approx(0.5 * 0.2)

    def test_interpolate_wraps_shortest_way(self, rb2):
        a = np.array([0.0, 0.0, np.pi - 0.2])
        b = np.array([0.0, 0.0, -np.pi + 0.2])
        mid = rb2.interpolate(a, b, 0.5)
        assert abs(abs(mid[2]) - np.pi) < 1e-9

    def test_interpolate_pairs_matches_single(self, rb2, rng):
        A = np.column_stack([rng.uniform(-3, 3, (8, 2)), rng.uniform(-np.pi, np.pi, 8)])
        B = np.column_stack([rng.uniform(-3, 3, (8, 2)), rng.uniform(-np.pi, np.pi, 8)])
        t = rng.uniform(0, 1, 8)
        out = rb2.interpolate_pairs(A, B, t)
        for i in range(8):
            assert np.allclose(out[i], rb2.interpolate(A[i], B[i], t[i]))

    def test_distance_pairs_matches_single(self, rb2, rng):
        A = np.column_stack([rng.uniform(-3, 3, (8, 2)), rng.uniform(-np.pi, np.pi, 8)])
        B = np.column_stack([rng.uniform(-3, 3, (8, 2)), rng.uniform(-np.pi, np.pi, 8)])
        d = rb2.distance_pairs(A, B)
        for i in range(8):
            assert d[i] == pytest.approx(rb2.distance(A[i], B[i]))


class TestBoxBodyPoints:
    def test_corners_present(self):
        pts = box_body_points(np.array([1.0, 2.0]))
        assert pts.shape == (4, 2)
        assert {tuple(p) for p in pts} == {(-1, -2), (-1, 2), (1, -2), (1, 2)}

    def test_surface_only(self):
        pts = box_body_points(np.array([1.0, 1.0]), points_per_edge=5)
        on_surface = np.any(np.isclose(np.abs(pts), 1.0), axis=1)
        assert on_surface.all()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t=st.floats(0, 1))
def test_interpolation_distance_is_linear_euclidean(seed, t):
    """Property: d(a, interp(a,b,t)) == t * d(a,b) for the Euclidean space."""
    env = Environment(AABB([-5, -5], [5, 5]), [])
    cs = EuclideanCSpace(env)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
    m = cs.interpolate(a, b, t)
    assert cs.distance(a, m) == pytest.approx(t * cs.distance(a, b), abs=1e-9)
