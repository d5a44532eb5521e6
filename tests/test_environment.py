"""Tests for the workspace environment and collision checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB, Environment, by_name
from repro.geometry import environments as envs

from .oracle import box_obstacle_relation


class TestEnvironmentBasics:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Environment(AABB([0, 0], [1, 1]), [AABB([0, 0, 0], [1, 1, 1])])

    def test_mixed_obstacle_dims_rejected(self):
        with pytest.raises(ValueError):
            Environment(AABB([0, 0, 0], [9, 9, 9]), [AABB([1] * 3, [2] * 3), AABB([1] * 2, [2] * 2)])

    def test_blocked_fraction(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([0, 0], [5, 5])])
        assert env.blocked_fraction() == pytest.approx(0.25)

    def test_free_volume_of_region(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([0, 0], [5, 5])])
        assert env.free_volume(AABB([0, 0], [5, 5])) == 0.0
        assert env.free_volume(AABB([5, 5], [10, 10])) == 25.0
        assert env.free_volume(AABB([0, 0], [10, 10])) == 75.0

    def test_obstacle_volume_clips_to_region(self):
        env = Environment(AABB([0, 0], [10, 10]), [AABB([-5, -5], [5, 5])])
        assert env.obstacle_volume() == pytest.approx(25.0)

    def test_pairwise_overlap_correction(self):
        env = Environment(
            AABB([0, 0], [10, 10]),
            [AABB([0, 0], [4, 4]), AABB([2, 2], [6, 6])],
        )
        # 16 + 16 - 4 overlap = 28.
        assert env.obstacle_volume() == pytest.approx(28.0)


def _build(how, bounds, lo, hi):
    """One environment over the boxes ``lo[i]..hi[i]``, by either constructor."""
    if how == "list":
        return Environment(bounds, [AABB(a, b) for a, b in zip(lo, hi)])
    return Environment.from_arrays(bounds, np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


@pytest.mark.parametrize("how", ["list", "arrays"])
class TestObstacleValidation:
    """Both constructors share one initialiser and refuse what a single
    :class:`AABB` refuses."""

    BOUNDS = AABB([0.0, 0.0, 0.0], [10.0, 10.0, 10.0])

    def test_lo_above_hi_rejected(self, how):
        lo = [[1.0, 1.0, 1.0], [2.0, 5.0, 2.0]]
        hi = [[2.0, 2.0, 2.0], [3.0, 4.0, 3.0]]
        with pytest.raises(ValueError, match="lo > hi"):
            _build(how, self.BOUNDS, lo, hi)

    def test_obstacle_dim_differs_from_bounds(self, how):
        with pytest.raises(ValueError, match="dim"):
            _build(how, self.BOUNDS, [[1.0, 1.0]], [[2.0, 2.0]])

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_row_treated_as_a_single_box_treats_it(self, how, row):
        lo = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
        hi = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]
        (lo if row == 0 else hi)[1][1] = np.nan
        try:
            AABB(lo[1], hi[1])
        except ValueError:
            with pytest.raises(ValueError):
                _build(how, self.BOUNDS, lo, hi)
        else:
            data = _build(how, self.BOUNDS, lo, hi).kernel_data()
            assert data.num_boxes == 2
            assert np.isnan((data.box_lo, data.box_hi)[row][1, 1])

    def test_valid_boxes_accepted_and_listed_on_request(self, how):
        lo = [[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]]
        hi = [[2.0, 2.0, 2.0], [4.0, 6.0, 5.0]]
        env = _build(how, self.BOUNDS, lo, hi)
        assert env._obstacles is None
        assert [(o.lo.tolist(), o.hi.tolist()) for o in env.obstacles] == list(zip(lo, hi))


class TestPointCollision:
    def test_inside_obstacle(self, box_env):
        assert bool(box_env.points_in_collision(np.array([0.0, 0.0])))

    def test_free_point(self, box_env):
        assert not box_env.points_in_collision(np.array([-3.0, -3.0]))

    def test_out_of_bounds_is_collision(self, box_env):
        assert bool(box_env.points_in_collision(np.array([10.0, 0.0])))

    def test_batch_matches_scalar(self, box_env, rng):
        pts = rng.uniform(-6, 6, size=(256, 2))
        batch = box_env.points_in_collision(pts)
        scalar = np.array([bool(box_env.points_in_collision(p)) for p in pts])
        assert np.array_equal(batch, scalar)

    def test_counters_accumulate(self, box_env):
        box_env.counters.reset()
        box_env.points_in_collision(np.zeros((10, 2)))
        assert box_env.counters.point_checks == 10 * box_env.num_obstacles


class TestSegmentCollision:
    @staticmethod
    def _hit(env, p, q) -> bool:
        """One segment through the batched query."""
        (hit,) = env.segments_in_collision(np.array(p, dtype=float), np.array(q, dtype=float))
        return bool(hit)

    def test_segment_through_obstacle(self, box_env):
        assert self._hit(box_env, [-3.0, 0.0], [3.0, 0.0])

    def test_segment_in_free_space(self, box_env):
        assert not self._hit(box_env, [-4.0, -4.0], [4.0, -4.0])

    def test_segment_leaving_bounds(self, box_env):
        assert self._hit(box_env, [-4.0, -4.0], [-7.0, -4.0])

    def test_batch_matches_scalar(self, box_env, rng):
        p = rng.uniform(-5, 5, size=(128, 2))
        q = rng.uniform(-5, 5, size=(128, 2))
        batch = box_env.segments_in_collision(p, q)
        scalar = np.array([self._hit(box_env, a, b) for a, b in zip(p, q)])
        assert np.array_equal(batch, scalar)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_segment_with_colliding_endpoint_collides(self, seed):
        env = Environment(
            AABB([-5.0, -5.0], [5.0, 5.0]),
            [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])],
        )
        rng = np.random.default_rng(seed)
        p = np.array([0.0, 0.0])  # inside the first obstacle
        q = rng.uniform(-5, 5, 2)
        assert self._hit(env, p, q)


class TestRays:
    def test_ray_hits_obstacle(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, 0.0]), np.array([1.0, 0.0]), 100.0)
        assert d == pytest.approx(2.0)

    def test_ray_exits_workspace(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, -3.0]), np.array([-1.0, 0.0]), 100.0)
        assert d == pytest.approx(2.0)

    def test_ray_capped_by_max_dist(self, box_env):
        d = box_env.ray_free_distance(np.array([-3.0, -3.0]), np.array([1.0, 0.0]), 1.5)
        assert d == pytest.approx(1.5)

    def test_zero_direction_raises(self, box_env):
        with pytest.raises(ValueError):
            box_env.ray_free_distance(np.zeros(2), np.zeros(2), 1.0)


class TestBoxObstacleRelation:
    def test_free(self, box_env):
        assert box_obstacle_relation(box_env, AABB([-4, -4], [-3, -3])) == "free"

    def test_blocked(self, box_env):
        assert box_obstacle_relation(box_env, AABB([-0.5, -0.5], [0.5, 0.5])) == "blocked"

    def test_boundary(self, box_env):
        assert box_obstacle_relation(box_env, AABB([0.5, 0.5], [1.5, 1.5])) == "boundary"


class TestBenchmarkEnvironments:
    @pytest.mark.parametrize(
        "name,expected",
        [("med-cube", 0.24), ("small-cube", 0.06), ("free", 0.0)],
    )
    def test_cube_blocked_fractions(self, name, expected):
        env = by_name(name)
        assert env.blocked_fraction() == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("name,target", [("mixed", 0.60), ("mixed-30", 0.30)])
    def test_cluttered_blocked_fractions(self, name, target):
        env = by_name(name)
        assert abs(env.blocked_fraction() - target) < 0.08

    def test_cluttered_obstacles_disjoint(self):
        env = envs.mixed_env()
        obs = env.obstacles
        for i in range(len(obs)):
            for j in range(i + 1, len(obs)):
                assert obs[i].intersection_volume(obs[j]) == 0.0

    def test_model_2d_obstacle_centred(self):
        env = envs.model_2d(0.25)
        ob = env.obstacles[0]
        assert np.allclose(ob.center, env.bounds.center)
        assert env.blocked_fraction() == pytest.approx(0.25)

    def test_walls_leave_a_passage(self):
        env = envs.walls_env()
        # Gaps exist: some x-sweep at the gap heights passes every wall.
        assert env.free_volume() > 0.5 * env.bounds.volume()

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            by_name("no-such-env")

    def test_walls45_differs_from_walls(self):
        a = envs.walls_env()
        b = envs.by_name("walls-45")
        assert a.num_obstacles == b.num_obstacles
        same = all(
            np.allclose(x.lo, y.lo) and np.allclose(x.hi, y.hi)
            for x, y in zip(a.obstacles, b.obstacles)
        )
        assert not same
