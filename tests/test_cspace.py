"""Tests for configuration spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment


class TestEuclideanCSpace:
    def test_dim_and_bounds(self, box_cspace):
        assert box_cspace.dim == 2
        assert box_cspace.bounds is box_cspace.env.bounds

    def test_valid_matches_environment(self, box_cspace, box_env, rng):
        pts = rng.uniform(-5, 5, size=(128, 2))
        assert np.array_equal(box_cspace.valid(pts), ~box_env.points_in_collision(pts))

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


_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(pair=st.integers(1, 12).flatmap(
    lambda d: st.tuples(*[st.lists(_coord, min_size=d, max_size=d)] * 2)))
def test_scalar_distance_is_numpy_norm_to_the_bit(pair):
    """The 1-D ``distance`` is ``np.linalg.norm`` of the difference, bit
    for bit: the exact batched local planner's lengths depend on it."""
    a, b = (np.array(x) for x in pair)
    cs = EuclideanCSpace(Environment(AABB([-1.0] * a.size, [1.0] * a.size), []))
    got = cs.distance(a, b)
    assert type(got) is float
    assert got == float(np.linalg.norm(b - a))
