"""Unit tests for geometric primitives."""

import numpy as np
import pytest

from repro.geometry import AABB, Sphere


class TestAABB:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            AABB([1.0, 0.0], [0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            AABB([0.0], [1.0, 1.0])

    def test_volume(self):
        assert AABB([0, 0, 0], [2, 3, 4]).volume() == 24.0

    def test_degenerate_volume_is_zero(self):
        assert AABB([0, 0], [0, 1]).volume() == 0.0

    def test_center_and_extents(self):
        box = AABB([-1, -2], [3, 4])
        assert np.allclose(box.center, [1, 1])
        assert np.allclose(box.extents, [4, 6])

    def test_contains_single_and_batch(self):
        box = AABB([0, 0], [1, 1])
        assert box.contains(np.array([0.5, 0.5]))
        assert not box.contains(np.array([1.5, 0.5]))
        mask = box.contains(np.array([[0.5, 0.5], [2.0, 0.0], [1.0, 1.0]]))
        assert mask.tolist() == [True, False, True]

    def test_boundary_is_inside(self):
        box = AABB([0, 0], [1, 1])
        assert box.contains(np.array([0.0, 1.0]))

    def test_distance_inside_is_zero(self):
        box = AABB([0, 0], [2, 2])
        assert box.distance(np.array([1.0, 1.0])) == 0.0

    def test_distance_outside(self):
        box = AABB([0, 0], [1, 1])
        assert box.distance(np.array([4.0, 5.0])) == pytest.approx(5.0)

    def test_intersects_and_intersection(self):
        a = AABB([0, 0], [2, 2])
        b = AABB([1, 1], [3, 3])
        assert a.intersects(b)
        inter = a.intersection(b)
        assert np.allclose(inter.lo, [1, 1]) and np.allclose(inter.hi, [2, 2])
        assert a.intersection_volume(b) == 1.0

    def test_disjoint_intersection_none(self):
        a = AABB([0, 0], [1, 1])
        b = AABB([2, 2], [3, 3])
        assert not a.intersects(b)
        assert a.intersection(b) is None
        assert a.intersection_volume(b) == 0.0

    def test_touching_boxes_intersect(self):
        a = AABB([0, 0], [1, 1])
        b = AABB([1, 0], [2, 1])
        assert a.intersects(b)
        assert a.intersection_volume(b) == 0.0

    def test_sample_inside(self, rng):
        box = AABB([-1, 2], [0, 5])
        pts = box.sample(rng, 200)
        assert pts.shape == (200, 2)
        assert box.contains(pts).all()


class TestSphere:
    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            Sphere(np.zeros(2), -1.0)

    def test_surface_sample_on_surface(self, rng):
        s = Sphere(np.array([1.0, -2.0, 3.0]), 2.5)
        pts = s.surface_sample(rng, 128)
        assert pts.shape == (128, 3)
        assert np.allclose(np.linalg.norm(pts - s.center, axis=1), 2.5)

    def test_surface_sample_single(self, rng):
        s = Sphere(np.zeros(3), 1.0)
        p = s.surface_sample(rng)
        assert p.shape == (3,)
        assert np.isclose(np.linalg.norm(p), 1.0)
