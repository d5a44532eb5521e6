"""Tests for radial (conical) subdivision."""

import numpy as np
import pytest
from scipy.stats import chi2

from repro.geometry import AABB
from repro.subdivision import RadialSubdivision


class TestRadialSubdivision:
    @pytest.fixture
    def radial(self, rng):
        return RadialSubdivision(np.zeros(3), radius=5.0, num_regions=64, k=4, rng=rng)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadialSubdivision(np.zeros(3), radius=0.0, num_regions=4)
        with pytest.raises(ValueError):
            RadialSubdivision(np.zeros(3), radius=1.0, num_regions=0)
        with pytest.raises(ValueError):
            RadialSubdivision(np.zeros(3), radius=1.0, num_regions=4, k=0)

    def test_targets_on_sphere(self, radial):
        d = np.linalg.norm(radial.targets - radial.root, axis=1)
        assert np.allclose(d, 5.0)

    def test_targets_angularly_sorted(self, radial):
        # Lexicographic ordering of target coordinates.
        t = radial.targets
        keys = [tuple(row) for row in t]
        assert keys == sorted(keys)

    def test_adjacency_degree_at_least_k(self, radial):
        g = radial.graph
        for rid in g.region_ids():
            assert len(g.neighbors(rid)) >= radial.k

    def test_locate_returns_nearest_cone(self, radial, rng):
        for _ in range(50):
            p = rng.normal(size=3)
            p = 3.0 * p / np.linalg.norm(p)
            rid = radial.locate(p)
            region = radial.region_of(rid)
            angle = region.angle_to(p)
            # No other region has a strictly smaller angle.
            for other in radial.graph.region_ids():
                assert angle <= radial.region_of(other).angle_to(p) + 1e-9

    def test_locate_root_is_defined(self, radial):
        assert 0 <= radial.locate(np.zeros(3)) < radial.num_regions

    def test_region_contains_respects_radius(self, radial):
        region = radial.region_of(0)
        direction = region.direction
        assert region.contains(radial.root + 2.0 * direction)
        assert not region.contains(radial.root + 10.0 * direction)

    def test_overlap_widens_cones(self, rng):
        tight = RadialSubdivision(np.zeros(2), 5.0, 16, overlap=0.0, rng=np.random.default_rng(1))
        wide = RadialSubdivision(np.zeros(2), 5.0, 16, overlap=0.5, rng=np.random.default_rng(1))
        hits_tight = 0
        hits_wide = 0
        for _ in range(200):
            p = rng.normal(size=2)
            p = 3.0 * p / np.linalg.norm(p)
            hits_tight += sum(
                tight.region_of(r).contains(p) for r in tight.graph.region_ids()
            )
            hits_wide += sum(
                wide.region_of(r).contains(p) for r in wide.graph.region_ids()
            )
        assert hits_wide > hits_tight

    def test_single_region(self):
        radial = RadialSubdivision(np.zeros(2), 1.0, 1, rng=np.random.default_rng(0))
        assert radial.num_regions == 1
        assert radial.graph.num_adjacencies == 0

    def test_contains_is_the_angle_and_radius_test(self, radial, rng):
        region = radial.region_of(3)
        for _ in range(200):
            p = rng.normal(size=3) * 3.0
            expected = (
                np.linalg.norm(p) <= region.radius
                and region.angle_to(p) <= region.half_angle + region.overlap
            )
            assert region.contains(p) == expected

    def test_direction_is_the_normalised_ray(self, radial):
        for rid in radial.graph.region_ids():
            region = radial.region_of(rid)
            d = region.target - region.root
            assert np.array_equal(region.direction, d / np.linalg.norm(d))

    def test_deterministic_given_rng(self):
        a = RadialSubdivision(np.zeros(3), 5.0, 32, rng=np.random.default_rng(7))
        b = RadialSubdivision(np.zeros(3), 5.0, 32, rng=np.random.default_rng(7))
        assert np.allclose(a.targets, b.targets)


def _chi_square_ok(values, edges, cdf, n):
    """Pearson chi-square of ``values`` binned at ``edges`` against the
    cumulative distribution ``cdf``, at the 0.1 % level (seeds are fixed,
    so this is a deterministic check, not a flaky one)."""
    observed, _ = np.histogram(values, bins=edges)
    assert observed.sum() == n  # no draw outside the support
    expected = n * np.diff(cdf(edges))
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return stat < chi2.ppf(0.999, len(expected) - 1)


class TestConeSampling:
    """``ConeRegion.sample`` is uniform over the cone ∩ ball."""

    N = 20_000
    BINS = 20

    # 1,024 regions: a narrow cone; 8: the benchmark's; 2: wider than
    # pi/2, so not convex; 1: half-angle pi, the whole ball.
    @pytest.mark.parametrize("num_regions", [1024, 8, 2, 1])
    @pytest.mark.parametrize("d", [2, 3])
    def test_uniform_over_cone_and_ball(self, d, num_regions):
        radial = RadialSubdivision(
            np.full(d, 1.5), 4.0, num_regions, overlap=0.1, rng=np.random.default_rng(5)
        )
        region = radial.region_of(num_regions // 2)
        cap = min(region.half_angle + region.overlap, np.pi)
        assert (cap > np.pi / 2) == (num_regions <= 2)
        pts = region.sample(np.random.default_rng(d * 10_000 + num_regions), self.N)
        assert pts.shape == (self.N, d)
        assert region.contains_many(pts).all()

        v = pts - region.root
        r = np.linalg.norm(v, axis=1)
        polar = np.arccos(np.clip((v / r[:, None]) @ region.direction, -1.0, 1.0))
        # Polar angle against the cap density: flat in 2-D, sin(theta) in 3-D.
        if d == 2:
            def angle_cdf(t):
                return t / cap
        else:
            def angle_cdf(t):
                return (1.0 - np.cos(t)) / (1.0 - np.cos(cap))
        assert _chi_square_ok(polar, np.linspace(0.0, cap, self.BINS + 1), angle_cdf, self.N)
        # Radius against r^d.
        assert _chi_square_ok(
            r, np.linspace(0.0, region.radius, self.BINS + 1),
            lambda x: (x / region.radius) ** d, self.N,
        )
        if d == 2:
            # Both sides of the ray are equally likely.
            dx, dy = region.direction
            left = np.sum(dx * v[:, 1] - dy * v[:, 0] > 0)
            assert abs(left - self.N / 2) < 4 * np.sqrt(self.N / 4)
        else:
            # The azimuth around the ray is uniform.
            _e0, e1, e2 = region._frame
            azimuth = np.arctan2(v @ e2, v @ e1)
            assert _chi_square_ok(
                azimuth, np.linspace(-np.pi, np.pi, self.BINS + 1),
                lambda a: (a + np.pi) / (2 * np.pi), self.N,
            )

    @pytest.mark.parametrize("d", [2, 3])
    def test_shapes_and_stream_match_aabb_sample(self, d):
        """The ``within=`` protocol: ``(d,)`` for one draw, ``(n, d)`` for a
        block, and a block is bit for bit the ``n`` single draws."""
        region = RadialSubdivision(
            np.zeros(d), 3.0, 8, overlap=0.1, rng=np.random.default_rng(0)
        ).region_of(2)
        box = AABB(-np.ones(d), np.ones(d))
        for domain in (box, region):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            block = domain.sample(a, 300)
            singles = [domain.sample(b) for _ in range(300)]
            assert block.shape == (300, d) and singles[0].shape == (d,)
            assert np.array_equal(block, np.array(singles))
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("d", [1, 4])
    def test_unsupported_dimension_raises(self, d):
        """No silent fall-back to whole-space draws."""
        region = RadialSubdivision(
            np.zeros(d), 2.0, 4, rng=np.random.default_rng(0)
        ).region_of(0)
        assert region.contains(0.5 * (region.root + region.target))  # the cone itself works
        with pytest.raises(ValueError, match="2 or 3 positional dimensions"):
            region.sample(np.random.default_rng(0))
        with pytest.raises(ValueError, match="2 or 3 positional dimensions"):
            region.sample(np.random.default_rng(0), 5)
