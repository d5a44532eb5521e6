"""The unit-cube contract of every sampling domain.

A domain ``ConfigurationSpace.sample(within=...)`` accepts — an ``AABB``, or
the ``ConeRegion`` a regional RRT branch draws from — is an elementwise
map of the unit cube: ``from_unit_cube(u)`` maps rows of ``rng.random``
doubles to configurations, and ``sample(rng, n)`` is that map of ``n``
rows.  The batched RRT draws a block's uniforms in one call
and maps them in another (``cspace.sample(unit=...)``), so a mapped block
must be bit for bit what the per-draw calls return.
"""

import numpy as np
import pytest

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.subdivision.radial import RadialSubdivision


def _box(rng: np.random.Generator, d: int) -> AABB:
    """A box anywhere from the origin to 1e12 away, spans from zero to 1e8."""
    centre = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-3, 12, d)
    span = np.where(rng.random(d) < 0.1, 0.0, 10.0 ** rng.uniform(-12, 8, d))
    return AABB(centre - span / 2, centre + span / 2)


def _cone(d: int, rid: int = 2):
    return RadialSubdivision(
        np.full(d, 0.5), 3.0, 8, overlap=0.1, rng=np.random.default_rng(0)
    ).region_of(rid)


class TestAABB:
    def test_mapped_uniforms_equal_rng_uniform(self):
        """``lo + (hi - lo) * u`` is ``rng.uniform(lo, hi)``'s arithmetic:
        300 seeded boxes, single draws and blocks, generators in step."""
        for seed in range(300):
            gen = np.random.default_rng(seed)
            box = _box(gen, int(gen.integers(1, 7)))
            a, b = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            assert np.array_equal(box.from_unit_cube(a.random(box.dim)), b.uniform(box.lo, box.hi))
            block = box.from_unit_cube(a.random((17, box.dim)))
            assert np.array_equal(block, b.uniform(box.lo, box.hi, size=(17, box.dim)))
            assert a.bit_generator.state == b.bit_generator.state

    def test_sample_is_the_map_of_random_rows(self):
        box = AABB([-1e9, 3.0, 0.0], [1e9, 3.0 + 1e-12, 1.0])
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(box.sample(a, 40), box.from_unit_cube(b.random((40, 3))))
        assert np.array_equal(box.sample(a), box.from_unit_cube(b.random(3)))
        assert a.bit_generator.state == b.bit_generator.state

    def test_unit_cube_corners_map_to_box_corners(self):
        box = AABB([-2.0, 5.0], [3.0, 5.0])
        np.testing.assert_array_equal(box.from_unit_cube([0.0, 0.0]), box.lo)
        np.testing.assert_array_equal(box.from_unit_cube([1.0, 1.0]), box.hi)


def _block_equals_singles(domain, dim: int, seed: int, n: int = 300) -> None:
    """A block of ``n`` rows, mapped or drawn, equals ``n`` single draws."""
    u = np.random.default_rng(seed).random((n, dim))
    block = domain.from_unit_cube(u)
    assert block.shape == (n, dim)
    assert np.array_equal(block, np.array([domain.from_unit_cube(row) for row in u]))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = domain.sample(a, n)
    assert np.array_equal(drawn, np.array([domain.sample(b) for _ in range(n)]))
    assert np.array_equal(drawn, block)
    assert a.bit_generator.state == b.bit_generator.state


class TestCones:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rid", [0, 5])
    def test_cone_block_equals_single_draws(self, d, rid):
        _block_equals_singles(_cone(d, rid), d, seed=d * 10 + rid)

class TestConfigurationSpaceUnit:
    @staticmethod
    def _domains(cs):
        d = cs.dim
        return [None, AABB(np.full(d, -1.0), np.full(d, 2.0)), _cone(d)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_unit_rows_equal_a_draw_from_the_same_state(self, d):
        cs = EuclideanCSpace(Environment(AABB(np.full(d, -5.0), np.full(d, 5.0))))
        for k, within in enumerate(self._domains(cs)):
            a, b = np.random.default_rng(k), np.random.default_rng(k)
            expected = cs.sample(a, 25, within=within)
            rows = b.random((25, d))
            before = b.bit_generator.state
            assert np.array_equal(cs.sample(b, within=within, unit=rows), expected)
            assert b.bit_generator.state == before  # the rows were drawn already
            assert a.bit_generator.state == b.bit_generator.state
            single = cs.sample(a, within=within)
            assert np.array_equal(cs.sample(b, within=within, unit=b.random(d)), single)

    def test_unit_is_keyword_only(self, box_cspace):
        with pytest.raises(TypeError):
            box_cspace.sample(np.random.default_rng(0), None, None, np.zeros(2))
