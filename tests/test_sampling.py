"""Tests for the uniform rejection sampler."""

import pytest

from repro.cspace import UniformSampler
from repro.geometry import AABB


class TestUniformSampler:
    def test_produces_valid_samples(self, box_cspace, rng):
        batch = UniformSampler()(box_cspace, rng, 64)
        assert len(batch) == 64
        assert box_cspace.valid(batch.configs).all()
        assert batch.attempts >= 64

    def test_respects_region(self, box_cspace, rng):
        region = AABB([-5, -5], [-3, -3])
        batch = UniformSampler()(box_cspace, rng, 32, within=region)
        assert region.contains(batch.configs).all()

    def test_blocked_region_bounded_attempts(self, box_cspace, rng):
        blocked = AABB([-0.9, -0.9], [0.9, 0.9])
        sampler = UniformSampler(empty_round_limit=3)
        batch = sampler(box_cspace, rng, 16, within=blocked)
        assert len(batch) == 0
        assert batch.attempts <= 3 * 16

    def test_invalid_empty_round_limit(self):
        with pytest.raises(ValueError):
            UniformSampler(empty_round_limit=0)
