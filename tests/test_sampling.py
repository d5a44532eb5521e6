"""Tests for the uniform rejection sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace, UniformSampler
from repro.geometry import AABB, Environment


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

    def test_one_budget_and_box_per_generator(self, box_cspace):
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError):
            UniformSampler()(box_cspace, rngs, [4, 4])
        with pytest.raises(ValueError):
            UniformSampler()(box_cspace, rngs, 4, within=np.array([[[0, 0], [1, 1]]] * 2))


#: Obstacles [-1, 1]^2 and [2, 4]^2 in [-5, 5]^2 (the ``box_env`` fixture).
_SCENE = Environment(
    AABB([-5.0, -5.0], [5.0, 5.0]), [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])]
)
#: Corner ranges a box of each kind draws its lower and upper corner from.
_KINDS = {
    "free": ((-5.0, -4.0), (-3.5, -2.0)),
    "partly blocked": ((-2.0, -1.5), (0.0, 0.9)),
    "fully blocked": ((-0.9, -0.5), (-0.4, 0.9)),
}


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    segments=st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(sorted(_KINDS))), min_size=1, max_size=8
    ),
    max_rounds=st.integers(1, 8),
    empty_round_limit=st.integers(1, 3),
)
def test_a_block_equals_one_call_per_segment(seed, segments, max_rounds, empty_round_limit):
    """A segmented call returns, bit for bit, what one single-generator
    call per segment returns — configs, attempts and each generator's
    end state — for any budgets (0 included), boxes free, partly or fully
    blocked (so the empty-round limit fires) and 1-8 generators."""
    cspace = EuclideanCSpace(_SCENE)
    sampler = UniformSampler(max_rounds=max_rounds, empty_round_limit=empty_round_limit)
    draw = np.random.default_rng(seed)
    boxes = [
        AABB(*(draw.uniform(*_KINDS[kind][end], size=2) for end in (0, 1)))
        for _, kind in segments
    ]
    need = [n for n, _ in segments]
    keys = draw.integers(0, 2**32, size=len(segments)).tolist()
    alone = [np.random.default_rng(k) for k in keys]
    want = [sampler(cspace, r, n, within=b) for r, n, b in zip(alone, need, boxes)]
    block = [np.random.default_rng(k) for k in keys]
    got = sampler(cspace, block, need, within=np.array([[b.lo, b.hi] for b in boxes]))
    assert len(got) == len(want)
    for g, w, rb, ra in zip(got, want, block, alone):
        assert g.attempts == w.attempts
        assert g.configs.shape == w.configs.shape
        assert g.configs.tobytes() == w.configs.tobytes()
        assert rb.bit_generator.state == ra.bit_generator.state


def test_a_shared_budget_and_box_broadcast(box_cspace):
    box = AABB([-5.0, -5.0], [0.0, 0.0])
    keys = [3, 1, 4]
    got = UniformSampler()(box_cspace, [np.random.default_rng(k) for k in keys], 9, within=box)
    for batch, key in zip(got, keys):
        want = UniformSampler()(box_cspace, np.random.default_rng(key), 9, within=box)
        assert (batch.attempts, batch.configs.tobytes()) == (want.attempts, want.configs.tobytes())
