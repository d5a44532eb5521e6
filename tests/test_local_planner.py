"""Tests for the straight-line local planner (single and batched)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cspace import EuclideanCSpace, StraightLinePlanner
from repro.geometry import AABB, Environment


class TestStraightLinePlanner:
    def test_valid_free_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        res = lp(box_cspace, np.array([-4.0, -4.0]), np.array([4.0, -4.0]))
        assert res.valid
        assert res.length == pytest.approx(8.0)
        assert res.checks > 0

    def test_blocked_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        res = lp(box_cspace, np.array([-3.0, 0.0]), np.array([3.0, 0.0]))
        assert not res.valid

    def test_zero_length_segment(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.1)
        a = np.array([-4.0, -4.0])
        res = lp(box_cspace, a, a)
        assert res.valid and res.checks == 0 and res.length == 0.0

    def test_short_segment_no_checks(self, box_cspace):
        lp = StraightLinePlanner(resolution=1.0)
        res = lp(box_cspace, np.array([-4.0, -4.0]), np.array([-3.5, -4.0]))
        assert res.valid and res.checks == 0

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            StraightLinePlanner(resolution=0.0)

    def test_batch_matches_single(self, box_cspace, rng):
        lp = StraightLinePlanner(resolution=0.2)
        starts = rng.uniform(-4.5, 4.5, (64, 2))
        ends = rng.uniform(-4.5, 4.5, (64, 2))
        ok, checks, lengths = lp.batch_pairs(box_cspace, starts, ends)
        singles = [lp(box_cspace, a, b) for a, b in zip(starts, ends)]
        assert np.array_equal(ok, [s.valid for s in singles])
        assert checks == sum(s.checks for s in singles)
        assert np.allclose(lengths, [s.length for s in singles])

    def test_batch_empty_total(self, box_cspace):
        lp = StraightLinePlanner(resolution=10.0)
        starts = np.array([[-4.0, -4.0]])
        ends = np.array([[-3.9, -4.0]])
        ok, checks, lengths = lp.batch_pairs(box_cspace, starts, ends)
        assert ok.all() and checks == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_exact_segment_check_implies_lp_verdict(seed):
    """Property: if the exact swept test says free, the sampled local
    planner must also say free (its checks are a subset of the segment)."""
    from repro.cspace import EuclideanCSpace
    from repro.geometry import AABB, Environment

    env = Environment(
        AABB([-5.0, -5.0], [5.0, 5.0]),
        [AABB([-1.0, -1.0], [1.0, 1.0]), AABB([2.0, 2.0], [4.0, 4.0])],
    )
    cspace = EuclideanCSpace(env)
    rng = np.random.default_rng(seed)
    lp = StraightLinePlanner(resolution=0.1)
    a = rng.uniform(-4.5, 4.5, 2)
    b = rng.uniform(-4.5, 4.5, 2)
    exact_free = not env.segments_in_collision(a[None], b[None])[0]
    if exact_free:
        assert lp(cspace, a, b).valid


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 7), seed=st.integers(0, 2**31 - 1))
def test_exact_twin_equals_the_scalar_loop(dim, seed):
    """Property: ``batch_pairs_exact``'s verdicts, per-segment check counts
    and lengths are the scalar planner's, bit for bit, below 8 dimensions:
    on random segments, on segments a whole number of resolution steps
    long (an RRT extension of ``step_size``, whose computed length sits on
    a ``ceil`` boundary) and on zero-length ones."""
    cspace = EuclideanCSpace(Environment(AABB([-5.0] * dim, [5.0] * dim),
                                         [AABB([-1.0] * dim, [1.0] * dim)]))
    lp = StraightLinePlanner(resolution=0.25)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(-4.5, 4.5, (48, dim))
    ends = rng.uniform(-4.5, 4.5, (48, dim))
    # Rows 16-31 are steered as RRT.grow steers: k resolution steps toward
    # the draw; rows 32-39 have zero length.
    for i, k in zip(range(16, 32), rng.integers(1, 9, 16).tolist()):
        t = min(k * lp.resolution / cspace.distance(starts[i], ends[i]), 1.0)
        ends[i] = cspace.interpolate(starts[i], ends[i], t)
    ends[32:40] = starts[32:40]
    ok, checks, lengths = lp.batch_pairs_exact(cspace, starts, ends)
    singles = [lp(cspace, a, b) for a, b in zip(starts, ends)]
    assert ok.tolist() == [s.valid for s in singles]
    assert checks.tolist() == [s.checks for s in singles]
    assert lengths.tolist() == [s.length for s in singles]


class TestBatchPairsChunked:
    def test_same_verdicts_fewer_checks(self, box_cspace, rng):
        lp = StraightLinePlanner(resolution=0.25)
        starts = rng.uniform(-5, 5, size=(60, 2))
        ends = rng.uniform(-5, 5, size=(60, 2))
        ok_full, checks_full, len_full = lp.batch_pairs(box_cspace, starts, ends)
        ok_ff, checks_ff, len_ff = lp.batch_pairs_chunked(box_cspace, starts, ends, chunk=4)
        np.testing.assert_array_equal(ok_full, ok_ff)
        np.testing.assert_allclose(len_full, len_ff)
        assert checks_ff <= checks_full
        # The fixture environment blocks some of these segments, so the
        # fail-fast variant must actually save work here.
        assert not ok_full.all()
        assert checks_ff < checks_full

    def test_identical_on_all_free(self, box_cspace):
        lp = StraightLinePlanner(resolution=0.25)
        starts = np.full((5, 2), -4.5) + np.arange(5)[:, None] * 0.01
        ends = starts + [[0.3, 0.0]] * 5
        ok_full, checks_full, _ = lp.batch_pairs(box_cspace, starts, ends)
        ok_ff, checks_ff, _ = lp.batch_pairs_chunked(box_cspace, starts, ends)
        assert ok_full.all() and ok_ff.all()
        assert checks_full == checks_ff
