"""Differential property battery for the BVH and the ``bvh`` backend.

The ``bvh`` backend's contract is **bit-exact** equality with
``reference``, because the tree only culls and the leaves run the
reference expressions verbatim.  Every test here asserts
``np.testing.assert_array_equal`` on verdicts, never a tolerance.

``hypothesis`` drives the world generators when installed; otherwise a
seeded stdlib-``random`` sweep covers the same shapes (same pattern as
``tests/test_properties.py``).
"""

import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.geometry import AABB, Environment
from repro.geometry.bvh import BVH
from repro.geometry.scenarios import shelf_warehouse
from repro.kernels import BACKENDS, EnvKernelData, get_backend
from repro.kernels.bvh_backend import _CACHE_ATTR, BVHKernels
from repro.kernels.reference import (
    point_in_box,
    points_hit_boxes,
    segment_hits_box,
    segments_hit_boxes,
)
from repro.spec import ExecutionPolicy, WorkloadSpec

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FALLBACK_EXAMPLES = 25

REF = get_backend("reference")
BVH_K = get_backend("bvh")


def property_test(strategy_builder, fallback_gen, examples=50):
    """Hypothesis ``@given`` when available, seeded sweep otherwise."""

    def deco(fn):
        if HAVE_HYPOTHESIS:
            return settings(max_examples=examples, deadline=None)(
                given(strategy_builder())(fn)
            )

        def runner():
            for seed in range(min(examples, FALLBACK_EXAMPLES)):
                fn(fallback_gen(random.Random(seed)))

        runner.__name__ = fn.__name__
        runner.__doc__ = fn.__doc__
        return runner

    return deco


# -- world generation -------------------------------------------------------


def _world_from_script(script):
    """Build (EnvKernelData, points, segment endpoints) from a seed script.

    ``script`` is ``(seed, n_boxes, dim)``; all geometry is
    derived from one ``default_rng(seed)`` stream so hypothesis shrinks
    over a tiny tuple instead of raw float arrays.
    """
    seed, n_boxes, dim = script
    rng = np.random.default_rng(seed)
    half = 10.0
    center = rng.uniform(-half, half, size=(n_boxes, dim))
    ext = rng.uniform(0.0, 2.5, size=(n_boxes, dim))  # may be zero-volume
    box_lo = center - 0.5 * ext
    box_hi = center + 0.5 * ext
    data = EnvKernelData(
        bounds_lo=-half * np.ones(dim),
        bounds_hi=half * np.ones(dim),
        box_lo=box_lo,
        box_hi=box_hi,
    )
    pts = rng.uniform(-half * 1.05, half * 1.05, size=(64, dim))
    p = rng.uniform(-half, half, size=(48, dim))
    q = rng.uniform(-half, half, size=(48, dim))
    # Mix in degenerate segments: zero-length and axis-parallel.
    q[:8] = p[:8]
    q[8:16, 0] = p[8:16, 0]
    return data, pts, p, q


def _script_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=60),
        st.sampled_from([2, 3, 4]),
    )


def _script_fallback(r: random.Random):
    return (r.randrange(2**31), r.randint(0, 60), r.choice([2, 3, 4]))


def _assert_world_parity(script):
    data, pts, p, q = _world_from_script(script)
    np.testing.assert_array_equal(
        BVH_K.points_free(data, pts), REF.points_free(data, pts)
    )
    np.testing.assert_array_equal(
        BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
    )


# -- the differential battery ----------------------------------------------


@property_test(_script_strategy, _script_fallback, examples=60)
def test_random_worlds_bit_exact(script):
    _assert_world_parity(script)


class TestDifferentialParity:
    # 20000 is the obstacle count the ``prm_warehouse_process`` e2e workload runs.
    @pytest.mark.parametrize("n", [1000, 5000, 20000])
    def test_warehouse_scenario_bit_exact(self, n):
        env = shelf_warehouse(n, seed=1)
        data = env.kernel_data()
        rng = np.random.default_rng(2)
        pts = rng.uniform(-10.5, 10.5, size=(300, 3))
        p = rng.uniform(-10, 10, size=(150, 3))
        q = rng.uniform(-10, 10, size=(150, 3))
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        # The reference slab test materialises (segments, n, 3) temporaries;
        # rows are independent, so it is asked in slices to bound them at 20k.
        ref_segments = np.concatenate(
            [REF.segments_free(data, p[i:i + 25], q[i:i + 25]) for i in range(0, len(p), 25)]
        )
        np.testing.assert_array_equal(BVH_K.segments_free(data, p, q), ref_segments)

    def test_distance_primitives_delegate_to_reference(self):
        rng = np.random.default_rng(4)
        stored = rng.normal(size=(30, 3))
        queries = rng.normal(size=(10, 3))
        out_b = np.empty((10, 30))
        out_r = np.empty((10, 30))
        BVH_K.pairwise_accumulate(stored, queries, out_b)
        REF.pairwise_accumulate(stored, queries, out_r)
        np.testing.assert_array_equal(out_b, out_r)
        ib, db = BVH_K.knn_block_min(stored, queries, 5)
        ir, dr = REF.knn_block_min(stored, queries, 5)
        np.testing.assert_array_equal(ib, ir)
        np.testing.assert_array_equal(db, dr)


# -- degenerate cases -------------------------------------------------------


def _box_world(box_lo, box_hi, half=10.0):
    lo = np.atleast_2d(np.asarray(box_lo, dtype=float))
    dim = lo.shape[1]
    return EnvKernelData(
        bounds_lo=-half * np.ones(dim),
        bounds_hi=half * np.ones(dim),
        box_lo=lo,
        box_hi=np.atleast_2d(np.asarray(box_hi, dtype=float)),
    )


class TestDegenerateCases:
    def test_zero_obstacles(self):
        data = EnvKernelData(
            bounds_lo=np.zeros(3) - 10, bounds_hi=np.zeros(3) + 10
        )
        pts = np.array([[0.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        assert bool(BVH_K.points_free(data, pts)[0]) is True
        p = np.array([[0.0, 0.0, 0.0]])
        q = np.array([[1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), [True]
        )

    def test_fully_overlapping_boxes(self):
        """Identical centroids must not degenerate the tree or the verdicts."""
        n = 100
        lo = np.tile([-1.0, -1.0, -1.0], (n, 1))
        hi = np.tile([1.0, 1.0, 1.0], (n, 1))
        data = _box_world(lo, hi)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(100, 3))
        p = rng.uniform(-3, 3, size=(60, 3))
        q = rng.uniform(-3, 3, size=(60, 3))
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_zero_volume_boxes(self):
        """Planes/lines/points as obstacles: lo == hi on some axes."""
        lo = np.array([[0.0, -5.0, -5.0], [2.0, 2.0, 2.0], [-5.0, 0.0, -5.0]])
        hi = np.array([[0.0, 5.0, 5.0], [2.0, 2.0, 2.0], [5.0, 0.0, 5.0]])
        data = _box_world(lo, hi)
        pts = np.array(
            [[0.0, 0.0, 0.0], [2.0, 2.0, 2.0], [1.0, 1.0, 1.0], [0.0, 6.0, 0.0]]
        )
        np.testing.assert_array_equal(
            BVH_K.points_free(data, pts), REF.points_free(data, pts)
        )
        # Segments crossing / lying in the zero-thickness plane.
        p = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [3.0, 3.0, 3.0]])
        q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [4.0, 4.0, 4.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, q), REF.segments_free(data, p, q)
        )

    def test_segments_grazing_aabb_faces(self):
        """Segments exactly on faces/edges/corners of the box: the most
        boundary-sensitive inputs there are — still bit-exact."""
        data = _box_world([[-1.0, -1.0, -1.0]], [[1.0, 1.0, 1.0]])
        cases_p = np.array(
            [
                [-2.0, 1.0, 0.0],  # slides along the y=+1 face
                [-2.0, -1.0, -1.0],  # slides along an edge
                [1.0, 1.0, 1.0],  # starts exactly at a corner
                [-2.0, 1.0 + 1e-15, 0.0],  # epsilon above the face
                [-2.0, -2.0, -2.0],  # diagonal through the corner
                [1.0, -2.0, 0.0],  # lies in the x=+1 face plane
            ]
        )
        cases_q = np.array(
            [
                [2.0, 1.0, 0.0],
                [2.0, -1.0, -1.0],
                [2.0, 2.0, 2.0],
                [2.0, 1.0 + 1e-15, 0.0],
                [0.0, 0.0, 0.0],
                [1.0, 2.0, 0.0],
            ]
        )
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, cases_p, cases_q),
            REF.segments_free(data, cases_p, cases_q),
        )

    def test_zero_length_segments(self):
        data = _box_world([[-1.0, -1.0, -1.0]], [[1.0, 1.0, 1.0]])
        p = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(
            BVH_K.segments_free(data, p, p), REF.segments_free(data, p, p)
        )

    def test_single_obstacle(self):
        data = _box_world([[0.0, 0.0]], [[1.0, 1.0]])
        pts = np.array([[0.5, 0.5], [2.0, 2.0]])
        np.testing.assert_array_equal(BVH_K.points_free(data, pts), [False, True])


# -- frontier traversal: parity at the shapes a level-synchronous walk can get wrong --


def _assert_tree_parity(tree, lo, hi, pts, p, q):
    """The tree's verdicts equal the all-pairs reference scan, exactly."""
    np.testing.assert_array_equal(
        tree.points_hit(pts, point_in_box), points_hit_boxes(lo, hi, pts)
    )
    np.testing.assert_array_equal(
        tree.segments_hit(p, q, segment_hits_box), segments_hit_boxes(lo, hi, p, q)
    )


@pytest.fixture(scope="module")
def warehouse_20k():
    """The scene the ``prm_warehouse_process`` workload plans in, and its tree."""
    env = shelf_warehouse(20000, seed=1)
    return env, BVH(env._obs_lo, env._obs_hi)


class TestFrontierParity:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("leaf_size", [1, 8, 64])  # 64 >= n: the root is the one leaf
    def test_leaf_sizes_and_dims(self, leaf_size, dim):
        for seed in range(6):
            data, pts, p, q = _world_from_script((seed, 50, dim))
            tree = BVH(data.box_lo, data.box_hi, leaf_size=leaf_size)
            assert (tree.num_nodes == 1) == (leaf_size == 64)
            _assert_tree_parity(tree, data.box_lo, data.box_hi, pts, p, q)

    def test_one_query_and_duplicated_queries(self):
        data, pts, p, q = _world_from_script((11, 60, 3))
        tree = BVH(data.box_lo, data.box_hi, leaf_size=2)
        lo, hi = data.box_lo, data.box_hi
        inside = 0.5 * (lo[17] + hi[17])  # a certain hit
        for one in (inside, pts[0]):
            _assert_tree_parity(tree, lo, hi, one[None, :], one[None, :], q[:1])
        # The same query many times over, hits and misses interleaved: a hit
        # must retire only its own frontier rows.
        dup = np.tile(np.stack([inside, pts[0], pts[1]]), (40, 1))
        _assert_tree_parity(tree, lo, hi, dup, dup, np.tile(q[:3], (40, 1)))
        assert tree.points_hit(dup, point_in_box)[::3].all()

    def test_points_on_faces_and_outside_root(self):
        rng = np.random.default_rng(12)
        lo = rng.uniform(-5, 5, size=(40, 3))
        hi = lo + rng.uniform(0.5, 2, size=(40, 3))
        tree = BVH(lo, hi, leaf_size=2)
        center = 0.5 * (lo + hi)
        on_lo_face, on_hi_face, corner = center.copy(), center.copy(), hi.copy()
        on_lo_face[:, 0] = lo[:, 0]
        on_hi_face[:, 1] = hi[:, 1]
        root_lo, root_hi = lo.min(axis=0), hi.max(axis=0)
        outside = np.array([root_lo - 1.0, root_hi + 1.0, [root_hi[0] + 1e-3, 0.0, 0.0]])
        just_off = np.nextafter(corner, np.inf)  # one ulp past the corner, on every axis
        pts = np.concatenate([on_lo_face, on_hi_face, corner, outside, just_off])
        got = tree.points_hit(pts, point_in_box)
        np.testing.assert_array_equal(got, points_hit_boxes(lo, hi, pts))
        assert got[:120].all()  # faces and corners are inclusive
        assert not got[120:123].any()

    def test_large_batch_keeps_frontier_linear(self, warehouse_20k):
        """50k points: the frontier holds a few index pairs and gathered
        rows per query, never a (queries x nodes) or (queries x boxes) table."""
        env, tree = warehouse_20k
        rng = np.random.default_rng(13)
        pts = rng.uniform(env.bounds.lo, env.bounds.hi, size=(50_000, 3))
        tracemalloc.start()
        try:
            got = tree.points_hit(pts, point_in_box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A third of a KiB per query measured; a dense table is 8 KiB (nodes) or
        # 20 KiB (boxes) per query even as single bytes.
        assert peak < 1024 * pts.shape[0]
        sample = slice(0, 50_000, 97)
        np.testing.assert_array_equal(
            got[sample], points_hit_boxes(env._obs_lo, env._obs_hi, pts[sample])
        )

    def test_segment_over_many_leaves_hits_only_the_last(self):
        """A long segment overlaps every leaf's node box but touches only
        the far box: it must stay on the frontier through every miss."""
        n = 64
        x = np.arange(n, dtype=float)
        lo = np.stack([x, np.zeros(n), np.zeros(n)], axis=1)
        hi = np.stack([x + 0.5, np.ones(n), np.ones(n)], axis=1)
        hi[-1, 2] = 3.0  # only the last box is tall enough
        tree = BVH(lo, hi, leaf_size=1)
        p = np.array([[-1.0, 0.5, 2.0], [-1.0, 0.5, 3.5], [n + 1.0, 0.5, 2.0]])
        q = np.array([[n + 1.0, 0.5, 2.0], [n + 1.0, 0.5, 3.5], [-1.0, 0.5, 2.0]])
        got = tree.segments_hit(p, q, segment_hits_box)
        np.testing.assert_array_equal(got, segments_hit_boxes(lo, hi, p, q))
        np.testing.assert_array_equal(got, [True, False, True])

    def test_degenerate_segments_through_internal_nodes(self):
        """Zero-length and axis-parallel segments (a zero direction
        component on one or two axes) against a deep tree."""
        rng = np.random.default_rng(14)
        lo = rng.uniform(-8, 8, size=(300, 3))
        hi = lo + rng.uniform(0.0, 1.5, size=(300, 3))
        tree = BVH(lo, hi, leaf_size=1)
        assert _depth(tree) >= 9
        p = rng.uniform(-9, 9, size=(240, 3))
        q = rng.uniform(-9, 9, size=(240, 3))
        q[:60] = p[:60]  # zero-length, some of them inside boxes
        p[:20] = q[:20] = 0.5 * (lo[:20] + hi[:20])
        q[60:120, 0] = p[60:120, 0]  # parallel to the yz-plane
        q[120:180, :2] = p[120:180, :2]  # parallel to the z-axis
        p[180:200, 1] = q[180:200, 1] = hi[:20, 1]  # sliding along a face plane
        np.testing.assert_array_equal(
            tree.segments_hit(p, q, segment_hits_box), segments_hit_boxes(lo, hi, p, q)
        )


# -- tree structure ---------------------------------------------------------


def _depth(tree: BVH) -> int:
    depth = {0: 1}
    best = 0
    for ni in range(tree.num_nodes):
        d = depth[ni]
        best = max(best, d)
        left = int(tree.node_left[ni])
        if left >= 0:
            depth[left] = depth[left + 1] = d + 1
    return best


class TestTreeStructure:
    def test_empty_tree(self):
        tree = BVH(np.empty((0, 3)), np.empty((0, 3)))
        assert tree.num_nodes == 0
        assert tree.nbytes == 0
        assert not tree.points_hit(np.zeros((4, 3)), None).any()
        assert not tree.segments_hit(np.zeros((4, 3)), np.ones((4, 3)), None).any()

    def test_prim_index_is_permutation(self):
        rng = np.random.default_rng(6)
        lo = rng.uniform(-5, 5, size=(137, 3))
        hi = lo + rng.uniform(0, 1, size=(137, 3))
        tree = BVH(lo, hi)
        assert sorted(tree.prim_index.tolist()) == list(range(137))

    def test_leaves_partition_primitives(self):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-5, 5, size=(200, 3))
        hi = lo + 0.5
        tree = BVH(lo, hi, leaf_size=4)
        leaves = tree.node_left < 0
        assert tree.node_count[leaves].sum() == 200
        assert np.all(tree.node_count[leaves] <= 4)
        assert np.all(tree.node_count[~leaves] == 0)

    def test_identical_centroids_stay_balanced(self):
        """Median-by-count split: 1024 coincident boxes -> O(log n) depth."""
        n = 1024
        lo = np.zeros((n, 3))
        hi = np.ones((n, 3))
        tree = BVH(lo, hi, leaf_size=8)
        assert _depth(tree) <= 12  # perfectly balanced is ceil(log2(1024/8))+1 = 8

    def test_node_boxes_contain_primitives(self):
        rng = np.random.default_rng(8)
        lo = rng.uniform(-5, 5, size=(64, 2))
        hi = lo + rng.uniform(0, 2, size=(64, 2))
        tree = BVH(lo, hi, leaf_size=2)
        # Root box contains everything (inflated, so strict containment).
        assert np.all(tree.node_lo[0] <= lo.min(axis=0))
        assert np.all(tree.node_hi[0] >= hi.max(axis=0))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            BVH(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(ValueError, match="leaf_size"):
            BVH(np.zeros((3, 2)), np.ones((3, 2)), leaf_size=0)


def _assert_build_invariants(tree: BVH, lo: np.ndarray, hi: np.ndarray):
    n, ids = tree.num_prims, np.arange(tree.num_nodes)
    internal = tree.node_left >= 0
    left = tree.node_left[internal]
    # Breadth-first: parents precede children, children sit side by side,
    # and every node but the root is somebody's child exactly once.
    assert np.all(left > ids[internal])
    np.testing.assert_array_equal(
        np.sort(np.concatenate([left, left + 1])), np.arange(1, tree.num_nodes)
    )
    # Leaves partition ``prim_index`` into contiguous, disjoint slices.
    start, count = tree.node_start[~internal], tree.node_count[~internal]
    by_start = np.argsort(start)
    np.testing.assert_array_equal(start[by_start], np.cumsum(count[by_start]) - count[by_start])
    assert count.sum() == n and np.all(count >= 1) and np.all(count <= tree.leaf_size)
    assert np.all(tree.node_count[internal] == 0)
    np.testing.assert_array_equal(np.sort(tree.prim_index), np.arange(n))
    # The leaf-ordered copies are the primitives, in ``prim_index`` order.
    np.testing.assert_array_equal(tree.leaf_lo, lo[tree.prim_index])
    np.testing.assert_array_equal(tree.leaf_hi, hi[tree.prim_index])
    # Every leaf box contains its primitives.
    leaf_of = np.repeat(ids[~internal][by_start], count[by_start])
    assert np.all(tree.node_lo[leaf_of] <= tree.leaf_lo)
    assert np.all(tree.node_hi[leaf_of] >= tree.leaf_hi)
    assert _depth(tree) <= max(math.ceil(math.log2(n / tree.leaf_size)), 0) + 1


class TestBuildInvariants:
    @pytest.mark.parametrize("leaf_size", [1, 3, 8, 500])
    @pytest.mark.parametrize("n, dim", [(1, 3), (2, 2), (137, 3), (200, 4), (333, 2)])
    def test_random_boxes(self, n, dim, leaf_size):
        rng = np.random.default_rng(n + dim)
        lo = rng.uniform(-5, 5, size=(n, dim))
        hi = lo + rng.uniform(0, 1, size=(n, dim))
        _assert_build_invariants(BVH(lo, hi, leaf_size=leaf_size), lo, hi)

    def test_coincident_boxes(self):
        """1,024 identical boxes: every sort key ties, the split is still by count."""
        lo, hi = np.zeros((1024, 3)), np.ones((1024, 3))
        tree = BVH(lo, hi, leaf_size=8)
        _assert_build_invariants(tree, lo, hi)
        assert _depth(tree) == 8

    def test_warehouse(self, warehouse_20k):
        env, tree = warehouse_20k
        _assert_build_invariants(tree, env._obs_lo, env._obs_hi)
        assert (tree.num_nodes, _depth(tree)) == (8191, 13)
        assert tree.nbytes == sum(
            a.nbytes
            for a in (tree.node_lo, tree.node_hi, tree.node_left, tree.node_start,
                      tree.node_count, tree.prim_index, tree.leaf_lo, tree.leaf_hi)
        )


class TestLevelSynchronous:
    """A deterministic perf guard: counts, not times.  Build and traversal
    make O(depth) array passes whatever the batch visits; a per-node loop
    (one evaluation per leaf reached — hundreds) fails these."""

    @staticmethod
    def _counting(fn):
        calls = []

        def wrapped(*args):
            calls.append(1)
            return fn(*args)

        return wrapped, calls

    def test_points_hit_evaluates_once_per_level(self, warehouse_20k):
        env, tree = warehouse_20k
        pts = np.random.default_rng(15).uniform(env.bounds.lo, env.bounds.hi, size=(157, 3))
        test, calls = self._counting(point_in_box)
        got = tree.points_hit(pts, test)
        np.testing.assert_array_equal(got, tree.points_hit(pts, point_in_box))
        # One evaluation per level for the node boxes, one more on each
        # level that holds leaves — median-by-count leaves at most two.
        assert _depth(tree) <= len(calls) <= _depth(tree) + 2
        assert got.any() and not got.all()

    def test_segments_hit_evaluates_once_per_level(self, warehouse_20k):
        env, tree = warehouse_20k
        rng = np.random.default_rng(16)
        p = rng.uniform(env.bounds.lo, env.bounds.hi, size=(157, 3))
        q = p + rng.uniform(-1.0, 1.0, size=(157, 3))
        test, calls = self._counting(segment_hits_box)
        got = tree.segments_hit(p, q, test)
        np.testing.assert_array_equal(got, tree.segments_hit(p, q, segment_hits_box))
        assert _depth(tree) <= len(calls) <= _depth(tree) + 2
        assert got.any() and not got.all()

    def test_build_sorts_once_per_level(self, warehouse_20k, monkeypatch):
        env, tree = warehouse_20k
        lexsort, calls = self._counting(np.lexsort)
        monkeypatch.setattr(np, "lexsort", lexsort)
        again = BVH(env._obs_lo, env._obs_hi)
        assert len(calls) == _depth(tree) - 1  # every level but the all-leaf last
        np.testing.assert_array_equal(again.prim_index, tree.prim_index)


# -- snapshot caching & invalidation ---------------------------------------


class TestInvalidation:
    def test_tree_cached_on_snapshot(self):
        env = Environment(
            AABB(np.zeros(3), 10 * np.ones(3)),
            [AABB(np.ones(3), 2 * np.ones(3))],
            kernel_backend="bvh",
        )
        pts = np.array([[1.5, 1.5, 1.5]])
        env.points_in_collision(pts)
        data = env.kernel_data()
        first = getattr(data, _CACHE_ATTR)
        env.points_in_collision(pts)
        assert getattr(env.kernel_data(), _CACHE_ATTR) is first

    def test_mutation_invalidates_tree(self):
        """add_obstacle after the BVH is cached: verdicts must track the
        mutated obstacle set, and parity with reference must re-hold."""
        env = Environment(
            AABB(np.zeros(3), 10 * np.ones(3)),
            [AABB(np.ones(3), 2 * np.ones(3))],
            kernel_backend="bvh",
        )
        probe = np.array([[5.0, 5.0, 5.0], [1.5, 1.5, 1.5]])
        before = env.points_in_collision(probe)
        np.testing.assert_array_equal(before, [False, True])
        old_data = env.kernel_data()
        assert getattr(old_data, _CACHE_ATTR) is not None

        env.add_obstacle(AABB(4 * np.ones(3), 6 * np.ones(3)))
        after = env.points_in_collision(probe)
        np.testing.assert_array_equal(after, [True, True])
        # Fresh snapshot, fresh tree — the stale one is unreachable.
        new_data = env.kernel_data()
        assert new_data is not old_data
        assert getattr(new_data, _CACHE_ATTR) is not getattr(old_data, _CACHE_ATTR)

    def test_cold_environment_builds_one_tree_under_threads(self, warehouse_20k, monkeypatch):
        """Four threads released together onto a cold environment share
        one snapshot and one tree (check-then-set without a lock built one
        of each per thread)."""
        warm, _ = warehouse_20k
        env = Environment.from_arrays(
            warm.bounds, warm._obs_lo, warm._obs_hi, kernel_backend="bvh"
        )
        built = {"tree": 0, "snapshot": 0}

        def counted(cls, key):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built[key] += 1
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapper)

        counted(BVH, "tree")
        counted(EnvKernelData, "snapshot")
        pts = np.random.default_rng(17).uniform(env.bounds.lo, env.bounds.hi, size=(64, 3))
        gate = threading.Barrier(4)
        verdicts = []

        def query():
            gate.wait(timeout=30)
            verdicts.append(env.points_in_collision(pts))

        threads = [threading.Thread(target=query) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the GIL over inside every build
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(verdicts) == 4
        assert built == {"tree": 1, "snapshot": 1}
        for v in verdicts:
            np.testing.assert_array_equal(v, warm.points_in_collision(pts, kernels="reference"))

    def test_post_mutation_parity_random_worlds(self):
        rng = np.random.default_rng(9)
        env_b = Environment(AABB(np.zeros(3), 10 * np.ones(3)), kernel_backend="bvh")
        env_r = Environment(AABB(np.zeros(3), 10 * np.ones(3)))
        for round_ in range(4):
            lo = rng.uniform(0, 9, size=3)
            box = AABB(lo, lo + rng.uniform(0.1, 2, size=3))
            env_b.add_obstacle(box)
            env_r.add_obstacle(box)
            pts = rng.uniform(-1, 11, size=(80, 3))
            p = rng.uniform(0, 10, size=(40, 3))
            q = rng.uniform(0, 10, size=(40, 3))
            np.testing.assert_array_equal(
                env_b.points_in_collision(pts), env_r.points_in_collision(pts)
            )
            np.testing.assert_array_equal(
                env_b.segments_in_collision(p, q), env_r.segments_in_collision(p, q)
            )


# -- end-to-end wiring ------------------------------------------------------


class TestEndToEnd:
    def test_bvh_is_a_named_backend(self):
        assert "bvh" in BACKENDS
        assert isinstance(get_backend("bvh"), BVHKernels)

    def test_execution_policy_accepts_bvh(self):
        ExecutionPolicy(kernel_backend="bvh").validate()

    def test_plan_roadmap_identical_to_reference(self):
        from repro import PlanRequest, plan

        wl = WorkloadSpec(num_regions=8, samples_per_region=6, environment="mixed")
        ref = plan(PlanRequest(workload=wl, execution=ExecutionPolicy(num_pes=2)))
        bvh = plan(
            PlanRequest(
                workload=wl,
                execution=ExecutionPolicy(num_pes=2, kernel_backend="bvh"),
            )
        )
        assert bvh.roadmap.num_vertices == ref.roadmap.num_vertices
        assert sorted(bvh.roadmap.edges()) == sorted(ref.roadmap.edges())
        ids_b, cfg_b = bvh.roadmap.configs_array()
        ids_r, cfg_r = ref.roadmap.configs_array()
        np.testing.assert_array_equal(ids_b, ids_r)
        np.testing.assert_array_equal(cfg_b, cfg_r)

    def test_build_engine_frozen_bit_identical(self):
        from repro.service.cache import build_engine

        spec = WorkloadSpec(num_regions=8, samples_per_region=6, environment="mixed")
        ref = build_engine(spec).frozen
        bvh = build_engine(spec, kernel_backend="bvh").frozen
        np.testing.assert_array_equal(bvh.configs, ref.configs)
        np.testing.assert_array_equal(bvh.ids, ref.ids)
        np.testing.assert_array_equal(bvh.indptr, ref.indptr)
        np.testing.assert_array_equal(bvh.indices, ref.indices)
        np.testing.assert_array_equal(bvh.weights, ref.weights)

    def test_environment_backend_roundtrip(self):
        env = Environment(AABB(np.zeros(2), np.ones(2)))
        env.set_kernel_backend("bvh")
        assert env.kernel_backend.name == "bvh"
