"""Differential property battery for the BVH and the ``bvh`` backend.

The ``bvh`` backend's contract is **bit-exact** equality with
``reference`` — stronger than the stability-guarded statistical gates
fast32 gets — because the tree only culls and the leaves run the
reference expressions verbatim.  Every test here asserts
``np.testing.assert_array_equal`` on verdicts, never a tolerance.

``hypothesis`` drives the world generators when installed; otherwise a
seeded stdlib-``random`` sweep covers the same shapes (same pattern as
``tests/test_properties.py``).
"""

import random

import numpy as np
import pytest

from repro.geometry import AABB, Environment
from repro.geometry.bvh import BVH
from repro.geometry.scenarios import shelf_warehouse
from repro.kernels import EnvKernelData, available_backends, get_backend
from repro.kernels.bvh_backend import _CACHE_ATTR, BVHKernels
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
    def test_registered(self):
        assert "bvh" in available_backends()
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
