"""Kernel-backend suite: name lookup, the SoA snapshot and its caching
on ``Environment``, and the reference-vs-historical-expression gates.

There is one parity tier, bit-exact:

* ``reference`` is bit-exact with the historical inline expressions —
  covered implicitly by the rest of the test suite running on the
  default backend, and explicitly by the distance gates below.
* ``bvh`` decides with the reference's own expressions behind a tree
  cull; its exact-equality battery is ``tests/test_bvh.py``.  Here it
  rides along wherever a test loops over :data:`BACKENDS`.

Property generation follows the ``test_properties`` pattern: hypothesis
drives when installed, otherwise a seeded stdlib-``random`` sweep runs
the same bodies.
"""

import random

import numpy as np
import pytest

from repro.cspace import EuclideanCSpace
from repro.geometry import AABB, Environment
from repro.kernels import BACKENDS, DEFAULT_BACKEND, get_backend
from repro.knn.brute import BruteForceNN

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False

FALLBACK_EXAMPLES = 25


def property_test(strategy_builder, fallback_gen, examples=50):
    """Run ``fn(value)`` over generated values (hypothesis or seeded sweep)."""

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


def _seed_strategy():
    return st.integers(min_value=0, max_value=2**20)


def _seed_fallback(r: random.Random):
    return r.randrange(2**20)


# -- name lookup --------------------------------------------------------------


def test_default_backend_is_reference():
    assert DEFAULT_BACKEND == "reference"
    assert get_backend(None).name == "reference"
    assert get_backend().name == "reference"


def test_unknown_backend_raises_with_listing():
    assert BACKENDS == ("reference", "bvh")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend("no-such-backend")
    with pytest.raises(ValueError, match=r"available: \('reference', 'bvh'\)"):
        get_backend("float32")


def test_get_backend_caches_singletons_and_refuses_instances():
    """A backend is a name, never an instance."""
    for name in BACKENDS:
        assert get_backend(name) is get_backend(name)
        assert get_backend(name).name == name
    with pytest.raises(ValueError, match="unknown kernel backend"):
        get_backend(get_backend("reference"))
    with pytest.raises(ValueError, match="unknown kernel backend"):
        Environment(AABB(np.zeros(2), np.ones(2)), kernel_backend=get_backend("bvh"))


# -- EnvKernelData -----------------------------------------------------------


def _small_env():
    return Environment(
        AABB(np.zeros(3), 10.0 * np.ones(3)),
        [AABB(np.array([4.0, 4.0, 4.0]), np.array([6.0, 6.0, 6.0]))],
    )


def test_kernel_data_snapshot_is_bounds_and_boxes_only():
    env = _small_env()
    data = env.kernel_data()
    assert data.dim == 3 and data.num_boxes == 1
    assert data.box_lo.dtype == np.float64
    np.testing.assert_array_equal(data.box_lo, [[4.0, 4.0, 4.0]])
    np.testing.assert_array_equal(data.box_hi, [[6.0, 6.0, 6.0]])
    # Nothing derived, no second dtype.
    assert sorted(vars(data)) == ["bounds_hi", "bounds_lo", "box_hi", "box_lo", "dim"]


def test_kernel_data_is_cached():
    env = _small_env()
    first = env.kernel_data()
    assert env.kernel_data() is first
    env.points_in_collision(np.zeros((4, 3)))
    assert env.kernel_data() is first  # queries read the one snapshot


# -- property battery: reference vs the historical expressions ---------------


@property_test(_seed_strategy, _seed_fallback)
def test_pairwise_accumulate_close_across_backends(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    stored = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 40)), d))
    queries = rng.uniform(-10.0, 10.0, size=(int(rng.integers(1, 16)), d))
    expected = np.linalg.norm(queries[:, None, :] - stored[None, :, :], axis=2)
    for name in BACKENDS:
        out = np.empty((queries.shape[0], stored.shape[0]))
        get_backend(name).pairwise_accumulate(stored, queries, out)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-9)


@property_test(_seed_strategy, _seed_fallback)
def test_knn_block_min_matches_reference(seed):
    """Padded to ``k`` columns, and the real columns are the canonical
    (distance, stored index) order of the norm expression."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 60))
    m = int(rng.integers(1, 12))
    k = int(rng.integers(1, 10))
    stored = rng.uniform(0.0, 10.0, size=(n, d))
    queries = rng.uniform(0.0, 10.0, size=(m, d))
    kk = min(k, n)
    dists = np.linalg.norm(queries[:, None, :] - stored[None, :, :], axis=2)
    order = np.argsort(dists, axis=1, kind="stable")[:, :kk]
    for name in BACKENDS:
        ids, got = get_backend(name).knn_block_min(stored, queries, k)
        assert ids.shape == (m, k) and got.shape == (m, k)  # padded to k columns
        assert np.all(ids[:, kk:] == -1) and np.all(np.isinf(got[:, kk:]))
        np.testing.assert_array_equal(ids[:, :kk], order)
        np.testing.assert_array_equal(got[:, :kk], np.take_along_axis(dists, order, axis=1))


def test_knn_block_min_pads_when_k_exceeds_store():
    stored = np.array([[0.0, 0.0], [3.0, 4.0]])
    queries = np.array([[0.0, 0.0]])
    for name in BACKENDS:
        ids, dists = get_backend(name).knn_block_min(stored, queries, 5)
        assert ids.shape == (1, 5) and dists.shape == (1, 5)
        assert np.all(np.isfinite(dists[0, :2]))
        np.testing.assert_allclose(sorted(dists[0, :2]), [0.0, 5.0], atol=1e-6)
        assert np.all(np.isinf(dists[0, 2:])) and np.all(ids[0, 2:] == -1)


def test_dist_block_static_delegate_is_exact():
    """``BruteForceNN._dist_block`` stays callable as a staticmethod (the
    RRT hot path does so) and stays bit-identical to the norm expression
    it replaced."""
    rng = np.random.default_rng(7)
    stored = rng.uniform(-5.0, 5.0, size=(30, 3))
    queries = rng.uniform(-5.0, 5.0, size=(8, 3))
    out = np.empty((8, 30))
    BruteForceNN._dist_block(stored, queries, out)
    acc = np.zeros((8, 30))
    for j in range(3):
        dd = queries[:, j][:, None] - stored[:, j][None, :]
        acc += dd * dd
    np.testing.assert_array_equal(out, np.sqrt(acc))


# -- the plane scan vs the historical broadcast --------------------------------


def _historical_points_hit(lo, hi, pts, chunk=256):
    """The all-pairs point scan as it was written before it went to
    per-axis planes: one ``(points, boxes, d)`` broadcast."""
    return np.concatenate([
        ((p[:, None, :] >= lo) & (p[:, None, :] <= hi)).all(-1).any(1)
        for p in (pts[i:i + chunk] for i in range(0, max(len(pts), 1), chunk))
    ])


def _adversarial_world(seed, n, m, d):
    """Boxes with zero-volume axes, ±0.0 faces and infinite slabs; points
    on faces, edges and corners of those boxes, with ±0.0, ±inf and NaN
    coordinates mixed in."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5.0, 5.0, (m, d))
    hi = lo + rng.uniform(0.0, 3.0, (m, d))
    flat = rng.random((m, d)) < 0.15
    hi[flat] = lo[flat]
    zero = rng.random((m, d)) < 0.05
    lo[zero], hi[zero] = -0.0, 0.0
    lo[rng.random((m, d)) < 0.03] = -np.inf
    hi[rng.random((m, d)) < 0.03] = np.inf
    owner = rng.integers(0, m, n)
    olo, ohi = lo[owner], hi[owner]
    finite_lo = np.where(np.isfinite(olo), olo, -7.0)
    finite_hi = np.where(np.isfinite(ohi), ohi, 7.0)
    pick = rng.integers(0, 5, (n, d))
    special = rng.choice(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]), (n, d))
    pts = np.select(
        [pick == 0, pick == 1, pick == 2, pick == 3],
        [olo, ohi, finite_lo + rng.random((n, d)) * (finite_hi - finite_lo),
         rng.uniform(-9.0, 9.0, (n, d))],
        special,
    )
    return lo, hi, pts


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 125, 1024])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 4096])
def test_plane_scan_equals_historical_broadcast(n, m, d):
    from repro.kernels.reference import points_hit_boxes

    lo, hi, pts = _adversarial_world(n * 7919 + m * 31 + d, n, m, d)
    got = points_hit_boxes(lo, hi, pts)
    expected = _historical_points_hit(lo, hi, pts)
    assert got.dtype == bool and got.shape == (n,)
    np.testing.assert_array_equal(got, expected)
    if n >= 64:
        assert expected.any() and not expected.all()


@pytest.mark.parametrize("m", [1, 125])
def test_points_free_straddling_the_scan_step(m):
    """A batch one slice and a bit long: the sliced plane scan answers
    every point as the historical unsliced expression does."""
    from repro.kernels.data import EnvKernelData
    from repro.kernels.reference import _SCAN_ELEMENTS, ReferenceKernels

    step = _SCAN_ELEMENTS // m
    lo, hi, pts = _adversarial_world(m, 2 * step + 3, m, 3)
    data = EnvKernelData(np.full(3, -6.0), np.full(3, 6.0), lo, hi)
    in_bounds = ((pts >= data.bounds_lo) & (pts <= data.bounds_hi)).all(-1)
    expected = in_bounds & ~_historical_points_hit(lo, hi, pts)
    np.testing.assert_array_equal(ReferenceKernels().points_free(data, pts), expected)
    assert expected.any() and not expected.all()


# -- Environment / cspace dispatch ------------------------------------------


def test_environment_per_call_kernel_override():
    env = _small_env()
    pts = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0], [20.0, 0.0, 0.0]])
    expected = env.points_in_collision(pts)
    np.testing.assert_array_equal(expected, [True, False, True])
    for name in BACKENDS:
        np.testing.assert_array_equal(env.points_in_collision(pts, kernels=name), expected)
        got = env.segments_in_collision(pts[:2], pts[1:], kernels=name)
        np.testing.assert_array_equal(got, env.segments_in_collision(pts[:2], pts[1:]))


def test_environment_set_kernel_backend_changes_default():
    env = _small_env()
    assert env.kernel_backend.name == "reference"
    env.set_kernel_backend("bvh")
    assert env.kernel_backend.name == "bvh"
    pts = np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]])
    np.testing.assert_array_equal(env.points_in_collision(pts), [True, False])


def test_cspace_kernel_dispatch_and_counters_unchanged():
    """Backend dispatch must not change what the counters charge."""
    env_ref = _small_env()
    env_bvh = _small_env()
    env_bvh.set_kernel_backend("bvh")
    cs_ref = EuclideanCSpace(env_ref)
    cs_bvh = EuclideanCSpace(env_bvh)
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(40, 3))
    v_ref = cs_ref.valid(pts)
    v_bvh = cs_bvh.valid(pts)
    np.testing.assert_array_equal(v_ref, v_bvh)
    assert env_ref.counters.point_checks == env_bvh.counters.point_checks
