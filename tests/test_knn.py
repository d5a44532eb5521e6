"""Tests for the nearest-neighbour backends, cross-validated."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knn import BruteForceNN, IncrementalNN, KDTreeNN


def _backends(dim):
    return [BruteForceNN(dim), KDTreeNN(dim), IncrementalNN(dim)]


class TestBasics:
    @pytest.mark.parametrize("cls", [BruteForceNN, KDTreeNN])
    def test_invalid_dim(self, cls):
        with pytest.raises(ValueError):
            cls(0)

    def test_len_tracks_insertions(self, rng):
        for nn in _backends(3):
            assert len(nn) == 0
            nn.add(0, rng.normal(size=3))
            nn.add_batch(np.array([1, 2]), rng.normal(size=(2, 3)))
            assert len(nn) == 3

    def test_empty_queries(self):
        for nn in _backends(2):
            assert nn.knn(np.zeros(2), 3) == []
            assert nn.radius(np.zeros(2), 1.0) == []

    def test_mismatched_batch_raises(self, rng):
        for nn in _backends(2):
            with pytest.raises(ValueError):
                nn.add_batch(np.array([0]), rng.normal(size=(2, 2)))


class TestKnnCorrectness:
    def test_single_point(self):
        for nn in _backends(2):
            nn.add(7, np.array([1.0, 1.0]))
            out = nn.knn(np.zeros(2), 1)
            assert out == [(7, pytest.approx(np.sqrt(2.0)))]

    def test_exclude(self):
        for nn in _backends(2):
            nn.add(1, np.array([0.0, 0.0]))
            nn.add(2, np.array([1.0, 0.0]))
            out = nn.knn(np.zeros(2), 1, exclude=1)
            assert out[0][0] == 2

    def test_k_larger_than_population(self, rng):
        for nn in _backends(2):
            nn.add_batch(np.arange(3), rng.normal(size=(3, 2)))
            assert len(nn.knn(np.zeros(2), 10)) == 3

    def test_sorted_by_distance(self, rng):
        pts = rng.normal(size=(50, 3))
        for nn in _backends(3):
            nn.add_batch(np.arange(50), pts)
            out = nn.knn(np.zeros(3), 10)
            dists = [d for _i, d in out]
            assert dists == sorted(dists)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 12))
    def test_backends_agree_with_brute_force(self, seed, k):
        """Property: kd-tree and the kd-ladder return exactly the brute-force ids."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, size=(60, 2))
        query = rng.uniform(-3, 3, 2)
        brute = BruteForceNN(2)
        kd = KDTreeNN(2)
        inc = IncrementalNN(2)
        for nn in (brute, kd, inc):
            nn.add_batch(np.arange(60), pts)
        expected = {i for i, _d in brute.knn(query, k)}
        assert {i for i, _d in kd.knn(query, k)} == expected
        assert {i for i, _d in inc.knn(query, k)} == expected


class TestCanonicalTieBreak:
    """All backends must agree on the exact ordered (id, distance) lists,
    including ties — the contract that makes ``QueryEngine``'s
    ``nn_factory`` a drop-in swap."""

    def _tie_heavy_points(self):
        """A 5x5 integer lattice, duplicated: every query sees massive
        exact-distance ties and duplicate configurations."""
        base = np.array([[float(x), float(y)] for x in range(5) for y in range(5)])
        return np.vstack([base, base])

    def test_exact_order_on_lattice_ties(self):
        pts = self._tie_heavy_points()
        n = len(pts)
        brute = BruteForceNN(2)
        kd = KDTreeNN(2)
        inc = IncrementalNN(2)
        for nn in (brute, kd, inc):
            nn.add_batch(np.arange(n), pts)
        queries = [np.array([2.0, 2.0]), np.array([0.5, 0.5]), np.array([2.5, 1.5])]
        for q in queries:
            for k in (1, 4, 9, 30):
                ref = brute.knn(q, k)
                assert kd.knn(q, k) == ref
                assert inc.knn(q, k) == ref

    def test_duplicates_break_by_insertion_order(self):
        """Duplicate points tie on distance; insertion order decides."""
        for nn in _backends(2):
            nn.add(5, np.array([1.0, 0.0]))
            nn.add(3, np.array([1.0, 0.0]))
            nn.add(9, np.array([1.0, 0.0]))
            assert [i for i, _d in nn.knn(np.zeros(2), 3)] == [5, 3, 9]

    def test_tie_at_kth_slot(self):
        """When the k-th and (k+1)-th candidates tie on distance, the
        earlier-inserted one must win the slot in every backend."""
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.5, 0.0]])
        for nn in _backends(2):
            nn.add_batch(np.arange(4), pts)
            out = nn.knn(np.zeros(2), 2)
            assert [i for i, _d in out] == [3, 0]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 10))
    def test_exact_order_random(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, size=(50, 3))
        q = rng.uniform(-3, 3, 3)
        brute = BruteForceNN(3)
        kd = KDTreeNN(3)
        inc = IncrementalNN(3)
        for nn in (brute, kd, inc):
            nn.add_batch(np.arange(50), pts)
        ref = brute.knn(q, k)
        assert kd.knn(q, k) == ref
        assert inc.knn(q, k) == ref

    def test_exact_order_at_20k_points(self, rng):
        """Above the size where ``QueryEngine`` switches from the brute
        scan to the kd-tree: same ordered lists there too."""
        n = 20_000
        pts = rng.uniform(0.0, 10.0, size=(n, 3))
        queries = rng.uniform(0.0, 10.0, size=(64, 3))
        brute, kd, inc = _backends(3)
        for nn in (brute, kd, inc):
            nn.add_batch(np.arange(n), pts)
        ref = brute.knn_batch(queries, 8)
        assert kd.knn_batch(queries, 8) == ref
        assert inc.knn_batch(queries, 8) == ref

    def test_knn_batch_matches_loop(self, rng):
        """The vectorised batch path must equal per-query knn calls
        exactly, for every backend (brute overrides it, others inherit)."""
        pts = rng.uniform(-3, 3, size=(80, 2))
        queries = rng.uniform(-3, 3, size=(12, 2))
        for nn in _backends(2):
            nn.add_batch(np.arange(80), pts)
            batch = nn.knn_batch(queries, 6)
            loop = [nn.knn(q, 6) for q in queries]
            assert batch == loop

    def test_knn_batch_empty(self):
        for nn in _backends(2):
            assert nn.knn_batch(np.empty((0, 2)), 4) == []
            nn.add(0, np.zeros(2))
            assert nn.knn_batch(np.array([[1.0, 0.0]]), 3) == [[(0, 1.0)]]


class TestRadiusCorrectness:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), r=st.floats(0.1, 3.0))
    def test_backends_agree_on_radius(self, seed, r):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-3, 3, size=(40, 3))
        query = rng.uniform(-3, 3, 3)
        brute = BruteForceNN(3)
        kd = KDTreeNN(3)
        inc = IncrementalNN(3)
        for nn in (brute, kd, inc):
            nn.add_batch(np.arange(40), pts)
        expected = {i for i, _d in brute.radius(query, r)}
        assert {i for i, _d in kd.radius(query, r)} == expected
        assert {i for i, _d in inc.radius(query, r)} == expected

    def test_radius_inclusive(self):
        for nn in _backends(2):
            nn.add(0, np.array([1.0, 0.0]))
            assert nn.radius(np.zeros(2), 1.0) == [(0, pytest.approx(1.0))]


class TestStats:
    def test_brute_counts_distance_evals(self, rng):
        nn = BruteForceNN(2)
        nn.add_batch(np.arange(10), rng.normal(size=(10, 2)))
        nn.knn(np.zeros(2), 3)
        assert nn.stats.queries == 1
        assert nn.stats.distance_evals == 10

    def test_kdtree_prunes(self, rng):
        nn = KDTreeNN(2)
        pts = rng.uniform(-10, 10, size=(500, 2))
        nn.add_batch(np.arange(500), pts)
        nn.knn(np.array([0.0, 0.0]), 1)
        # Pruning must beat exhaustive scan on a spread-out set.
        assert nn.stats.distance_evals < 500

    def test_kdtree_depth_reasonable(self, rng):
        nn = KDTreeNN(3)
        nn.add_batch(np.arange(1000), rng.normal(size=(1000, 3)))
        assert nn.depth() < 60


class TestCapacityGrowth:
    def test_incremental_adds_past_capacity(self, rng):
        """Data must survive repeated buffer growth (regression: np.resize
        tiles the old buffer instead of preserving a prefix)."""
        nn = BruteForceNN(2)
        pts = rng.uniform(0.0, 10.0, size=(300, 2))
        for i, p in enumerate(pts):
            nn.add(i, p)
        assert len(nn) == 300
        # Every stored point must be its own nearest neighbour.
        for i in (0, 63, 64, 65, 128, 299):
            nbrs = nn.knn(pts[i], 1)
            assert nbrs[0][0] == i
            assert nbrs[0][1] == 0.0


class TestBlockGrowing:
    @pytest.mark.parametrize("n0,m,k", [(0, 1, 4), (0, 10, 4), (3, 17, 4), (50, 64, 6), (5, 2, 8)])
    def test_matches_interleaved_loop(self, rng, n0, m, k):
        """knn_block_growing must equal the query-then-insert loop exactly:
        same neighbours, same order, same distances, same stats charges."""
        stored = rng.uniform(0.0, 10.0, size=(n0, 3))
        block = rng.uniform(0.0, 10.0, size=(m, 3))
        ids = np.arange(n0 + m, dtype=np.int64)

        ref_nn = BruteForceNN(3)
        if n0:
            ref_nn.add_batch(ids[:n0], stored)
        ref = []
        for i in range(m):
            ref.append(ref_nn.knn(block[i], k))
            ref_nn.add(int(ids[n0 + i]), block[i])

        blk_nn = BruteForceNN(3)
        if n0:
            blk_nn.add_batch(ids[:n0], stored)
        got_ids, got_d = blk_nn.knn_block_growing(ids[n0:], block, k)

        assert got_ids.shape == got_d.shape == (m, k)
        for row, want in enumerate(ref):
            assert got_ids[row, : len(want)].tolist() == [i for i, _d in want]
            assert got_d[row, : len(want)].tolist() == [d for _i, d in want]
            assert (got_ids[row, len(want):] == -1).all() and np.isinf(got_d[row, len(want):]).all()
        assert blk_nn.stats.queries == ref_nn.stats.queries
        assert blk_nn.stats.distance_evals == ref_nn.stats.distance_evals
        assert len(blk_nn) == len(ref_nn) == n0 + m

    def test_empty_block(self):
        nn = BruteForceNN(3)
        ids, dists = nn.knn_block_growing(np.empty(0, dtype=np.int64), np.empty((0, 3)), 4)
        assert ids.shape == dists.shape == (0, 4) and len(nn) == 0

    def test_mismatched_lengths_raise(self, rng):
        nn = BruteForceNN(2)
        with pytest.raises(ValueError):
            nn.knn_block_growing(np.arange(3), rng.uniform(size=(2, 2)), 2)


class TestBatchArrays:
    """The array-native ``knn_batch_arrays`` contract: padded ``(m, k)``
    id/distance arrays whose finite prefix matches ``knn_batch`` exactly,
    across every backend (base-class adapter included)."""

    def test_matches_knn_batch_across_backends(self, rng):
        pts = rng.uniform(0.0, 10.0, size=(60, 3))
        ids = np.arange(60, dtype=np.int64)
        queries = rng.uniform(0.0, 10.0, size=(9, 3))
        k = 5
        for nn in _backends(3):
            nn.add_batch(ids, pts)
            pairs = nn.knn_batch(queries, k)
            aid, adist = nn.knn_batch_arrays(queries, k)
            assert aid.shape == (9, k) and adist.shape == (9, k)
            assert aid.dtype == np.int64
            for row, expect in enumerate(pairs):
                got = [
                    (int(aid[row, j]), float(adist[row, j]))
                    for j in range(k)
                    if np.isfinite(adist[row, j])
                ]
                assert got == expect

    def test_padding_when_store_is_small(self, rng):
        queries = rng.uniform(size=(3, 2))
        for nn in _backends(2):
            nn.add(7, np.zeros(2))
            aid, adist = nn.knn_batch_arrays(queries, 4)
            assert aid.shape == (3, 4) and adist.shape == (3, 4)
            assert np.all(aid[:, 1:] == -1)
            assert np.all(np.isinf(adist[:, 1:]))
            assert np.all(aid[:, 0] == 7) and np.all(np.isfinite(adist[:, 0]))

    def test_brute_force_hands_back_its_distance_block(self, rng):
        """``out=`` receives every query's distance to every stored point,
        in insertion order and bit-identical to ``np.linalg.norm``; the
        neighbours are the same as without it."""
        pts = rng.uniform(0.0, 10.0, size=(40, 3))
        queries = rng.uniform(0.0, 10.0, size=(6, 3))
        nn = BruteForceNN(3)
        nn.add_batch(np.arange(40, dtype=np.int64), pts)
        block = np.empty((6, 40))
        got = nn.knn_batch_arrays(queries, 4, out=block)
        want = nn.knn_batch_arrays(queries, 4)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        for i, q in enumerate(queries):
            assert np.array_equal(block[i], np.linalg.norm(pts - q[None, :], axis=1))
        with pytest.raises(ValueError):
            nn.knn_batch_arrays(queries, 4, segments=([0, 40], [0, 6]), out=block)

    def test_empty_store_and_empty_queries(self):
        for nn in _backends(2):
            aid, adist = nn.knn_batch_arrays(np.zeros((2, 2)), 3)
            assert aid.shape == (2, 3) and np.all(aid == -1)
            assert np.all(np.isinf(adist))
            aid, adist = nn.knn_batch_arrays(np.empty((0, 2)), 3)
            assert aid.shape == (0, 3) and adist.shape == (0, 3)
