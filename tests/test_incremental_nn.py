"""Differential battery for the incremental kd-ladder NN backend.

``IncrementalNN``'s contract is **bit-exact** equality with
``BruteForceNN`` on every query — distances, ids, and ordering,
canonical ``(distance, insertion order)`` tie-break included — under any
interleaving of inserts and queries.  Every test here asserts ``==`` on
the full answer lists, never a tolerance.

``hypothesis`` drives the stream generator when installed; otherwise a
seeded sweep covers the same shapes (same pattern as ``tests/test_bvh.py``).
"""

import numpy as np
import pytest

from repro.knn import BruteForceNN, IncrementalNN

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - depends on the environment
    HAVE_HYPOTHESIS = False


def _check_stream(seed, dim, buffer_capacity, n_ops, tie_grid=None):
    """Run one randomized insert/query stream through BruteForceNN and
    IncrementalNN side by side and assert every answer identical.

    ``tie_grid``: when set, coordinates are snapped to a lattice of that
    pitch, manufacturing massive exact-distance ties and duplicates.
    """
    rng = np.random.default_rng(seed)
    brute = BruteForceNN(dim)
    inc = IncrementalNN(dim, buffer_capacity=buffer_capacity)
    next_id = 0
    for _ in range(n_ops):
        p = rng.uniform(-3.0, 3.0, dim)
        if tie_grid is not None:
            p = np.round(p / tie_grid) * tie_grid
        op = rng.integers(0, 4)
        if op == 0 or next_id == 0:
            brute.add(next_id, p)
            inc.add(next_id, p)
            next_id += 1
        elif op == 1:
            k = int(rng.integers(1, 6))
            assert inc.knn(p, k) == brute.knn(p, k)
        elif op == 2:
            excl = int(rng.integers(0, next_id))
            k = int(rng.integers(1, 4))
            assert inc.knn(p, k, exclude=excl) == brute.knn(p, k, exclude=excl)
        else:
            r = float(rng.uniform(0.0, 2.5))
            assert inc.radius(p, r) == brute.radius(p, r)
    assert len(inc) == len(brute) == next_id


class TestDifferentialStreams:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [2, 3, 6])
    def test_interleaved_stream(self, seed, dim):
        _check_stream(seed, dim, buffer_capacity=16, n_ops=120)

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_storm_stream(self, seed):
        """Lattice-snapped coordinates: duplicates and exact-distance ties
        everywhere; the canonical tie-break must hold through rebuilds."""
        _check_stream(seed, 2, buffer_capacity=4, n_ops=150, tie_grid=1.0)

    @pytest.mark.parametrize("buf", [1, 2, 7, 64])
    def test_buffer_capacity_sweep(self, buf):
        """Degenerate buffers (1 forces a rebuild on nearly every insert)
        through buffers large enough that no rebuild ever happens."""
        _check_stream(99, 3, buffer_capacity=buf, n_ops=140)

    def test_duplicate_ids_duplicate_points(self):
        """Same external id inserted at several positions must surface
        every copy, exactly as the brute scan does."""
        brute, inc = BruteForceNN(2), IncrementalNN(2, buffer_capacity=2)
        for nn in (brute, inc):
            nn.add(7, np.array([0.0, 0.0]))
            nn.add(7, np.array([1.0, 0.0]))
            nn.add(3, np.array([0.0, 0.0]))
            nn.add(7, np.array([0.0, 1.0]))
        for k in (1, 2, 4):
            assert inc.knn(np.zeros(2), k) == brute.knn(np.zeros(2), k)
        assert inc.radius(np.zeros(2), 1.5) == brute.radius(np.zeros(2), 1.5)
        assert inc.knn(np.zeros(2), 4, exclude=7) == brute.knn(np.zeros(2), 4, exclude=7)

    if HAVE_HYPOTHESIS:

        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            dim=st.integers(2, 5),
            buf=st.integers(1, 32),
        )
        def test_stream_property(self, seed, dim, buf):
            _check_stream(seed, dim, buffer_capacity=buf, n_ops=90)


class TestLadderStructure:
    def test_rung_boundary_sizes(self):
        """Sizes 2^i - 1, 2^i, 2^i + 1 around every rung boundary: the
        off-by-one cases where merge-rebuild bookkeeping breaks first."""
        sizes = []
        for i in range(1, 7):
            sizes.extend([2**i - 1, 2**i, 2**i + 1])
        rng = np.random.default_rng(0)
        for n in sizes:
            pts = rng.uniform(-5.0, 5.0, size=(n, 3))
            brute, inc = BruteForceNN(3), IncrementalNN(3, buffer_capacity=1)
            for i in range(n):
                brute.add(i, pts[i])
                inc.add(i, pts[i])
            assert sum(inc.rung_sizes()) + inc.buffer_size == n
            q = rng.uniform(-5.0, 5.0, 3)
            assert inc.knn(q, min(5, n)) == brute.knn(q, min(5, n))

    def test_buffer_flush_and_rebuild_counters(self):
        rng = np.random.default_rng(1)
        inc = IncrementalNN(3, buffer_capacity=8)
        for i in range(64):
            inc.add(i, rng.uniform(-1.0, 1.0, 3))
        assert inc.buffer_size < 8
        assert inc.stats.rebuilds > 0
        assert sum(inc.rung_sizes()) + inc.buffer_size == 64

    def test_add_batch_matches_loop(self, rng):
        pts = rng.uniform(-2.0, 2.0, size=(50, 3))
        a = IncrementalNN(3, buffer_capacity=4)
        a.add_batch(np.arange(50), pts)
        b = IncrementalNN(3, buffer_capacity=4)
        for i in range(50):
            b.add(i, pts[i])
        q = rng.uniform(-2.0, 2.0, 3)
        assert a.knn(q, 7) == b.knn(q, 7)

    def test_eval_ledger_accounts_for_brute_work(self):
        """On the k=1 growing stream the ladder's ledger must balance:
        evals actually spent + evals saved == what the brute scan spends."""
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5.0, 5.0, size=(400, 3))
        brute, inc = BruteForceNN(3), IncrementalNN(3)
        for i in range(400):
            if i:
                assert inc.knn(pts[i], 1) == brute.knn(pts[i], 1)
            brute.add(i, pts[i])
            inc.add(i, pts[i])
        assert (
            inc.stats.distance_evals + inc.stats.evals_saved
            == brute.stats.distance_evals
        )
        assert inc.stats.queries == brute.stats.queries == 399
        assert inc.stats.evals_saved > 0


class TestRegistry:
    def test_grid_not_registered(self):
        """The hash-grid finder is gone from the package."""
        import repro.knn

        assert not hasattr(repro.knn, "GridNN")
