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
from repro.planners.rrt import RRT

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


class TestRRTParity:
    """Swapping the NN backend may not move a single RRT sample: growth
    under IncrementalNN (always the sequential loop — only the brute
    finder is replayed inline by the batched path) must be bit-identical
    to the brute-force oracle."""

    _NN_FIELDS = ("nn_distance_evals", "nn_rebuilds", "nn_buffer_hits", "nn_evals_saved")

    def _grow(self, nn_factory, batched, goal=None):
        from repro.cspace import EuclideanCSpace
        from repro.geometry import environments

        cs = EuclideanCSpace(environments.by_name("med-cube"))
        rrt = RRT(
            cs, step_size=0.6, goal_bias=0.05, batched=batched, nn_factory=nn_factory
        )
        res = rrt.grow(
            np.full(cs.dim, -9.0), 250, np.random.default_rng(7), goal=goal
        )
        from dataclasses import asdict

        edges = sorted((min(u, v), max(u, v), w) for u, v, w in res.tree.edges())
        return asdict(res.stats), edges, dict(res.parents), res

    @pytest.mark.parametrize("goal", [None, np.array([8.0, 8.0, 8.0])])
    def test_three_way_parity(self, goal):
        b_stats, b_edges, b_parents, _ = self._grow(BruteForceNN, True, goal)
        s_stats, s_edges, s_parents, _ = self._grow(IncrementalNN, False, goal)
        i_stats, i_edges, i_parents, _ = self._grow(IncrementalNN, True, goal)
        assert b_edges == s_edges == i_edges
        assert b_parents == s_parents == i_parents
        # incremental sequential and batched agree on every stat field,
        # ladder maintenance counters included
        assert s_stats == i_stats
        # and match the brute oracle outside the backend-dependent group
        strip = lambda d: {k: v for k, v in d.items() if k not in self._NN_FIELDS}
        assert strip(b_stats) == strip(i_stats)
        assert i_stats["nn_distance_evals"] < b_stats["nn_distance_evals"]
        assert i_stats["nn_evals_saved"] > 0

    def test_incremental_runs_the_sequential_loop(self, monkeypatch):
        b_stats, b_edges, b_parents, _ = self._grow(BruteForceNN, True)
        monkeypatch.setattr(
            RRT, "_grow_batched", lambda *a, **k: pytest.fail("batched path taken")
        )
        i_stats, i_edges, i_parents, _ = self._grow(IncrementalNN, True)
        assert (i_edges, i_parents) == (b_edges, b_parents)
        strip = lambda d: {k: v for k, v in d.items() if k not in self._NN_FIELDS}
        assert strip(i_stats) == strip(b_stats)


class TestRegistry:
    def test_grid_not_registered(self):
        """The hash-grid finder is gone from the package."""
        import repro.knn

        assert not hasattr(repro.knn, "GridNN")


class TestEndToEndPlan:
    def test_plan_simulate_identical_to_default(self):
        """The incremental finder handed to the workload builder may not
        change a single vertex or edge of the build."""
        from repro.core import build_prm_workload
        from repro.spec import WorkloadSpec

        wl = WorkloadSpec(num_regions=6, samples_per_region=6, environment="mixed")
        cs = wl.resolve_cspace()
        ref = build_prm_workload(cs, wl.num_regions, wl.samples_per_region, seed=wl.seed)
        inc = build_prm_workload(
            cs, wl.num_regions, wl.samples_per_region, seed=wl.seed,
            nn_factory=IncrementalNN,
        )
        assert inc.roadmap.num_vertices == ref.roadmap.num_vertices
        assert sorted(inc.roadmap.edges()) == sorted(ref.roadmap.edges())
        ids_i, cfg_i = inc.roadmap.configs_array()
        ids_r, cfg_r = ref.roadmap.configs_array()
        np.testing.assert_array_equal(ids_i, ids_r)
        np.testing.assert_array_equal(cfg_i, cfg_r)
