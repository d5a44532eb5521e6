"""Tests for uniform grid subdivision and the region graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import AABB
from repro.partition import edge_cut_of, evaluate_partition, loads_of, partition_greedy_lpt
from repro.subdivision import RegionGraph, UniformSubdivision, grid_shape_for
from repro.subdivision.uniform import BoxRegion

from .oracle import grid_loop


class TestGridShape:
    def test_reaches_target(self):
        shape = grid_shape_for(100, 2, np.array([1.0, 1.0]))
        assert np.prod(shape) >= 100

    def test_proportional_to_extents(self):
        shape = grid_shape_for(64, 2, np.array([4.0, 1.0]))
        assert shape[0] > shape[1]

    def test_single_region(self):
        assert grid_shape_for(1, 3, np.ones(3)) == (1, 1, 1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            grid_shape_for(0, 2, np.ones(2))
        with pytest.raises(ValueError):
            grid_shape_for(4, 2, np.array([1.0, -1.0]))


class TestUniformSubdivision:
    @pytest.fixture
    def sub(self):
        return UniformSubdivision(AABB([-2, -2], [2, 2]), 16, overlap=0.2)

    def test_region_count(self, sub):
        assert sub.num_regions == 16
        assert sub.shape == (4, 4)

    def test_regions_tile_the_space(self, sub):
        total = sum(sub.region_of(r).volume() for r in sub.graph.region_ids())
        assert total == pytest.approx(16.0)

    def test_cores_disjoint(self, sub):
        regions = [sub.region_of(r) for r in sub.graph.region_ids()]
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                assert regions[i].bounds.intersection_volume(regions[j].bounds) == 0.0

    def test_sample_bounds_include_core(self, sub):
        for rid in sub.graph.region_ids():
            region = sub.region_of(rid)
            assert region.sample_bounds.intersection_volume(region.bounds) == pytest.approx(
                region.bounds.volume()
            )

    def test_sample_bounds_clipped_to_workspace(self, sub):
        for rid in sub.graph.region_ids():
            sb = sub.region_of(rid).sample_bounds
            assert (sb.lo >= sub.bounds.lo - 1e-12).all()
            assert (sb.hi <= sub.bounds.hi + 1e-12).all()

    def test_face_adjacency_count(self, sub):
        # 4x4 grid: 2*4*3 = 24 face adjacencies.
        assert sub.graph.num_adjacencies == 24

    def test_locate_matches_contains(self, sub, rng):
        pts = rng.uniform(-2, 2, size=(200, 2))
        for p in pts:
            rid = sub.locate(p)
            assert sub.region_of(rid).contains(p)

    def test_locate_batch_matches_scalar(self, sub, rng):
        pts = rng.uniform(-2.5, 2.5, size=(100, 2))
        batch = sub.locate_batch(pts)
        scalar = [sub.locate(p) for p in pts]
        assert batch.tolist() == scalar

    def test_locate_clamps_outside_points(self, sub):
        rid = sub.locate(np.array([99.0, 99.0]))
        assert rid == sub.num_regions - 1

    def test_3d_grid(self):
        sub = UniformSubdivision(AABB([0, 0, 0], [1, 1, 1]), 27)
        assert sub.shape == (3, 3, 3)
        assert sub.graph.num_adjacencies == 3 * 9 * 2

    def test_overlap_validation(self):
        with pytest.raises(ValueError):
            UniformSubdivision(AABB([0, 0], [1, 1]), 4, overlap=-0.1)


class TestArraysEqualTheCellLoop:
    """The grid's array pass equals the one-cell-at-a-time loop
    (``tests/oracle.py::grid_loop``) bit for bit: every array row, every
    lazily built region and the iteration order of every neighbour set,
    which the simulator goldens depend on."""

    @staticmethod
    def _assert_equal(sub, oracle):
        rids = oracle.region_ids()
        assert sub.graph.region_ids() == rids == list(range(sub.num_regions))
        want = {
            name: np.array([getattr(getattr(oracle.region(r), box), end) for r in rids])
            for name, box, end in (("lo", "bounds", "lo"), ("hi", "bounds", "hi"),
                                   ("sample_lo", "sample_bounds", "lo"),
                                   ("sample_hi", "sample_bounds", "hi"))
        }
        for name, arr in want.items():
            assert getattr(sub, name).tobytes() == arr.tobytes(), name
        assert sub.index.tolist() == [list(oracle.region(r).grid_index) for r in rids]
        for rid in rids:
            got, ref = sub.region_of(rid), oracle.region(rid)
            assert sub.region_of(rid) is got  # built once, then cached
            for box in ("bounds", "sample_bounds"):
                for end in ("lo", "hi"):
                    a, b = getattr(getattr(got, box), end), getattr(getattr(ref, box), end)
                    assert a.tobytes() == b.tobytes()
            assert got.grid_index == ref.grid_index
            assert all(type(i) is int for i in got.grid_index)
            assert list(sub.graph.neighbors(rid)) == list(oracle.neighbors(rid))
        assert list(sub.graph.edges()) == list(oracle.edges())

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**31 - 1),
        target=st.integers(1, 400),
        overlap=st.floats(0.0, 2.0),
    )
    def test_random_grids(self, dim, seed, target, overlap):
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-10.0, 10.0, dim)
        bounds = AABB(lo, lo + rng.uniform(0.05, 20.0, dim))
        self._assert_equal(
            UniformSubdivision(bounds, target, overlap=overlap), grid_loop(bounds, target, overlap)
        )

    def test_the_flagship_grid(self):
        bounds = AABB([-10.0] * 3, [10.0] * 3)
        self._assert_equal(
            UniformSubdivision(bounds, 1024, overlap=0.2), grid_loop(bounds, 1024, 0.2)
        )

    def test_explicit_shape(self):
        bounds = AABB([0.0, 0.0], [3.5, 1.0])
        sub = UniformSubdivision(bounds, 14, overlap=0.3)
        assert sub.shape == (7, 2)
        self._assert_equal(sub, grid_loop(bounds, 14, 0.3))

    def test_ids_outside_the_grid_raise(self):
        sub = UniformSubdivision(AABB([0, 0], [1, 1]), 4)
        for rid in (-1, 4):
            with pytest.raises(KeyError):
                sub.region_of(rid)


class TestRegionGraph:
    def test_duplicate_region_rejected(self):
        g = RegionGraph()
        g.add_region(BoxRegion(id=0, bounds=AABB([0, 0], [1, 1]), sample_bounds=AABB([0, 0], [1, 1])))
        with pytest.raises(KeyError):
            g.add_region(BoxRegion(id=0, bounds=AABB([0, 0], [1, 1]), sample_bounds=AABB([0, 0], [1, 1])))

    def test_self_adjacency_rejected(self):
        g = RegionGraph()
        g.add_region(BoxRegion(id=0, bounds=AABB([0, 0], [1, 1]), sample_bounds=AABB([0, 0], [1, 1])))
        with pytest.raises(ValueError):
            g.add_adjacency(0, 0)

    def test_weights_and_loads(self):
        g = RegionGraph()
        for i in range(4):
            g.add_region(
                BoxRegion(id=i, bounds=AABB([i, 0], [i + 1, 1]), sample_bounds=AABB([i, 0], [i + 1, 1]))
            )
        loads = loads_of(g, {i: float(i) for i in range(4)}, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
        assert loads.tolist() == [1.0, 5.0]

    def test_negative_weight_rejected(self):
        g = RegionGraph()
        g.add_region(BoxRegion(id=0, bounds=AABB([0, 0], [1, 1]), sample_bounds=AABB([0, 0], [1, 1])))
        with pytest.raises(ValueError):
            partition_greedy_lpt(g, {0: -1.0}, 1)

    def test_incomplete_assignment_rejected(self):
        g = RegionGraph()
        for i in range(2):
            g.add_region(BoxRegion(id=i, bounds=AABB([i, 0], [i + 1, 1]), sample_bounds=AABB([i, 0], [i + 1, 1])))
        with pytest.raises(ValueError):
            evaluate_partition(g, {0: 1.0, 1: 1.0}, {0: 0}, 1)

    def test_edge_cut(self):
        g = RegionGraph()
        for i in range(3):
            g.add_region(BoxRegion(id=i, bounds=AABB([i, 0], [i + 1, 1]), sample_bounds=AABB([i, 0], [i + 1, 1])))
        g.add_adjacency(0, 1)
        g.add_adjacency(1, 2)
        assert edge_cut_of(g, {0: 0, 1: 0, 2: 1}) == 1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 64), seed=st.integers(0, 1000))
def test_every_point_in_exactly_one_core_region(n, seed):
    """Property: grid cores partition the space (up to boundaries)."""
    sub = UniformSubdivision(AABB([-1, -1], [1, 1]), n)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(50, 2))
    for p in pts:
        owners = [rid for rid in sub.graph.region_ids() if sub.region_of(rid).contains(p)]
        assert sub.locate(p) in owners
        assert len(owners) in (1, 2, 4)  # >1 only exactly on boundaries
