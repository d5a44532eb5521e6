"""Integration tests for the load-balanced radial RRT driver."""

import numpy as np
import pytest

from unittest import mock

from repro.core import RRTRegionPlanner, build_rrt_workload, rrt_k_rays_weights, simulate_rrt
from repro.cspace import EuclideanCSpace
from repro.geometry import Environment, free_env, mixed_30_env
from repro.subdivision.radial import ConeRegion, RadialSubdivision

from .oracle import ray_free_distance_per_box, rrt_loop


def _mixed_workload(seed):
    cs = EuclideanCSpace(mixed_30_env())
    rng = np.random.default_rng(0)
    root = np.zeros(3)
    while not cs.valid_single(root):
        root = rng.uniform(-3, 3, 3)
    return build_rrt_workload(cs, root, num_regions=256, nodes_per_region=6, seed=seed)


@pytest.fixture(scope="module")
def mixed_workload():
    return _mixed_workload(4)


@pytest.fixture(scope="module")
def free_workload():
    cs = EuclideanCSpace(free_env())
    return build_rrt_workload(cs, np.zeros(3), num_regions=256, nodes_per_region=6, seed=4)


class TestWorkloadConstruction:
    def test_branch_work_complete(self, mixed_workload):
        wl = mixed_workload
        assert set(wl.branch_work) == set(wl.radial.graph.region_ids())
        assert all(w.grow_cost > 0 for w in wl.branch_work.values())

    def test_tree_is_forest_of_branches(self, free_workload):
        wl = free_workload
        # Every vertex has a parent chain ending at a branch root.
        for vid in wl.tree.vertices():
            seen = set()
            v = vid
            while wl.parents[v] != v:
                assert v not in seen
                seen.add(v)
                v = wl.parents[v]

    def test_tree_edge_count(self, free_workload):
        wl = free_workload
        num_roots = sum(1 for v, p in wl.parents.items() if v == p)
        assert wl.tree.num_edges == wl.tree.num_vertices - num_roots

    def test_invalid_root_rejected(self):
        cs = EuclideanCSpace(mixed_30_env())
        blocked = None
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.uniform(-9, 9, 3)
            if not cs.valid_single(p):
                blocked = p
                break
        assert blocked is not None
        with pytest.raises(ValueError):
            build_rrt_workload(cs, blocked, num_regions=16)

    def test_cluttered_side_costs_more(self, mixed_workload):
        """Cones facing the cluttered half burn more iterations.  A
        property of the distribution, so it is judged over three seeds'
        cones: at six nodes a branch reaches 3.6 units, barely into the
        clutter, and a single seed reads anywhere from 1.0x to 1.8x."""
        toward, away = [], []
        for wl in (mixed_workload, _mixed_workload(5), _mixed_workload(6)):
            for rid, work in wl.branch_work.items():
                direction = wl.radial.region_of(rid).direction
                (toward if direction[0] > 0.5 else away if direction[0] < -0.5 else []).append(
                    work.grow_cost
                )
        assert np.mean(toward) > 1.1 * np.mean(away)

    def test_deterministic(self):
        cs = EuclideanCSpace(free_env())
        a = build_rrt_workload(cs, np.zeros(3), num_regions=64, nodes_per_region=4, seed=9)
        b = build_rrt_workload(
            EuclideanCSpace(free_env()), np.zeros(3), num_regions=64, nodes_per_region=4, seed=9
        )
        assert a.tree.num_vertices == b.tree.num_vertices
        for rid in a.branch_work:
            assert a.branch_work[rid].grow_cost == b.branch_work[rid].grow_cost


class TestRegionalGrowth:
    """What "biased toward its region" means in :class:`RRTRegionPlanner`:
    proposals come from the cone, the membership guard stays."""

    def test_guard_sees_every_valid_candidate(self, monkeypatch):
        """Sampling in the cone replaces no check: on the oracle loop the
        cone test runs once per valid ``q_new``, and what joins the tree
        passed it."""
        cs = EuclideanCSpace(mixed_30_env())
        with rrt_loop():
            regions = RRTRegionPlanner(cs, np.array([0.8, -1.4, -2.8]), 8, 40, seed=3)
        valid_single, contains_many = cs.valid_single, ConeRegion.contains_many
        verdicts, guarded = [], []

        def recording_valid(q):
            verdicts.append(valid_single(q))
            return verdicts[-1]

        def recording_contains(self, qs):
            assert len(qs) == 1  # the loop asks for one q_new at a time
            mask = contains_many(self, qs)
            guarded.extend(mask.tolist())
            return mask

        monkeypatch.setattr(cs, "valid_single", recording_valid)
        monkeypatch.setattr(ConeRegion, "contains_many", recording_contains)
        for rid in regions.region_ids:
            verdicts.clear()
            guarded.clear()
            result = regions(rid)
            # The first verdict is the root's; every later True is a valid q_new.
            assert len(guarded) == sum(verdicts[1:]) > 0
            assert result.stats.lp_calls == sum(guarded)
            region = regions.decomposition.region_of(rid)
            _ids, cfgs = result.tree.configs_array()
            assert contains_many(region, cfgs).all()


class TestSimulation:
    def test_all_strategies_run(self, mixed_workload):
        for strat in ("none", "diffusive", "hybrid", "rand-8", "repartition"):
            r = simulate_rrt(mixed_workload, 8, strat)
            assert r.total_time > 0

    def test_node_conservation(self, mixed_workload):
        total = sum(w.num_nodes for w in mixed_workload.branch_work.values())
        for strat in ("none", "diffusive"):
            r = simulate_rrt(mixed_workload, 8, strat)
            assert r.nodes_per_pe.sum() == pytest.approx(total)

    def test_work_stealing_helps_clutter(self, mixed_workload):
        base = simulate_rrt(mixed_workload, 16, "none").total_time
        ws = simulate_rrt(mixed_workload, 16, "diffusive").total_time
        assert ws < base

    def test_repartition_charges_probe_cost(self, mixed_workload):
        r = simulate_rrt(mixed_workload, 8, "repartition")
        assert r.phases.lb_overhead > 0
        assert r.repartition_info is not None

    def test_k_rays_probed_once_per_workload(self, monkeypatch):
        """The probe's weights depend on the workload alone, so replays at
        every PE count share one probe; each still pays its virtual cost."""
        from repro.core import parallel_rrt

        calls = []

        def probe(*args, **kwargs):
            calls.append(kwargs)
            return rrt_k_rays_weights(*args, **kwargs)

        monkeypatch.setattr(parallel_rrt, "rrt_k_rays_weights", probe)
        cs = EuclideanCSpace(free_env())
        wl = build_rrt_workload(cs, np.zeros(3), num_regions=32, nodes_per_region=4, seed=1)
        runs = [simulate_rrt(wl, p, "repartition") for p in (4, 8, 4)]
        assert len(calls) == 1
        assert all(r.phases.weigh > 0 for r in runs)
        assert runs[0].total_time == runs[2].total_time

    def test_free_env_neutral(self, free_workload):
        base = simulate_rrt(free_workload, 8, "none").total_time
        for strat in ("diffusive", "rand-8"):
            t = simulate_rrt(free_workload, 8, strat).total_time
            assert t < 1.25 * base

    def test_deterministic(self, mixed_workload):
        a = simulate_rrt(mixed_workload, 8, "rand-8")
        b = simulate_rrt(mixed_workload, 8, "rand-8")
        assert a.total_time == b.total_time


class TestKRaysProbe:
    """``Environment.ray_free_distance`` runs one slab test over every box;
    the box-by-box loop is its oracle."""

    def test_weights_and_casts_equal_the_per_box_loop(self):
        env = mixed_30_env()
        root = np.array([0.25, -0.5, 0.75])
        radial = RadialSubdivision(root, 6.0, 1024, rng=np.random.default_rng(3))
        got = rrt_k_rays_weights(radial, env, k_rays=8, rng=np.random.default_rng(7))
        charged = env.counters.segment_checks
        with mock.patch.object(Environment, "ray_free_distance", ray_free_distance_per_box):
            want = rrt_k_rays_weights(radial, env, k_rays=8, rng=np.random.default_rng(7))
        assert got == want and got[1] == 1024 * 8
        assert env.counters.segment_checks == 2 * charged

    def test_axis_parallel_rays_and_faces(self):
        """Rays along an axis (zero components) and origins on box faces."""
        env = mixed_30_env()
        lo, hi = env.kernel_data().box_lo, env.kernel_data().box_hi
        rng = np.random.default_rng(11)
        for i in range(400):
            origin = rng.uniform(-4.0, 4.0, 3)
            if i % 2:
                box = int(rng.integers(lo.shape[0]))
                axis = int(rng.integers(3))
                origin[axis] = (lo if i % 4 == 1 else hi)[box, axis]
            direction = rng.normal(size=3) * (rng.random(3) < 0.6)
            if not direction.any():
                direction[int(rng.integers(3))] = rng.choice([-1.0, 1.0])
            want = ray_free_distance_per_box(env, origin, direction, 5.0)
            assert env.ray_free_distance(origin, direction, 5.0) == want
