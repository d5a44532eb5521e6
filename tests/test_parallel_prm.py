"""Integration tests for the load-balanced parallel PRM driver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.api import _RegionTask
from repro.core import PRMRegionPlanner, build_prm_workload, parallel_prm, simulate_prm
from repro.core.metrics import coefficient_of_variation
from repro.cspace import EuclideanCSpace, StraightLinePlanner, UniformSampler
from repro.geometry import AABB, Environment, free_env, med_cube
from repro.geometry.environments import by_name
from repro.geometry.scenarios import shelf_warehouse
from repro.knn import BruteForceNN
from repro.planners import Roadmap, RoadmapQuery
from repro.runtime import run_tasks_parallel

from .oracle import assert_same, box_obstacle_relation, digest, region_loop, region_values


@pytest.fixture(scope="module")
def medcube_workload():
    cs = EuclideanCSpace(med_cube())
    return build_prm_workload(cs, num_regions=500, samples_per_region=6, seed=3)


@pytest.fixture(scope="module")
def free_workload():
    cs = EuclideanCSpace(free_env())
    return build_prm_workload(cs, num_regions=500, samples_per_region=6, seed=3)


def _probe_boxes(env, rng, n=20):
    """Boxes that land in every class of ``box_obstacle_relation``: inside
    an obstacle, straddling one, anywhere, an obstacle itself and boxes
    sharing exactly one face (or corner) with one."""
    olo, ohi = env._obs_lo, env._obs_hi
    pick = rng.integers(0, olo.shape[0], size=3 * n)
    t = np.sort(rng.uniform(-0.5, 1.5, size=(3 * n, 2, env.dim)), axis=1)
    t[:n] = np.sort(rng.uniform(0.0, 1.0, size=(n, 2, env.dim)), axis=1)
    lo = olo[pick] + t[:, 0] * (ohi - olo)[pick]
    hi = olo[pick] + t[:, 1] * (ohi - olo)[pick]
    spot = rng.uniform(env.bounds.lo, env.bounds.hi, size=(n, env.dim))
    lo[2 * n:], hi[2 * n:] = spot, spot + rng.uniform(0.0, 0.3, size=(n, env.dim))
    face_lo, face_hi = ohi[pick[:n]].copy(), ohi[pick[:n]] + 0.25
    face_lo[:, 1:] = olo[pick[:n], 1:]
    return (np.concatenate((lo, olo[pick[:n]], face_lo, ohi[pick[:n]])),
            np.concatenate((hi, ohi[pick[:n]], face_hi, ohi[pick[:n]] + 0.1)))


class TestBoostMask:
    """The narrow-passage test is one ``Environment.boxes_on_boundary``
    classification per block; :func:`tests.oracle.box_obstacle_relation`
    ``== "boundary"`` per region is its oracle."""

    @pytest.mark.parametrize("scene, num_regions", [
        ("med-cube", 1000), ("mixed-30", 343), ("warehouse-2000", 64),
    ])
    def test_mask_equals_the_relation(self, scene, num_regions):
        env = shelf_warehouse(2000, seed=3) if scene == "warehouse-2000" else by_name(scene)
        regions = PRMRegionPlanner(EuclideanCSpace(env), num_regions, 4, seed=0)
        rids = regions.region_ids
        cores = [regions.decomposition.region_of(rid).bounds for rid in rids]
        lo, hi = _probe_boxes(env, np.random.default_rng(num_regions))
        boxes = cores + [AABB(a, b) for a, b in zip(lo, hi)]
        want = [box_obstacle_relation(env, box) for box in boxes]
        assert {"free", "blocked", "boundary"} <= set(want)
        boundary = [rel == "boundary" for rel in want]
        got = env.boxes_on_boundary(np.array([b.lo for b in boxes]),
                                    np.array([b.hi for b in boxes]))
        assert got.tolist() == boundary
        boost = regions._boost(rids)
        assert boost.tolist() == [regions.boost_samples * b for b in boundary[: len(rids)]]

    def test_memory_grows_with_the_boxes_not_with_boxes_times_obstacles(self):
        rng = np.random.default_rng(0)
        corner = rng.uniform(-10.0, 9.0, size=(20000, 3))
        env = Environment.from_arrays(AABB([-10.0] * 3, [10.0] * 3), corner, corner + 0.5)
        grid = PRMRegionPlanner(EuclideanCSpace(env), 600, 4).decomposition
        tracemalloc.start()
        env.boxes_on_boundary(grid.lo, grid.hi)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # One (boxes, obstacles, d) temporary would be 36 MB.
        assert peak < 4 * 2**20


class TestWorkloadConstruction:
    def test_region_work_complete(self, medcube_workload):
        wl = medcube_workload
        assert set(wl.region_work) == set(wl.subdivision.graph.region_ids())
        assert all(w.gen_cost >= 0 and w.connect_cost >= 0 for w in wl.region_work.values())

    def test_roadmap_vertices_match_sample_counts(self, medcube_workload):
        wl = medcube_workload
        total = sum(w.num_samples for w in wl.region_work.values())
        assert wl.roadmap.num_vertices == total
        assert wl.sample_positions.shape[0] == total

    def test_vertex_ids_encode_regions(self, medcube_workload):
        wl = medcube_workload
        from repro.core.parallel_prm import ID_SHIFT
        for vid in wl.roadmap.vertices():
            rid = vid >> ID_SHIFT
            assert rid in wl.region_work

    def test_boundary_regions_heavier(self, medcube_workload):
        """Narrow-passage refinement concentrates work near the obstacle."""
        wl = medcube_workload
        env = wl.cspace.env
        boundary_costs, free_costs = [], []
        for rid, work in wl.region_work.items():
            rel = box_obstacle_relation(env, wl.subdivision.region_of(rid).bounds)
            if rel == "boundary":
                boundary_costs.append(work.connect_cost)
            elif rel == "free":
                free_costs.append(work.connect_cost)
        assert np.mean(boundary_costs) > 2.0 * np.mean(free_costs)

    def test_adjacency_work_covers_graph(self, medcube_workload):
        wl = medcube_workload
        pairs = {(a.a, a.b) for a in wl.adjacency_work}
        assert pairs == {(a, b) for a, b in wl.subdivision.graph.edges()}

    def test_workload_deterministic(self):
        cs = EuclideanCSpace(med_cube())
        a = build_prm_workload(cs, num_regions=100, samples_per_region=4, seed=11)
        cs2 = EuclideanCSpace(med_cube())
        b = build_prm_workload(cs2, num_regions=100, samples_per_region=4, seed=11)
        assert a.roadmap.num_vertices == b.roadmap.num_vertices
        for rid in a.region_work:
            assert a.region_work[rid].connect_cost == b.region_work[rid].connect_cost

    def test_roadmap_answers_queries(self, free_workload):
        wl = free_workload
        q = RoadmapQuery(wl.cspace)
        out = q.solve(wl.roadmap, np.array([-9.0, -9.0, -9.0]), np.array([9.0, 9.0, 9.0]))
        assert out is not None

    def test_zero_boost_flattens_boundary_effect(self):
        regions = PRMRegionPlanner(
            EuclideanCSpace(med_cube()), 200, 4, seed=5, narrow_passage_boost=0.0
        )
        counts = [st.samples_accepted for st in regions.plan_block(regions.region_ids).stats]
        assert max(counts) <= 4
        boosted = PRMRegionPlanner(EuclideanCSpace(med_cube()), 200, 4, seed=5)
        assert max(st.samples_accepted for st in boosted.plan_block(boosted.region_ids).stats) > 4


class TestSimulation:
    def test_all_strategies_run(self, medcube_workload):
        for strat in ("none", "repartition", "hybrid", "rand-8", "diffusive"):
            r = simulate_prm(medcube_workload, 16, strat)
            assert r.total_time > 0
            assert r.phases.node_connection > 0

    def test_unknown_strategy_rejected(self, medcube_workload):
        with pytest.raises(ValueError, match="strategy"):
            simulate_prm(medcube_workload, 8, "magic")

    def test_node_conservation_across_strategies(self, medcube_workload):
        total = medcube_workload.roadmap.num_vertices
        for strat in ("none", "repartition", "hybrid"):
            r = simulate_prm(medcube_workload, 16, strat)
            assert r.nodes_per_pe.sum() == pytest.approx(total)
            assert r.nodes_per_pe_before.sum() == pytest.approx(total)

    def test_repartition_lowers_cov(self, medcube_workload):
        r = simulate_prm(medcube_workload, 16, "repartition")
        assert coefficient_of_variation(r.nodes_per_pe) < coefficient_of_variation(
            r.nodes_per_pe_before
        )

    def test_load_balancing_beats_baseline(self, medcube_workload):
        base = simulate_prm(medcube_workload, 16, "none").total_time
        for strat in ("repartition", "hybrid"):
            assert simulate_prm(medcube_workload, 16, strat).total_time < base

    def test_free_env_no_imbalance_no_churn(self, free_workload):
        base = simulate_prm(free_workload, 16, "none")
        repart = simulate_prm(free_workload, 16, "repartition")
        assert repart.total_time < 1.2 * base.total_time

    def test_repartition_increases_remote_accesses(self, medcube_workload):
        none = simulate_prm(medcube_workload, 32, "none")
        repart = simulate_prm(medcube_workload, 32, "repartition")
        assert repart.roadmap_graph_remote >= none.roadmap_graph_remote

    def test_stealing_transfers_ownership(self, medcube_workload):
        r = simulate_prm(medcube_workload, 16, "hybrid")
        stolen = r.sim.stolen_per_pe().sum()
        assert stolen > 0

    def test_simulation_deterministic(self, medcube_workload):
        a = simulate_prm(medcube_workload, 16, "rand-8")
        b = simulate_prm(medcube_workload, 16, "rand-8")
        assert a.total_time == b.total_time

    def test_strong_scaling_baseline(self, medcube_workload):
        t8 = simulate_prm(medcube_workload, 8, "none").total_time
        t32 = simulate_prm(medcube_workload, 32, "none").total_time
        assert t32 < t8

    def test_mismatched_topology_rejected(self, medcube_workload):
        from repro.runtime import ClusterTopology
        with pytest.raises(ValueError):
            simulate_prm(medcube_workload, 8, "none", topology=ClusterTopology(16))


# ---------------------------------------------------------------------------
# Regions as segments: the block passes replay the per-region loop exactly
# ---------------------------------------------------------------------------

def _assert_block_equals_loop(env, num_regions, samples_per_region, seed, **values):
    """Block and loop builds agree, their region planner given ``values``."""
    def build():
        with region_values(PRMRegionPlanner, **values):
            return build_prm_workload(
                EuclideanCSpace(by_name(env)), num_regions, samples_per_region, seed
            )

    block = build()
    with region_loop():
        loop = build()
    assert_same(digest(block), digest(loop))
    return block


class TestBlocksEqualLoop:
    @pytest.mark.parametrize(
        "env, num_regions, kwargs",
        [
            ("med-cube", 64, {}),
            ("med-cube", 100, {}),
            ("med-cube", 256, {}),
            ("med-cube", 500, {}),
            ("med-cube", 1024, {}),
            ("small-cube", 256, {}),
            ("free", 256, {}),
            ("walls", 256, {}),
            ("mixed-30", 125, {}),
            # local mode's values
            ("med-cube", 256, {"k": 6, "lp_resolution": 0.25, "narrow_passage_boost": 0.0}),
            ("med-cube", 256, {"samples_per_region": 20, "k": 5, "narrow_passage_boost": 1.0}),
            # boost pass of 210 samples per region: a segment wider than PRM's _BLOCK
            ("med-cube", 27, {"samples_per_region": 70}),
            # wide enough for the narrowed k-NN selection
            ("med-cube", 8, {"samples_per_region": 150}),
            ("mixed-30", 1, {"samples_per_region": 40}),
        ],
    )
    def test_parity_battery(self, env, num_regions, kwargs):
        kwargs = {"samples_per_region": 8, "seed": 21 + num_regions, **kwargs}
        _assert_block_equals_loop(env, num_regions, **kwargs)

    @settings(max_examples=12, deadline=None)
    @example(seed=0, env="med-cube", num_regions=27, spr=1, k=1, boost=3, lp_resolution=0.5)
    @example(seed=5, env="med-cube", num_regions=2, spr=70, k=8, boost=1, lp_resolution=0.25)
    @given(
        seed=st.integers(0, 2**31 - 1),
        env=st.sampled_from(["free", "med-cube", "small-cube", "walls", "mixed-30"]),
        num_regions=st.sampled_from([1, 2, 27, 64, 125]),
        spr=st.integers(1, 70),
        k=st.integers(1, 8),
        boost=st.sampled_from([0, 1, 3]),
        lp_resolution=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_property(self, seed, env, num_regions, spr, k, boost, lp_resolution):
        # Keep an example's two builds to a second or so.
        assume(num_regions * spr * (1 + boost) <= (600 if env == "mixed-30" else 3000))
        _assert_block_equals_loop(
            env, num_regions, spr, seed,
            k=k, narrow_passage_boost=float(boost), lp_resolution=lp_resolution,
        )

    def test_blocked_region_costs_three_empty_rounds(self):
        """med-cube's central cell of a 3x3x3 grid lies inside the obstacle:
        zero samples after three rounds of four attempts, no k-NN, no
        local plans — in a block beside regions that do have samples."""
        wl = _assert_block_equals_loop("med-cube", 27, samples_per_region=4, seed=2)
        stats = wl.region_work[13].stats
        assert (stats.sample_attempts, stats.samples_accepted) == (12, 0)
        assert stats.nn_queries == stats.lp_calls == 0

    def test_the_loop_switch_plans_no_block(self, monkeypatch):
        """Under :func:`region_loop` nothing is planned as a block — not by
        the build, not by a pool chunk — so the battery above compares
        blocks with the loop, never blocks with blocks."""
        calls = []
        original = PRMRegionPlanner.plan_block
        monkeypatch.setattr(
            PRMRegionPlanner, "plan_block",
            lambda self, rids: calls.append(len(rids)) or original(self, rids),
        )
        cs = EuclideanCSpace(by_name("med-cube"))
        regions = PRMRegionPlanner(cs, 27, 4, seed=1)
        build_prm_workload(cs, 27, samples_per_region=4, seed=1)
        assert calls
        assert _RegionTask(regions).run_block(regions.region_ids) is not None
        del calls[:]
        with region_loop():
            build_prm_workload(cs, 27, samples_per_region=4, seed=1)
            assert _RegionTask(regions).run_block(regions.region_ids) is None
            pool = run_tasks_parallel(
                _RegionTask(regions), regions.region_ids, workers=2, chunksize=7
            )
        assert not calls
        assert {type(value[0]) for value in pool.results.values()} == {Roadmap}

    def test_collision_calls_scale_with_blocks_not_regions(self, monkeypatch):
        """The perf guard: a per-region loop coming back shows up as calls
        per region (the parent makes 2,199 ``valid`` and 1,029
        ``batch_pairs_counted`` calls on this build)."""
        counts = {"valid": 0, "batch_pairs_counted": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(EuclideanCSpace, "valid")
        counting(StraightLinePlanner, "batch_pairs_counted")
        wl = build_prm_workload(
            EuclideanCSpace(by_name("med-cube")), 256, samples_per_region=8, seed=1
        )
        steps = float(np.linalg.norm(20.0 / np.asarray(wl.subdivision.shape))) / 0.1
        region_blocks = -(-wl.num_regions // parallel_prm._block_size(8 * 4 * steps))
        adjacency_blocks = -(-len(wl.adjacency_work) // parallel_prm._block_size(16 * 2 * steps))
        assert region_blocks + adjacency_blocks < wl.num_regions // 8
        # Per region block: two passes (fresh, boost); per adjacency block: one.
        assert counts["batch_pairs_counted"] <= 2 * region_blocks + adjacency_blocks
        # ... plus the sampler's lock-step rounds, at most max_rounds per pass.
        rounds = UniformSampler().max_rounds
        assert counts["valid"] <= 2 * (rounds + 1) * region_blocks + adjacency_blocks
        assert counts["valid"] < wl.num_regions


class TestSegmentedNeighbours:
    """``BruteForceNN``'s ``segments=`` queries equal one finder per segment,
    ties included (lattice points: many equal distances)."""

    @staticmethod
    def _segments(seed, wide):
        """A finder over up to five stored segments, the query rows of each
        segment, and one fresh finder per segment holding only its rows."""
        rng = np.random.default_rng(seed)
        g, top = int(rng.integers(1, 6)), 60 if wide else 7
        so, qo = (np.concatenate(([0], np.cumsum(c))) for c in rng.integers(0, top, size=(2, g)))
        stored = rng.integers(0, 4, size=(so[-1], 2)).astype(float)
        queries = rng.integers(0, 4, size=(qo[-1], 2)).astype(float)
        stored_ids = np.arange(so[-1]) + 1000
        nn = BruteForceNN(2)
        nn.add_batch(stored_ids, stored)
        ones = [BruteForceNN(2) for _ in range(g)]
        for s, one in enumerate(ones):
            one.add_batch(stored_ids[so[s]:so[s + 1]], stored[so[s]:so[s + 1]])
        return nn, (so, qo), queries, ones

    @staticmethod
    def _same_charges(nn, ones):
        assert (nn.stats.queries, nn.stats.distance_evals) == (
            sum(o.stats.queries for o in ones), sum(o.stats.distance_evals for o in ones))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 6), wide=st.booleans())
    def test_growing_segments_equal_one_finder_each(self, seed, k, wide):
        nn, (so, bo), block, ones = self._segments(seed, wide)
        block_ids = np.arange(bo[-1]) + 5000
        ids, dists = nn.knn_block_growing(block_ids, block, k, segments=(so, bo))
        assert len(nn) == so[-1] + bo[-1]
        for s, one in enumerate(ones):
            for row in range(bo[s], bo[s + 1]):  # the interleaved query-then-insert loop
                want = one.knn(block[row], k)
                one.add(int(block_ids[row]), block[row])
                assert ids[row, : len(want)].tolist() == [i for i, _d in want]
                assert dists[row, : len(want)].tolist() == [d for _i, d in want]
                assert (ids[row, len(want):] == -1).all() and np.isinf(dists[row, len(want):]).all()
        self._same_charges(nn, ones)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 6), wide=st.booleans())
    def test_static_segments_equal_one_finder_each(self, seed, k, wide):
        nn, (so, qo), queries, ones = self._segments(seed, wide)
        ids, dists = nn.knn_batch_arrays(queries, k, segments=(so, qo))
        for s, one in enumerate(ones):
            for row in range(qo[s], qo[s + 1]):
                want = one.knn(queries[row], k)
                assert ids[row, : len(want)].tolist() == [i for i, _d in want]
                assert dists[row, : len(want)].tolist() == [d for _i, d in want]
                assert (ids[row, len(want):] == -1).all()
        self._same_charges(nn, ones)

    def test_offsets_must_partition_the_rows(self):
        nn = BruteForceNN(2)
        nn.add_batch(np.arange(3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            nn.knn_batch_arrays(np.zeros((2, 2)), 1, segments=([0, 2], [0, 2]))


def test_mixed30_build_memory_is_bounded():
    """A 256-region mixed-30 build (125 boxes) hands whole blocks of points
    to the reference kernels, whose all-pairs scan holds two ``(points,
    boxes)`` bool planes per call.  Sliced inside ``points_free`` the build
    peaks at 10.9 MiB traced (8.6 MiB of it the finished workload);
    unsliced, the largest call (45,663 points) takes the peak to 17.9 MiB."""
    cs = EuclideanCSpace(by_name("mixed-30"))
    tracemalloc.start()
    try:
        build_prm_workload(cs, 256, samples_per_region=8, seed=1)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
