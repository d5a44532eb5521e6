"""Tests for the plan() facade (repro.api) and the unified result protocol."""

import dataclasses
import inspect

import numpy as np
import pytest

from repro import (
    ExecutionPolicy,
    JsonlSink,
    MemorySink,
    ObsConfig,
    PlanRequest,
    Tracer,
    WorkloadSpec,
    plan,
    read_jsonl,
)
from repro.api import LOCAL_PRM, LOCAL_RRT, _region_planner, _RegionTask
from repro.core import (
    STRATEGIES,
    PhaseTimes,
    PRMRegionPlanner,
    RRTRegionPlanner,
    RunResult,
    build_prm_workload,
    build_rrt_workload,
    default_root,
    phases_dict,
    simulate_prm,
    simulate_rrt,
)
from repro.core.parallel_prm import ID_SHIFT
from repro.obs import summarize_events
from repro.planners.stats import PlannerStats

from .oracle import (
    adjacency_fingerprint,
    assert_same,
    digest,
    region_values,
    roadmap_fingerprint,
)


def _vertices(rmap):
    ids, cfgs = rmap.configs_array()
    order = np.argsort(ids, kind="stable")
    return ids[order].tolist(), cfgs[order].tolist()


def _intra_region_edges(rmap):
    return sorted(
        (min(u, v), max(u, v), w)
        for u, v, w in rmap.edges()
        if u >> ID_SHIFT == v >> ID_SHIFT
    )


class TestPlanRequestValidation:
    def test_defaults_valid(self):
        PlanRequest().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workload": WorkloadSpec(planner="astar")},
            {"execution": ExecutionPolicy(mode="cloud")},
            {"execution": ExecutionPolicy(strategy="telepathy")},
            {"workload": WorkloadSpec(num_regions=0)},
            {"execution": ExecutionPolicy(num_pes=0)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            PlanRequest(**kwargs).validate()

    @pytest.mark.parametrize("name", ["rand-k", "magic"])
    def test_spec_and_simulators_share_one_strategy_vocabulary(self, name):
        """A name outside ``STRATEGIES`` fails the spec and both simulators
        alike, with the same ``ValueError``, before a simulator runs."""
        assert name not in STRATEGIES
        with pytest.raises(ValueError) as spec_error:
            ExecutionPolicy(strategy=name).validate()
        for planner in ("prm", "rrt"):
            req = PlanRequest(workload=WorkloadSpec(
                planner=planner, num_regions=8, samples_per_region=3, nodes_per_region=3,
            ))
            workload = req.workload.build_workload(req.resolve_cspace())
            simulate = simulate_prm if planner == "prm" else simulate_rrt
            with pytest.raises(ValueError) as sim_error:
                simulate(workload, 4, name)
            assert str(sim_error.value) == str(spec_error.value)


class TestPlanParity:
    """plan() must be a pure facade: same seed => identical results to the
    legacy build_*_workload + simulate_* chain."""

    def test_prm_matches_legacy_chain(self):
        req = PlanRequest(
            workload=WorkloadSpec(
                environment="med-cube", planner="prm", num_regions=64,
                samples_per_region=4, seed=3,
            ),
            execution=ExecutionPolicy(strategy="hybrid", num_pes=8),
        )
        report = plan(req)

        workload = build_prm_workload(
            req.resolve_cspace(),
            num_regions=64,
            samples_per_region=4,
            seed=3,
        )
        legacy = simulate_prm(workload, 8, "hybrid")

        assert report.roadmap.num_vertices == workload.roadmap.num_vertices
        assert report.roadmap.num_edges == workload.roadmap.num_edges
        assert report.total_time == pytest.approx(legacy.total_time)
        assert phases_dict(report.phases) == pytest.approx(phases_dict(legacy.phases))

    def test_rrt_matches_legacy_chain(self):
        req = PlanRequest(
            workload=WorkloadSpec(
                environment="med-cube", planner="rrt", num_regions=24,
                nodes_per_region=6, seed=5,
            ),
            execution=ExecutionPolicy(strategy="rand-8", num_pes=8),
        )
        report = plan(req)

        cspace = req.resolve_cspace()
        workload = build_rrt_workload(
            cspace, default_root(cspace, 5), num_regions=24, nodes_per_region=6, seed=5
        )
        legacy = simulate_rrt(workload, 8, "rand-8")

        assert report.roadmap.num_vertices == workload.roadmap.num_vertices
        assert report.total_time == pytest.approx(legacy.total_time)
        assert phases_dict(report.phases) == pytest.approx(phases_dict(legacy.phases))


class TestPlanTracing:
    def test_trace_reconstructs_result_exactly(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[MemorySink(), JsonlSink(path)])
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=64, samples_per_region=4, seed=3),
                execution=ExecutionPolicy(strategy="rand-8", num_pes=8),
                obs=ObsConfig(tracer=tracer),
            )
        )
        tracer.close()

        summary = summarize_events(read_jsonl(path))
        # Phase spans reproduce the PhaseTimes fields exactly (Fig. 7a).
        assert summary.phases == pytest.approx(phases_dict(report.phases))
        # Steal protocol counts reproduce the SimResult totals (Fig. 9).
        sim = report.sim
        assert summary.steal_requests == sum(p.steal_requests_sent for p in sim.pe_stats)
        assert summary.steal_transfers == sum(p.steals_serviced for p in sim.pe_stats)
        assert summary.tasks_migrated == sum(p.tasks_lost for p in sim.pe_stats)
        assert summary.tasks_executed == sum(p.tasks_executed for p in sim.pe_stats)
        # Disk and memory sinks saw the same stream.
        assert summary == report.trace_summary()

    def test_traced_and_untraced_agree(self):
        wl = WorkloadSpec(num_regions=64, samples_per_region=4, seed=3)
        ex = ExecutionPolicy(strategy="hybrid", num_pes=8)
        plain = plan(wl, execution=ex)
        traced = plan(wl, execution=ex, obs=ObsConfig(tracer=Tracer()))
        assert plain.total_time == pytest.approx(traced.total_time)

    def test_summary_renders(self):
        tracer = Tracer()
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=32, samples_per_region=4, seed=1),
                execution=ExecutionPolicy(strategy="rand-8", num_pes=8),
                obs=ObsConfig(tracer=tracer),
            )
        )
        text = report.summary()
        assert "PRM / rand-8 on 8 PEs" in text
        assert "construct" in text

    def test_summary_header_names_the_simulated_machine(self):
        report = plan(WorkloadSpec(num_regions=8, samples_per_region=2, seed=1),
                      execution=ExecutionPolicy(strategy="hybrid", num_pes=4))
        assert report.summary().splitlines()[0] == "PRM / hybrid on 4 PEs (simulate)"


class TestLocalExecution:
    def test_prm_local(self):
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(
                    planner="prm", num_regions=8, samples_per_region=4, seed=2,
                ),
                execution=ExecutionPolicy(mode="local", workers=2),
            )
        )
        assert report.pool is not None and report.result is None
        assert len(report.pool.results) == 8
        assert report.roadmap.num_vertices > 0
        assert report.total_time == report.pool.wall_time
        assert report.phases is None and report.sim is None

    def test_rrt_local(self):
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(
                    planner="rrt", num_regions=6, nodes_per_region=4, seed=2,
                ),
                execution=ExecutionPolicy(mode="local", workers=2),
            )
        )
        assert report.pool is not None
        assert report.roadmap.num_vertices > 0
        assert "slowest region" in report.summary()

    @pytest.mark.parametrize("workers, backend, header", [
        (1, "thread", "RRT on 1 thread worker (local)"),
        (2, "process", "RRT on 2 process workers (local)"),
    ], ids=["thread-1", "process-2"])
    def test_summary_header_names_the_pool(self, workers, backend, header):
        """A local run reports the pool it ran on, not the simulate-only
        strategy and PE count its policy still carries."""
        report = plan(
            WorkloadSpec(planner="rrt", num_regions=4, nodes_per_region=3, seed=2),
            execution=ExecutionPolicy(mode="local", workers=workers, backend=backend,
                                      strategy="hybrid", num_pes=16),
        )
        assert report.summary().splitlines()[0] == header

    def test_local_with_tracer(self):
        tracer = Tracer()
        report = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=6, samples_per_region=4, seed=2),
                execution=ExecutionPolicy(mode="local", workers=2),
                obs=ObsConfig(tracer=tracer),
            )
        )
        summary = report.trace_summary()
        assert summary.tasks_executed == len(report.pool.results)


    @pytest.mark.parametrize("planner", ["prm", "rrt"])
    def test_local_regions_equal_builder_regions(self, planner):
        """Local mode and the workload builders run the same regional
        planner: with local mode's eight parameter values handed to the
        builder's region planner, a builder's regions equal the pool's bit
        for bit — on the thread backend and through the shm worker's
        rebuild on the process backend."""
        if planner == "prm":
            wl = WorkloadSpec("med-cube", "prm", num_regions=64, samples_per_region=8, seed=3)
            cspace = wl.resolve_cspace()
            with region_values(PRMRegionPlanner, **LOCAL_PRM):
                built = build_prm_workload(
                    cspace, wl.num_regions, wl.samples_per_region, seed=wl.seed
                )
            work = built.region_work
        else:
            wl = WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=40, seed=3)
            cspace = wl.resolve_cspace()
            with region_values(RRTRegionPlanner, **LOCAL_RRT):
                built = build_rrt_workload(
                    cspace, default_root(cspace, wl.seed), wl.num_regions,
                    wl.nodes_per_region, seed=wl.seed,
                )
            work = built.branch_work
        stats = PlannerStats()
        for w in work.values():
            stats += w.stats
        for backend in ("thread", "process"):
            local = plan(wl, ExecutionPolicy(mode="local", workers=2, backend=backend))
            assert _vertices(local.roadmap) == _vertices(built.roadmap)
            assert local.local_stats == stats
            if planner == "prm":
                # RRT's branch connection rewires edges inside a branch;
                # PRM's region connection only adds edges between regions.
                edges = _intra_region_edges(built.roadmap)
                assert local.roadmap.num_edges == len(edges) > 1000
                assert _intra_region_edges(local.roadmap) == edges

    @pytest.mark.parametrize("planner", ["prm", "rrt"])
    def test_region_planner_ships_inline_to_process_workers(self, planner, monkeypatch):
        """Without shared memory the region planner itself is pickled to
        the process workers; regions must not notice."""
        from repro.runtime import shm

        wl = WorkloadSpec(planner=planner, num_regions=6, samples_per_region=4,
                          nodes_per_region=6, seed=4)
        threaded = plan(wl, ExecutionPolicy(mode="local", workers=1))
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        shipped = plan(wl, ExecutionPolicy(mode="local", workers=2, backend="process"))
        assert shipped.dispatch.shm_bytes == 0 and shipped.dispatch.context_bytes > 0
        assert_same(digest(shipped), digest(threaded))

    @pytest.mark.parametrize(
        "planner_cls, builder, local",
        [(PRMRegionPlanner, build_prm_workload, LOCAL_PRM),
         (RRTRegionPlanner, build_rrt_workload, LOCAL_RRT)],
        ids=["prm", "rrt"],
    )
    def test_region_planner_defaults_are_the_builders(self, planner_cls, builder, local):
        """A builder takes what a ``WorkloadSpec`` carries and plans with
        its region planner's defaults, which are the module constants of
        Alg. 1 / Alg. 2; the planner's other keyword parameters are
        exactly the ones ``LOCAL_*`` overrides, so emptying ``LOCAL_*`` is
        all it takes to make local mode plan the builders' problem."""
        module = inspect.getmodule(planner_cls)
        spec_fields = {f.name for f in dataclasses.fields(WorkloadSpec)}
        assert set(inspect.signature(builder).parameters) - {"cspace", "root"} <= spec_fields
        of_planner = inspect.signature(planner_cls).parameters
        keywords = {n for n, p in of_planner.items() if p.default is not p.empty} - {"seed"}
        assert set(local) == keywords
        for name in keywords:
            assert of_planner[name].default == getattr(module, name.upper()), name

    @pytest.mark.parametrize(
        "wl, digest",
        [
            (WorkloadSpec("med-cube", "prm", num_regions=64, samples_per_region=8, seed=3),
             "afad69b7fe1a314a3c1de7ef0056b6f0c9ad5eb9da1de77c874954ad103229de"),
            (WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=40, seed=3),
             "ab8b74a6c2a19501769bbae296d1a7008045a66f442f2384a5bdbab528e55e07"),
        ],
        ids=["prm", "rrt"],
    )
    def test_local_roadmap_fingerprint_is_pinned(self, wl, digest):
        """Literal digests: local mode's roadmap bits move only with the
        planning problem.  ``prm`` was recorded before the region planner
        moved into ``repro.core``; ``rrt`` when regional branches began
        drawing ``q_rand`` from their own cone (a different RNG stream,
        hence different trees)."""
        report = plan(wl, ExecutionPolicy(mode="local", workers=1))
        assert roadmap_fingerprint(report.roadmap) == digest

    @pytest.mark.parametrize(
        "wl, policy, digest",
        [
            (WorkloadSpec("med-cube", "prm", num_regions=64, samples_per_region=8, seed=3),
             ExecutionPolicy(strategy="rand-8", num_pes=8),
             "fd9f66676486504458ae5a181ee04917f6637b269b742e7471b6a12dad9d76b4"),
            (WorkloadSpec("med-cube", "prm", num_regions=64, samples_per_region=8, seed=3),
             ExecutionPolicy(mode="local", workers=1, chunksize=16),
             "328f6c72eafdeee9eef33aeb52c2c32f485911ea180bfe87407d579fe844e93c"),
            (WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=40, seed=3),
             ExecutionPolicy(mode="local", workers=1),
             "f014d622b4e5a3a44f02aa1203c0bb204bec866dc597c8b22e3bf9f48d3b44fd"),
        ],
        ids=["prm-simulate", "prm-local-blocks", "rrt-local"],
    )
    def test_frozen_adjacency_is_pinned(self, wl, policy, digest):
        """Literal digests of the *ordered* adjacency a served roadmap
        carries (frozen A* breaks ties on each row's neighbour order, which
        ``roadmap_fingerprint`` sorts away).  Recorded while the roadmap
        still kept a dict of dicts per vertex, so they pin that insertion
        order across any change of storage."""
        assert adjacency_fingerprint(plan(wl, policy).roadmap) == digest

    def test_pool_threads_do_not_share_a_sample_domain(self):
        """One ``RRT`` inside the region planner serves every pool thread,
        so the cone a branch samples from has to travel with its ``grow``
        call: kept as planner state, two threads plan some cones with
        each other's proposal and the merged tree differs from the
        one-worker run's."""
        wl = WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=40, seed=3)
        serial = digest(plan(wl, ExecutionPolicy(mode="local", workers=1)))
        for _ in range(5):
            threaded = plan(wl, ExecutionPolicy(mode="local", workers=2, backend="thread"))
            assert_same(digest(threaded), serial)

    def test_regional_rrt_samples_in_its_cone(self, monkeypatch):
        """Counts, not seconds, on the benchmark's pinned mixed-30 8 x 400
        problem: a branch that draws ``q_rand`` from its own cone turns
        most samples into nodes, and the membership guard — still run on
        every valid candidate — rejects almost none of them.  Drawing from
        the whole workspace read 0.079 and 75 %."""
        from repro.subdivision.radial import ConeRegion

        seen = rejected = 0
        contains_many = ConeRegion.contains_many

        def counting(self, configs):
            nonlocal seen, rejected
            mask = contains_many(self, configs)
            seen += mask.size
            rejected += int(mask.size - mask.sum())
            return mask

        monkeypatch.setattr(ConeRegion, "contains_many", counting)
        wl = WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=400, seed=20140519)
        stats = plan(wl, ExecutionPolicy(mode="local", workers=1)).local_stats
        assert stats.samples_accepted == 8 * 400
        assert stats.samples_accepted / stats.sample_attempts >= 0.6
        assert seen >= stats.lp_calls  # nothing reaches the local planner unguarded
        assert rejected < 0.01 * seen


class TestChunksAreBlocks:
    """A pool worker plans its chunk as blocks: guarded by call counts and
    by traced bytes, not by a stopwatch."""

    def test_one_build_and_a_few_tree_walks_per_sub_block(self, monkeypatch):
        """125 regions in chunks of 24, each cut into two 12-region
        sub-blocks by the ``_BLOCK_POINTS`` budget: ``PRM.build`` runs once
        per sub-block (local mode has no boost pass), and every validity
        pass of a build — a sampling round, the local plans — walks the
        tree once for the whole sub-block."""
        from repro.cspace.space import EuclideanCSpace
        from repro.geometry.bvh import BVH
        from repro.geometry.scenarios import shelf_warehouse
        from repro.planners.prm import PRM

        calls = {"build": 0, "points_hit": 0, "valid": 0}
        for cls, name in ((PRM, "build"), (BVH, "points_hit"), (EuclideanCSpace, "valid")):
            def counted(self, *args, _name=name, _method=getattr(cls, name), **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        wl = WorkloadSpec(shelf_warehouse(500, seed=1), "prm", num_regions=96,
                          samples_per_region=32, seed=1)
        report = plan(wl, ExecutionPolicy(mode="local", workers=1, chunksize=24,
                                          kernel_backend="bvh"))
        regions = _region_planner(wl.resolve_cspace(), wl)
        rids = regions.region_ids
        sub_blocks = [b for lo in range(0, len(rids), 24) for b in regions.blocks(rids[lo:lo + 24])]
        assert len(rids) == 125 and [len(b) for b in sub_blocks] == [12, 12] * 5 + [5]
        assert report.dispatch.chunks_issued == 6
        assert calls["build"] == len(sub_blocks)
        assert calls["points_hit"] == calls["valid"] <= 6 * len(sub_blocks) < len(rids)

    def test_a_162_region_chunk_stays_within_reach_of_the_loops_memory(self):
        """The first guided chunk of the 648-region warehouse plan at two
        workers is 162 regions.  Cut into sub-blocks it peaks ~6 MiB above
        the one-region loop (traced: 8.5 against 2.4 MiB); planned as one
        block it would peak at 27.8 MiB, enough to breach the benchmark's
        10 % ``peak_rss_mb`` bound on its own."""
        import tracemalloc

        from repro.geometry.scenarios import shelf_warehouse

        wl = WorkloadSpec(shelf_warehouse(20000, seed=1), "prm", num_regions=600,
                          samples_per_region=16, seed=1)
        task = _RegionTask(_region_planner(wl.resolve_cspace(kernel_backend="bvh"), wl))
        rids = task.regions.region_ids[:162]
        task(rids[0])  # the tree is built outside both windows

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loop = peak(lambda: [task(rid) for rid in rids])
        blocks = peak(lambda: task.run_block(rids))
        assert blocks < loop + 8 * 2**20


class TestResultProtocols:
    def test_run_results_satisfy_protocols(self):
        prm = plan(PlanRequest(
            workload=WorkloadSpec(num_regions=32, samples_per_region=4, seed=1),
            execution=ExecutionPolicy(strategy="hybrid", num_pes=4),
        ))
        rrt = plan(PlanRequest(
            workload=WorkloadSpec(
                planner="rrt", num_regions=12, nodes_per_region=4, seed=1,
            ),
            execution=ExecutionPolicy(strategy="none", num_pes=4),
        ))
        for report in (prm, rrt):
            assert isinstance(report.result, RunResult)
            assert isinstance(report.phases, PhaseTimes)
            pd = phases_dict(report.phases)
            assert sum(pd.values()) == pytest.approx(report.phases.total)
            assert report.result.sim is not None
            assert report.result.loads is not None
            assert report.result.total_time == report.total_time

    def test_phase_vocabulary_is_shared(self):
        prm = plan(PlanRequest(
            workload=WorkloadSpec(num_regions=32, samples_per_region=4),
            execution=ExecutionPolicy(num_pes=4),
        ))
        rrt = plan(PlanRequest(
            workload=WorkloadSpec(planner="rrt", num_regions=12, nodes_per_region=4),
            execution=ExecutionPolicy(num_pes=4),
        ))
        prm_names = [name for name, _ in prm.phases.phase_items()]
        rrt_names = [name for name, _ in rrt.phases.phase_items()]
        # RRT has no generate phase; otherwise the vocabulary is identical.
        assert [n for n in prm_names if n != "generate"] == rrt_names


class TestDeterminismAndChunking:
    def test_seeded_local_runs_identical(self):
        """Two plan() calls with the same seed must build statistically
        identical roadmaps — the reproducibility contract the benchmark
        suite and the paper's figures both rely on."""
        def run():
            wl = WorkloadSpec(planner="prm", num_regions=8, samples_per_region=5, seed=7)
            return digest(plan(wl, ExecutionPolicy(mode="local", workers=2)))

        assert_same(run(), run())

    def test_chunksize_wired_through(self):
        base = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=8, samples_per_region=4, seed=3),
                execution=ExecutionPolicy(mode="local", workers=2),
            )
        )
        chunked = plan(
            PlanRequest(
                workload=WorkloadSpec(num_regions=8, samples_per_region=4, seed=3),
                execution=ExecutionPolicy(mode="local", workers=2, chunksize=3),
            )
        )
        assert len(chunked.pool.results) == len(base.pool.results) == 8
        assert chunked.roadmap.num_vertices == base.roadmap.num_vertices

    def test_chunksize_validated(self):
        with pytest.raises(ValueError):
            PlanRequest(execution=ExecutionPolicy(chunksize=0)).validate()
