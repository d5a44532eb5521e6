"""Shared-memory data plane + chunk policies: unit, parity, and chaos tests.

Covers the repro.runtime.shm segment lifecycle (publish/attach/release,
refcounts, dedup, inline fallback, stale-segment sweeping), the chunk
policies in repro.runtime.chunking, dispatch accounting on PoolResult,
true worker-side task start stamps, and the end-to-end planes on plan().
``TestLocalParityMatrix`` is the oracle matrix's execution half: every
chunk policy, plane, cull and worker count against the serial run.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.api import _publish_plan, plan
from repro.geometry.bvh import _ARRAYS, BVH
from repro.geometry.environment import Environment
from repro.geometry.primitives import AABB
from repro.geometry.scenarios import shelf_warehouse
from repro.kernels.bvh_backend import _CACHE_ATTR
from repro.obs.tracer import Tracer
from repro.planners import PRMSegment, Roadmap
from repro.runtime import shm as shm_mod
from repro.runtime.chunking import (
    CHUNK_POLICIES,
    policy_label,
    resolve_chunks,
    validate_chunksize,
)
from repro.runtime.faults import Fault, FaultInjector
from repro.runtime.local_pool import resolve_workers, run_tasks_parallel
from repro.spec import ExecutionPolicy, FaultPolicy, WorkloadSpec

from .oracle import assert_same, digest


def _task(tid: int) -> int:
    return tid * 7 + 1


def _sleepy(tid: int) -> int:
    time.sleep(0.02)
    return tid


# ---------------------------------------------------------------------------
# chunk policies
# ---------------------------------------------------------------------------

class TestChunking:
    def test_policies_registered(self):
        assert CHUNK_POLICIES == ("guided",)

    @pytest.mark.parametrize("bad", [0, -3, True, False, "bogus", 1.5, None])
    def test_validate_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            validate_chunksize(bad)

    def test_labels(self):
        assert policy_label(1) == "fixed-1"
        assert policy_label(16) == "fixed-16"
        assert policy_label("guided") == "guided"

    @pytest.mark.parametrize("chunksize", [1, 3, 64, "guided"])
    def test_chunks_preserve_order(self, chunksize):
        tasks = list(range(37))
        chunks = resolve_chunks(tasks, chunksize, 4)
        flat = [t for c in chunks for t in c]
        assert flat == tasks
        assert all(len(c) >= 1 for c in chunks)

    def test_guided_decays(self):
        sizes = [len(c) for c in resolve_chunks(list(range(160)), "guided", 4)]
        assert sizes[0] == 20  # 160 / (2*4)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1


# ---------------------------------------------------------------------------
# worker resolution
# ---------------------------------------------------------------------------

class TestResolveWorkers:
    def test_none_resolves_to_cpu_count(self):
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_passthrough(self):
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("bad", [0, -1, True, 2.0, "4"])
    def test_rejects(self, bad):
        with pytest.raises((ValueError, TypeError)):
            resolve_workers(bad)

    def test_pool_result_surfaces_resolved_workers(self):
        pool = run_tasks_parallel(_task, [0, 1, 2], workers=None, backend="thread")
        assert pool.workers == (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# shm segment lifecycle
# ---------------------------------------------------------------------------

def _sample_arrays():
    return {
        "a": np.arange(12, dtype=np.float64).reshape(3, 4),
        "b": np.array([5], dtype=np.int64),
    }


class TestShmLifecycle:
    def test_publish_attach_roundtrip(self):
        manifest = shm_mod.publish_arrays(_sample_arrays(), label="t")
        try:
            views = shm_mod.attach_arrays(manifest)
            assert np.array_equal(views["a"], _sample_arrays()["a"])
            assert np.array_equal(views["b"], _sample_arrays()["b"])
            assert not views["a"].flags.writeable
        finally:
            shm_mod.release(manifest)
        assert shm_mod.leaked_segments() == []

    def test_fingerprint_dedup_and_refcount(self):
        m1 = shm_mod.publish_arrays(_sample_arrays(), label="t")
        m2 = shm_mod.publish_arrays(_sample_arrays(), label="t")
        assert m1.fingerprint == m2.fingerprint
        assert m1.segment == m2.segment
        shm_mod.release(m1)
        # Still alive: the second reference holds it.
        assert any(m2.segment == s for s in shm_mod.published_segments())
        shm_mod.release(m2)
        assert shm_mod.leaked_segments() == []

    def test_release_is_refcounted_not_eager(self):
        m1 = shm_mod.publish_arrays(_sample_arrays(), label="t")
        m2 = shm_mod.publish_arrays(_sample_arrays(), label="t")
        shm_mod.release(m2)
        views = shm_mod.attach_arrays(m1)
        assert float(views["a"][0, 0]) == 0.0
        shm_mod.release(m1)

    def test_inline_fallback_when_shm_unavailable(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "shm_available", lambda: False)
        manifest = shm_mod.publish_arrays(_sample_arrays(), label="t")
        assert manifest.segment is None
        assert manifest.inline is not None
        views = shm_mod.attach_arrays(manifest)
        assert np.array_equal(views["a"], _sample_arrays()["a"])
        shm_mod.release(manifest)

    def test_attach_cache_hits_by_fingerprint(self):
        manifest = shm_mod.publish_arrays(_sample_arrays(), label="t")
        try:
            shm_mod.drain_attach_records()
            shm_mod.attach_arrays(manifest)
            shm_mod.attach_arrays(manifest)
            info = shm_mod.drain_attach_records()
            assert info["cached"] >= 1
        finally:
            shm_mod.release(manifest)

    def test_cleanup_stale_removes_dead_owner_segments(self):
        if not shm_mod.shm_available():
            pytest.skip("no POSIX shared memory on this platform")
        from multiprocessing import shared_memory

        # Fake a segment left behind by a dead pid (pid 2**22-ish is
        # outside any live range on test machines).
        name = f"{shm_mod.SEGMENT_PREFIX}-4194000-1-deadbeefdead"
        seg = shared_memory.SharedMemory(create=True, size=16, name=name)
        seg.close()
        assert name in [s.rsplit("/", 1)[-1] for s in shm_mod.leaked_segments()] or True
        removed = shm_mod.cleanup_stale()
        assert name in removed
        assert all(name not in s for s in shm_mod.leaked_segments())


# ---------------------------------------------------------------------------
# pool dispatch accounting + true start stamps
# ---------------------------------------------------------------------------

class TestDispatchAccounting:
    def test_policy_label_and_chunks_on_result(self):
        pool = run_tasks_parallel(
            _task, list(range(20)), workers=2, backend="thread", chunksize="guided"
        )
        assert pool.dispatch.chunk_policy == "guided"
        assert 1 <= pool.dispatch.chunks_issued < 20

    def test_measure_serde_on_process_backend(self):
        pool = run_tasks_parallel(
            _task, list(range(6)), workers=2, backend="process", chunksize=2,
        )
        assert pool.results == {t: t * 7 + 1 for t in range(6)}
        assert pool.dispatch.context_bytes > 0
        assert pool.dispatch.task_bytes > 0
        assert pool.dispatch.serde_s >= 0.0

    def test_true_start_stamps_overlap_for_parallel_tasks(self):
        tr = Tracer()
        run_tasks_parallel(_sleepy, [0, 1], workers=2, backend="thread", tracer=tr)
        evs = {e.name: [] for e in tr.memory.events}
        for e in tr.memory.events:
            evs[e.name].append(e)
        starts = sorted(e.ts for e in evs["task_start"])
        ends = sorted(e.ts for e in evs["task_end"])
        # Both tasks started before either finished: real measured stamps,
        # not a back-to-back reconstruction.
        assert starts[1] < ends[0]
        assert all(ts >= 0.0 for ts in starts)

    def test_serial_chunk_stamps_are_ordered(self):
        tr = Tracer()
        run_tasks_parallel(
            _sleepy, [0, 1, 2], workers=1, backend="thread", chunksize=3, tracer=tr
        )
        by_task = {
            e.attrs["task"]: e.ts
            for e in tr.memory.events
            if e.name == "task_start"
        }
        assert by_task[0] < by_task[1] < by_task[2]


# ---------------------------------------------------------------------------
# spec surface
# ---------------------------------------------------------------------------

class TestSpecSurface:
    def test_data_plane_validation(self):
        for plane in ("auto", "shm"):
            ExecutionPolicy(mode="local", data_plane=plane).validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(mode="local", data_plane="carrier-pigeon").validate()

    def test_chunksize_policy_names_accepted(self):
        ExecutionPolicy(mode="local", chunksize="guided").validate()
        for gone in ("weighted", "adaptive"):
            with pytest.raises(ValueError):
                ExecutionPolicy(mode="local", chunksize=gone).validate()

    def test_workers_none_is_valid(self):
        ExecutionPolicy(mode="local", workers=None).validate()
        with pytest.raises(ValueError):
            ExecutionPolicy(mode="local", workers=0).validate()


# ---------------------------------------------------------------------------
# Environment.from_arrays
# ---------------------------------------------------------------------------

class TestEnvironmentFromArrays:
    def _pair(self):
        bounds = AABB(np.zeros(3), np.full(3, 10.0))
        lo = np.array([[1.0, 1.0, 1.0], [4.0, 4.0, 4.0]])
        hi = lo + 2.0
        classic = Environment(
            bounds, [AABB(lo[0], hi[0]), AABB(lo[1], hi[1])], name="cls"
        )
        adopted = Environment.from_arrays(bounds, lo, hi, name="arr")
        return classic, adopted

    def test_collision_parity(self):
        classic, adopted = self._pair()
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 10.0, size=(256, 3))
        a = classic.kernel_backend.points_free(classic.kernel_data(), pts)
        b = adopted.kernel_backend.points_free(adopted.kernel_data(), pts)
        assert np.array_equal(a, b)

    def test_lazy_obstacle_materialisation(self):
        _, adopted = self._pair()
        assert adopted.num_obstacles == 2
        assert adopted._obstacles is None  # num_obstacles didn't materialise
        obs = adopted.obstacles
        assert len(obs) == 2 and isinstance(obs[0], AABB)

    def test_shape_validation(self):
        bounds = AABB(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            Environment.from_arrays(bounds, np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            Environment.from_arrays(bounds, np.zeros((2, 2)), np.zeros((2, 2)))

    def test_readonly_arrays_accepted(self):
        bounds = AABB(np.zeros(3), np.full(3, 10.0))
        lo = np.array([[1.0, 1.0, 1.0]])
        lo.setflags(write=False)
        hi = np.array([[2.0, 2.0, 2.0]])
        hi.setflags(write=False)
        env = Environment.from_arrays(bounds, lo, hi)
        assert env.num_obstacles == 1

    def test_set_kernel_backend_records_name(self):
        _, adopted = self._pair()
        adopted.set_kernel_backend("bvh")
        assert adopted.kernel_backend.name == "bvh"
        with pytest.raises(ValueError):  # a backend is a name
            adopted.set_kernel_backend(adopted.kernel_backend)


# ---------------------------------------------------------------------------
# end-to-end planes + chaos
# ---------------------------------------------------------------------------

def _small_plan(**ex_kwargs):
    wl = WorkloadSpec(
        environment="med-cube", planner="prm", num_regions=4,
        samples_per_region=8, seed=7,
    )
    ex = ExecutionPolicy(mode="local", workers=2, **ex_kwargs)
    return plan(wl, execution=ex)


def _parts(report):
    """The types region results came back as: ``Roadmap`` from the
    per-task loop, ``PRMSegment`` from a chunk planned as a block."""
    return {type(value[0]) for value in report.pool.results.values()}


class TestLocalParityMatrix:
    """Planner, backend, chunk policy, data plane, kernel backend and
    worker count change how regions reach the planner, never what it
    plans: every cell equals the serial one-region-at-a-time run."""

    WL = WorkloadSpec("mixed-30", "prm", num_regions=27, samples_per_region=6, seed=5)
    RRT = WorkloadSpec("mixed-30", "rrt", num_regions=8, nodes_per_region=20, seed=3)
    #: the (workload, chunksize) rows every cell runs.
    ROWS = ((WL, 1), (WL, 7), (WL, "guided"), (RRT, 1), (RRT, 4))

    @pytest.fixture(scope="class")
    def oracle(self):
        """Per planner: the serial run's digest — roadmap, ordered adjacency
        (in a tree a vertex's first neighbour is its parent), exact
        components, ``PlannerStats`` and ``local_counters``."""
        digests = {}
        for wl in (self.WL, self.RRT):
            report = plan(wl, execution=ExecutionPolicy(mode="local", workers=1))
            assert _parts(report) == {Roadmap} and report.roadmap.num_edges > 150
            digests[wl.planner] = digest(report)
        return digests

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kernel_backend", [None, "bvh"])
    @pytest.mark.parametrize("plane", ["inline", "shm"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_every_cell_equals_the_serial_loop(
        self, oracle, backend, plane, kernel_backend, workers, monkeypatch
    ):
        if plane == "inline":
            monkeypatch.setattr(shm_mod, "shm_available", lambda: False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # thread workers share one planner
        # "auto" must pick shm by itself on the process backend.
        data_plane = "shm" if (plane, backend) == ("shm", "thread") else "auto"
        try:
            for wl, chunksize in self.ROWS:
                report = plan(wl, execution=ExecutionPolicy(
                    mode="local", workers=workers, backend=backend, chunksize=chunksize,
                    kernel_backend=kernel_backend, data_plane=data_plane,
                ))
                assert_same(digest(report), oracle[wl.planner])
                dispatch = report.dispatch
                if plane == "shm":
                    assert dispatch.shm_segments == 1 and dispatch.shm_bytes > 0
                    assert dispatch.shm_attaches >= 1
                else:
                    assert (dispatch.shm_segments, dispatch.shm_attaches) == (0, 0)
                # PRM chunks of two or more regions were planned as blocks
                # (27 = 7 + 7 + 7 + 6; the policies end in one-region
                # chunks); every RRT region takes the loop.
                if chunksize == 1 or wl.planner == "rrt":
                    assert _parts(report) == {Roadmap}
                elif chunksize == 7:
                    assert _parts(report) == {PRMSegment}
                else:
                    assert _parts(report) == {Roadmap, PRMSegment}, chunksize
        finally:
            sys.setswitchinterval(interval)
        assert shm_mod.leaked_segments() == []


class TestPlanes:
    def test_explicit_shm_on_ineligible_cspace_raises(self, monkeypatch):
        monkeypatch.setattr(shm_mod, "shm_available", lambda: False)
        with pytest.raises(ValueError):
            _small_plan(backend="process", data_plane="shm")

    def test_worker_crash_mid_run_leaves_no_segments(self):
        wl = WorkloadSpec(
            environment="med-cube", planner="prm", num_regions=4,
            samples_per_region=8, seed=7,
        )
        ex = ExecutionPolicy(mode="local", workers=2, backend="process",
                             data_plane="shm")
        fa = FaultPolicy(
            injector=FaultInjector([Fault("crash", task=1, attempt=0)]),
            policy="retry", max_retries=2,
        )
        rep = plan(wl, execution=ex, faults=fa)
        assert rep.pool.worker_deaths >= 1
        assert rep.pool.retries >= 1
        # Failed attempts charge their checks too: all but the counters agree.
        assert_same(digest(rep), digest(_small_plan(backend="thread")), ignore=("counters",))
        assert shm_mod.leaked_segments() == []

    def test_degrade_abandonment_leaves_no_segments(self):
        wl = WorkloadSpec(
            environment="med-cube", planner="prm", num_regions=4,
            samples_per_region=8, seed=7,
        )
        ex = ExecutionPolicy(mode="local", workers=2, backend="process",
                             data_plane="shm")
        fa = FaultPolicy(
            injector=FaultInjector(
                [Fault("raise", task=1, attempt=a) for a in range(3)]
            ),
            policy="degrade", max_retries=1,
        )
        rep = plan(wl, execution=ex, faults=fa)
        assert rep.pool.abandoned == [1]
        assert shm_mod.leaked_segments() == []


# ---------------------------------------------------------------------------
# the collision tree shipped on the shm plane
# ---------------------------------------------------------------------------

WAREHOUSE = WorkloadSpec(
    shelf_warehouse(500, seed=3), "prm", num_regions=16, samples_per_region=8, seed=11,
)
SHIPPED = ExecutionPolicy(
    mode="local", workers=2, backend="process", kernel_backend="bvh", chunksize=4,
)
#: the serial in-process run every shipped-tree plan must equal.
INLINE = replace(SHIPPED, workers=1, backend="thread", chunksize=1)

SPAWNED = """
import multiprocessing

from repro.api import plan
from repro.runtime import shm
from tests.oracle import assert_same, digest
from tests.test_shm_runtime import INLINE, SHIPPED, WAREHOUSE

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    report = plan(WAREHOUSE, execution=SHIPPED)
    assert report.dispatch.shm_segments == 1 and report.dispatch.shm_attaches >= 1
    assert_same(digest(report), digest(plan(WAREHOUSE, execution=INLINE)))
    assert shm.leaked_segments() == []
    print("spawned workers planned the inline digest")
"""


class _TreeProbe:
    """Runs in a pool worker: how the tree of the planner the shm task
    rebuilt there sits in memory, per array."""

    def __init__(self, task):
        self.task = task

    def __call__(self, tid):
        env = self.task.regions.cspace.env
        tree = getattr(env.kernel_data(), _CACHE_ATTR)
        views = shm_mod.attach_arrays(self.task.ctx.manifest)
        return os.getpid(), {
            name: (getattr(tree, name).flags.writeable,
                   np.shares_memory(getattr(tree, name), views["bvh." + name]))
            for name in _ARRAYS
        }


class TestShippedTree:
    """A ``bvh`` plan on the shm plane builds its tree once, in the
    parent; workers adopt the segment's arrays and plan the same bits."""

    @pytest.fixture(scope="class")
    def oracle(self):
        return digest(plan(WAREHOUSE, execution=INLINE))

    def test_no_worker_builds_a_tree(self, oracle, tmp_path, monkeypatch):
        log = tmp_path / "builds"
        init = BVH.__init__

        def logged(self, *args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()}\n")
            init(self, *args, **kwargs)

        monkeypatch.setattr(BVH, "__init__", logged)
        monkeypatch.setattr(api, "_SHM_TREE_CACHE", {})
        for _ in range(2):
            report = plan(WAREHOUSE, execution=SHIPPED)
            assert_same(digest(report), oracle)
            assert report.dispatch.shm_attaches >= 1
        assert log.read_text().split() == [str(os.getpid())]
        assert shm_mod.leaked_segments() == []

    def test_a_repeat_plan_does_not_hash_the_obstacles_again(self, monkeypatch):
        """The content key is hashed once per snapshot; a second snapshot of
        the same obstacles hashes once more and gets the same tree, and the
        caller's snapshot keeps no tree of its own from the parent's."""
        hashed = []
        sha256 = api.hashlib.sha256

        def counted(*args):
            hashed.append(args)
            return sha256(*args)

        monkeypatch.setattr(api.hashlib, "sha256", counted)
        monkeypatch.setattr(api, "_SHM_TREE_CACHE", {})
        env, scene = WAREHOUSE.environment, WAREHOUSE.environment.kernel_data()
        data, twin = (Environment.from_arrays(env.bounds, scene.box_lo, scene.box_hi).kernel_data()
                      for _ in range(2))
        tree = api._shipped_tree(data)
        assert api._shipped_tree(data) is tree and len(hashed) == 1
        assert api._shipped_tree(twin) is tree and len(hashed) == 2
        assert getattr(data, _CACHE_ATTR, None) is None

    def test_worker_trees_are_read_only_views_of_the_segment(self):
        manifest, task = _publish_plan(WAREHOUSE.environment, WAREHOUSE, None)
        try:
            pool = run_tasks_parallel(_TreeProbe(task), [0, 1], workers=2, backend="process")
        finally:
            shm_mod.release(manifest)
        for pid, arrays in pool.results.values():
            assert pid != os.getpid()
            assert arrays == {name: (False, True) for name in _ARRAYS}
        assert shm_mod.leaked_segments() == []

    def test_spawned_workers_plan_the_inline_digest(self):
        """No fork inheritance: spawned workers get the tree from the segment."""
        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo)]))
        proc = subprocess.run(
            [sys.executable, "-c", SPAWNED], cwd=repo, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert "inline digest" in proc.stdout

    def test_a_worker_crash_retries_to_the_same_digest(self, oracle):
        """A worker dies holding the segment's tree; its chunk is retried on a
        fresh worker that attaches again, and nothing is left in /dev/shm."""
        faults = FaultPolicy(
            injector=FaultInjector([Fault("crash", task=1, attempt=0)]),
            policy="retry", max_retries=2,
        )
        report = plan(WAREHOUSE, execution=SHIPPED, faults=faults)
        assert report.pool.worker_deaths >= 1 and report.pool.retries >= 1
        assert_same(digest(report), oracle)
        assert shm_mod.leaked_segments() == []
