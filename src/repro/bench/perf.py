"""Benchmark-regression suite for the planner-construction hot paths.

Times the operations the PRM and RRT builds spend their lives in —
sequential-vs-batched roadmap construction, sequential-vs-batched RRT
growth (plain med-cube growth and the radial-subdivision workload on a
Fig. 10 environment), batched local planning, k-NN, amortised query
serving (single and batched, plus k-NN backend scaling), pool scaling,
BVH-vs-brute-force collision scaling on procedural warehouse scenes
(bit-exact verdict parity at 10^3-10^5 obstacles), and the incremental
kd-ladder NN backend (growing query-then-insert streams across tree
sizes) —
on fixed seeds, and writes the measurements to a JSON file
(``BENCH_perf.json`` by default) so regressions show up as diffs.

Every timed comparison also *verifies* that the fast path produces the
same operation counts as the reference path: the virtual-time model
depends on ``PlannerStats`` and ``CollisionCounters`` being identical, so
a speedup that changes the counts is a bug, not a win.

Usage::

    python -m repro.bench perf                     # medium scale -> BENCH_perf.json
    python -m repro.bench perf --scale smoke       # quick CI-sized run
    python -m repro.bench perf --output out.json
    python -m repro.bench perf --check out.json    # validate an existing file
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from functools import partial

import numpy as np

from ..core.parallel_rrt import build_rrt_workload
from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import EuclideanCSpace
from ..geometry import environments
from ..kernels import get_backend
from ..knn.brute import BruteForceNN
from ..knn.incremental import IncrementalNN
from ..knn.kdtree import KDTreeNN
from ..planners.engine import QueryEngine
from ..planners.prm import PRM
from ..planners.query import RoadmapQuery
from ..planners.rrt import RRT
from ..runtime.local_pool import run_tasks_parallel

__all__ = ["run_suite", "main", "validate", "SCALES"]

#: Benchmark sizes.  "medium" is the checked-in regression baseline;
#: "smoke" is CI-sized (seconds, not minutes).
SCALES = {
    "smoke": {
        "prm_samples": 400, "lp_pairs": 400, "knn_points": 1000, "pool_tasks": 16,
        "rrt_nodes": 300, "rrt_regions": 6, "rrt_nodes_per_region": 8, "repeats": 2,
        "query_vertices": 400, "query_count": 25,
        "knn_scale_points": 4000, "knn_scale_queries": 50,
        "kernel_points": 2000, "kernel_segments": 1000,
        "kernel_knn_stored": 1000, "kernel_knn_queries": 64,
        "kernel_lp_pairs": 300, "kernel_prm_samples": 250, "kernel_prm_queries": 20,
        "bvh_sizes": [300, 2000], "bvh_prm_obstacles": 500, "bvh_prm_samples": 150,
        "incnn_sizes": [500, 2000],
        "dispatch_tiny": 48, "dispatch_big": 2, "dispatch_big_s": 0.005,
        "shm_obstacles": 2000, "shm_regions": 8, "shm_samples": 3,
    },
    "medium": {
        "prm_samples": 2000, "lp_pairs": 4000, "knn_points": 4000, "pool_tasks": 64,
        "rrt_nodes": 2000, "rrt_regions": 16, "rrt_nodes_per_region": 20, "repeats": 5,
        "query_vertices": 2000, "query_count": 100,
        "knn_scale_points": 20000, "knn_scale_queries": 200,
        "kernel_points": 20000, "kernel_segments": 8000,
        "kernel_knn_stored": 4000, "kernel_knn_queries": 512,
        "kernel_lp_pairs": 3000, "kernel_prm_samples": 1200, "kernel_prm_queries": 60,
        "bvh_sizes": [1000, 10000, 100000], "bvh_prm_obstacles": 3000, "bvh_prm_samples": 500,
        "incnn_sizes": [2000, 8000, 20000],
        "dispatch_tiny": 256, "dispatch_big": 4, "dispatch_big_s": 0.02,
        "shm_obstacles": 20000, "shm_regions": 16, "shm_samples": 3,
    },
}

_ENV_NAME = "med-cube"
#: Scene for the kernel microbenches — 125 obstacles, enough per-query
#: work for the blocked float32 layouts to show their advantage.
_KERNEL_ENV = "mixed-30"
#: Decision-boundary guard for the fast32 equivalence gates: a query is
#: *stable* when the reference verdict is unchanged after inflating or
#: shrinking every obstacle (and shrinking the free bounds) by this much.
_STABILITY_EPS = 1e-6
_SEED = 42


def _numba_version() -> "str | None":
    """Installed numba version, or None when the optional dep is absent."""
    try:
        import numba

        return str(numba.__version__)
    except ImportError:
        return None


def _best_of(repeats: int, fn) -> "tuple[float, object]":
    """Best wall time over ``repeats`` runs (minimum is the low-noise
    estimator for fixed-work benchmarks); returns (time, last result)."""
    best = np.inf
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return float(best), out


def _cspace():
    return EuclideanCSpace(environments.by_name(_ENV_NAME))


def bench_prm_build(params: dict) -> dict:
    """Sequential vs batched PRM build on the default path
    (``connect_same_component=True``), with operation-count parity
    asserted field for field."""
    n = params["prm_samples"]

    def run(batched: bool):
        """One timed PRM build; returns comparable observables."""
        cs = _cspace()
        prm = PRM(cs, k=6, connect_same_component=True, batched=batched)
        res = prm.build(n, np.random.default_rng(_SEED))
        counters = (cs.env.counters.point_checks, cs.env.counters.segment_checks)
        edges = sorted((min(u, v), max(u, v)) for u, v, _w in res.roadmap.edges())
        return asdict(res.stats), counters, edges

    before_s, ref = _best_of(params["repeats"], lambda: run(False))
    after_s, fast = _best_of(params["repeats"], lambda: run(True))
    stats_equal = ref[0] == fast[0]
    counters_equal = ref[1] == fast[1]
    edges_equal = ref[2] == fast[2]
    if not (stats_equal and counters_equal and edges_equal):
        raise AssertionError(
            "batched PRM build diverged from the sequential reference: "
            f"stats_equal={stats_equal} counters_equal={counters_equal} "
            f"edges_equal={edges_equal}"
        )
    return {
        "n_samples": n,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "stats_equal": stats_equal,
        "counters_equal": counters_equal,
        "edges_equal": edges_equal,
        "lp_calls": ref[0]["lp_calls"],
        "lp_checks": ref[0]["lp_checks"],
    }


def bench_rrt_build(params: dict) -> dict:
    """Sequential vs batched (predict-validate-replay) RRT growth on
    med-cube, with the full parity surface — stats, counters, exact edge
    weights, parent pointers — asserted field for field."""
    n = params["rrt_nodes"]

    def run(batched: bool):
        """One timed RRT growth; returns comparable observables."""
        cs = _cspace()
        rrt = RRT(cs, step_size=0.6, goal_bias=0.05, batched=batched)
        res = rrt.grow(np.full(cs.dim, -9.0), n, np.random.default_rng(_SEED))
        counters = (cs.env.counters.point_checks, cs.env.counters.segment_checks)
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in res.tree.edges())
        return asdict(res.stats), counters, edges, dict(res.parents)

    before_s, ref = _best_of(params["repeats"], lambda: run(False))
    after_s, fast = _best_of(params["repeats"], lambda: run(True))
    stats_equal = ref[0] == fast[0]
    counters_equal = ref[1] == fast[1]
    edges_equal = ref[2] == fast[2] and ref[3] == fast[3]
    if not (stats_equal and counters_equal and edges_equal):
        raise AssertionError(
            "batched RRT growth diverged from the sequential reference: "
            f"stats_equal={stats_equal} counters_equal={counters_equal} "
            f"edges_equal={edges_equal}"
        )
    return {
        "n_nodes": n,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "stats_equal": stats_equal,
        "counters_equal": counters_equal,
        "edges_equal": edges_equal,
        "nn_distance_evals": ref[0]["nn_distance_evals"],
        "lp_checks": ref[0]["lp_checks"],
    }


def bench_rrt_radial_workload(params: dict) -> dict:
    """Sequential vs batched radial-subdivision RRT workload build on the
    Fig. 10 mixed-30 environment (Alg. 2 branch growth plus connection),
    parity asserted on the merged tree, per-branch stats, and counters."""
    regions = params["rrt_regions"]
    npr = params["rrt_nodes_per_region"]

    def run(batched: bool):
        """One timed radial workload build; returns comparable observables."""
        cs = EuclideanCSpace(environments.by_name("mixed-30"))
        wl = build_rrt_workload(
            cs, np.full(cs.dim, -9.0), regions, nodes_per_region=npr,
            seed=_SEED, batched=batched,
        )
        counters = (cs.env.counters.point_checks, cs.env.counters.segment_checks)
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in wl.tree.edges())
        branch = {rid: asdict(b.stats) for rid, b in wl.branch_work.items()}
        return branch, counters, edges

    before_s, ref = _best_of(params["repeats"], lambda: run(False))
    after_s, fast = _best_of(params["repeats"], lambda: run(True))
    stats_equal = ref[0] == fast[0]
    counters_equal = ref[1] == fast[1]
    edges_equal = ref[2] == fast[2]
    if not (stats_equal and counters_equal and edges_equal):
        raise AssertionError(
            "batched radial RRT workload diverged from the sequential "
            f"reference: stats_equal={stats_equal} "
            f"counters_equal={counters_equal} edges_equal={edges_equal}"
        )
    return {
        "environment": "mixed-30",
        "n_regions": regions,
        "nodes_per_region": npr,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "stats_equal": stats_equal,
        "counters_equal": counters_equal,
        "edges_equal": edges_equal,
    }


def bench_batch_local_plan(params: dict) -> dict:
    """Per-pair local planner calls vs one ``batch_pairs`` invocation."""
    m = params["lp_pairs"]
    cs = _cspace()
    rng = np.random.default_rng(_SEED)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    starts = rng.uniform(lo, hi, size=(m, cs.dim))
    ends = starts + rng.uniform(-1.0, 1.0, size=(m, cs.dim))
    ends = np.clip(ends, lo, hi)
    lp = StraightLinePlanner(resolution=0.25)

    def run_loop():
        """Baseline: one local-planner call per pair."""
        ok = np.empty(m, dtype=bool)
        checks = 0
        for i in range(m):
            r = lp(cs, starts[i], ends[i])
            ok[i] = r.valid
            checks += r.checks
        return ok, checks

    def run_batch():
        """Vectorised: all pairs in one batch_pairs call."""
        ok, checks, _lengths = lp.batch_pairs(cs, starts, ends)
        return ok, checks

    before_s, (ok0, ch0) = _best_of(params["repeats"], run_loop)
    after_s, (ok1, ch1) = _best_of(params["repeats"], run_batch)
    if not (np.array_equal(ok0, ok1) and ch0 == ch1):
        raise AssertionError("batch_pairs diverged from the per-pair reference")
    return {
        "n_pairs": m,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "checks": int(ch0),
    }


def bench_knn(params: dict) -> dict:
    """Interleaved query/insert k-NN loop vs the growing-visibility block
    query used by the batched build."""
    n = params["knn_points"]
    k = 6
    rng = np.random.default_rng(_SEED)
    pts = rng.uniform(0.0, 10.0, size=(n, 3))
    ids = np.arange(n, dtype=np.int64)

    def run_loop():
        """Baseline: one knn query per point."""
        nn = BruteForceNN(3)
        out = []
        for i in range(n):
            out.append(nn.knn(pts[i], k))
            nn.add(int(ids[i]), pts[i])
        return out

    def run_block():
        """Vectorised: blocked queries against the growing structure."""
        nn = BruteForceNN(3)
        out = []
        for lo in range(0, n, 64):
            out.extend(nn.knn_block_growing(ids[lo : lo + 64], pts[lo : lo + 64], k))
        return out

    before_s, ref = _best_of(params["repeats"], run_loop)
    after_s, fast = _best_of(params["repeats"], run_block)
    if ref != fast:
        raise AssertionError("knn_block_growing diverged from the query/insert loop")
    return {
        "n_points": n,
        "k": k,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }


def _query_setup(params: dict):
    """A built roadmap plus a fixed batch of (start, goal) queries, shared
    by the query-serving benchmarks."""
    cs = _cspace()
    prm = PRM(cs, k=6)
    rmap = prm.build(params["query_vertices"], np.random.default_rng(_SEED)).roadmap
    rng = np.random.default_rng(_SEED + 1)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    queries = [
        (rng.uniform(lo, hi), rng.uniform(lo, hi))
        for _ in range(params["query_count"])
    ]
    return cs, rmap, queries


def _query_results_equal(ref, fast) -> bool:
    """Exact comparison of two lists of ``QueryResult | None``."""
    if len(ref) != len(fast):
        return False
    for a, b in zip(ref, fast):
        if (a is None) != (b is None):
            return False
        if a is None:
            continue
        if a.path_vertices != b.path_vertices or a.length != b.length:
            return False
        if not np.array_equal(a.path_configs, b.path_configs):
            return False
    return True


def bench_query_single(params: dict) -> dict:
    """Per-query serving: ``RoadmapQuery.solve`` (rebuilds the NN index and
    mutates the roadmap per call) vs ``QueryEngine.solve`` over a frozen
    snapshot; answers asserted path-exact."""
    cs, rmap, queries = _query_setup(params)

    def run_ref():
        """Baseline: stateless per-query solve."""
        rq = RoadmapQuery(cs, k=8)
        return [rq.solve(rmap, s, g) for s, g in queries]

    def run_engine():
        """Amortised: one engine, per-query solve calls."""
        eng = QueryEngine(cs, rmap, k=8)
        return [eng.solve(s, g) for s, g in queries]

    before_s, ref = _best_of(params["repeats"], run_ref)
    after_s, fast = _best_of(params["repeats"], run_engine)
    paths_equal = _query_results_equal(ref, fast)
    if not paths_equal:
        raise AssertionError("QueryEngine.solve diverged from RoadmapQuery.solve")
    return {
        "n_vertices": params["query_vertices"],
        "n_queries": len(queries),
        "solved": sum(r is not None for r in ref),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "paths_equal": paths_equal,
    }


def bench_query_batch(params: dict) -> dict:
    """Batched serving: a per-query ``RoadmapQuery.solve`` loop vs one
    ``QueryEngine.solve_many`` call (vectorised validity, batched k-NN,
    one local-planning batch); answers asserted path-exact."""
    cs, rmap, queries = _query_setup(params)

    def run_ref():
        """Baseline: the naive serving loop."""
        rq = RoadmapQuery(cs, k=8)
        return [rq.solve(rmap, s, g) for s, g in queries]

    def run_batch():
        """Amortised + batched: one solve_many call."""
        eng = QueryEngine(cs, rmap, k=8)
        return eng.solve_many(queries).results

    before_s, ref = _best_of(params["repeats"], run_ref)
    after_s, fast = _best_of(params["repeats"], run_batch)
    paths_equal = _query_results_equal(ref, fast)
    if not paths_equal:
        raise AssertionError("solve_many diverged from the per-query reference")
    return {
        "n_vertices": params["query_vertices"],
        "n_queries": len(queries),
        "solved": sum(r is not None for r in ref),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "paths_equal": paths_equal,
    }


def bench_knn_scaling(params: dict) -> dict:
    """Brute-force vs kd-tree k-NN at serving scale (n large enough that
    the tree's sublinear search wins); neighbour lists asserted identical,
    canonical tie-break included."""
    n = params["knn_scale_points"]
    q = params["knn_scale_queries"]
    k = 8
    rng = np.random.default_rng(_SEED)
    pts = rng.uniform(0.0, 10.0, size=(n, 3))
    ids = np.arange(n, dtype=np.int64)
    queries = rng.uniform(0.0, 10.0, size=(q, 3))

    brute = BruteForceNN(3)
    brute.add_batch(ids, pts)
    t0 = time.perf_counter()
    kd = KDTreeNN(3)
    kd.add_batch(ids, pts)
    build_s = time.perf_counter() - t0

    def run_brute():
        """Baseline: O(n) scan per query."""
        return [brute.knn(p, k) for p in queries]

    def run_kd():
        """Sublinear: kd-tree descent with deferred far-subtree pruning."""
        return [kd.knn(p, k) for p in queries]

    before_s, ref = _best_of(params["repeats"], run_brute)
    after_s, fast = _best_of(params["repeats"], run_kd)
    neighbors_equal = ref == fast
    if not neighbors_equal:
        raise AssertionError("kd-tree neighbours diverged from brute force")
    return {
        "n_points": n,
        "n_queries": q,
        "k": k,
        "kd_build_s": build_s,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "neighbors_equal": neighbors_equal,
    }


def _pool_task(task_id: int) -> float:
    """A deterministic CPU-bound unit of regional work (module level so the
    process backend can pickle it).  ``np.sin`` releases the GIL, so the
    thread backend can scale where cores are available."""
    rng = np.random.default_rng(task_id)
    a = rng.uniform(-1.0, 1.0, size=50_000)
    total = 0.0
    for _ in range(6):
        total += float(np.sin(a).sum())
        a = a * 1.0000001
    return total


def bench_pool_scaling(params: dict) -> dict:
    """Thread-pool wall time at 1, 2, and 4 workers on identical tasks.

    On a single-core machine the curve is flat — the interesting signal
    there is that dispatch overhead stays negligible; ``cpu_count`` is
    recorded so readers can interpret the numbers.
    """
    tasks = list(range(params["pool_tasks"]))
    times = {}
    last_pool = None
    for workers in (1, 2, 4):
        wall, last_pool = _best_of(
            params["repeats"],
            lambda w=workers: run_tasks_parallel(_pool_task, tasks, workers=w, backend="thread"),
        )
        times[str(workers)] = wall
    cpu_count = os.cpu_count()
    # A ~1.0 "speedup" on a single-core runner is noise, not a regression
    # signal — report null there so diffs against multi-core baselines
    # don't flag it.
    speedup = times["1"] / times["4"] if cpu_count is not None and cpu_count > 1 else None
    d = last_pool.dispatch
    return {
        "n_tasks": len(tasks),
        "cpu_count": cpu_count,
        "wall_s_by_workers": times,
        "speedup_4w": speedup,
        "_meta_extra": {
            "chunk_policy": d.chunk_policy,
            "chunks_issued": d.chunks_issued,
            "bytes_shipped": d.context_bytes + d.task_bytes,
        },
    }


def _skew_task(big_ids: frozenset, big_s: float, tid: int) -> int:
    """A task stream with a heavy tail: most ids return immediately, the
    few in ``big_ids`` sleep (releasing the GIL, so thread workers overlap
    them).  Module level so the process backend could pickle it too."""
    if tid in big_ids:
        time.sleep(big_s)
    return tid * 3 + 1


def bench_pool_dispatch_overhead(params: dict) -> dict:
    """Chunk policies on a skewed tiny-task workload: a long run of
    near-zero tasks with a few heavy ones at the tail.

    Fixed chunking faces a dilemma this shape makes stark: big chunks
    clump the heavy tail onto one worker (serialising it), chunksize=1
    pays one pool submission per tiny task.  The "guided" policy starts
    with large chunks and decays to singletons, so the tail is balanced
    AND dispatch count stays low — at medium scale it must beat the best
    fixed setting.  Every policy's result dict is asserted identical to
    the chunksize=1 oracle.
    """
    n_tiny, n_big = params["dispatch_tiny"], params["dispatch_big"]
    big_s = params["dispatch_big_s"]
    n = n_tiny + n_big
    tasks = list(range(n))
    big_ids = frozenset(range(n_tiny, n))
    task = partial(_skew_task, big_ids, big_s)
    workers = 4
    weights = {tid: big_s if tid in big_ids else 1e-4 for tid in tasks}

    oracle = run_tasks_parallel(task, tasks, workers=workers, backend="thread")
    walls = {}
    results_equal = True
    guided_dispatch = None
    sweep = [("fixed-1", 1, None), ("fixed-8", 8, None), ("fixed-32", 32, None),
             ("fixed-64", 64, None), ("guided", "guided", None),
             ("weighted", "weighted", weights)]
    for label, cs, tw in sweep:
        wall, pool = _best_of(
            params["repeats"],
            lambda c=cs, w=tw: run_tasks_parallel(
                task, tasks, workers=workers, backend="thread", chunksize=c,
                task_weights=w,
            ),
        )
        walls[label] = wall
        results_equal = results_equal and pool.results == oracle.results
        if label == "guided":
            guided_dispatch = pool.dispatch
    if not results_equal:
        raise AssertionError("chunk policies diverged from the chunksize=1 oracle")
    fixed = {k: v for k, v in walls.items() if k.startswith("fixed")}
    best_fixed = min(fixed, key=fixed.get)
    return {
        "n_tasks": n,
        "n_big": n_big,
        "big_task_s": big_s,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "wall_s_by_policy": walls,
        "best_fixed": best_fixed,
        "best_fixed_s": fixed[best_fixed],
        "guided_s": walls["guided"],
        "guided_vs_best_fixed": fixed[best_fixed] / walls["guided"],
        "results_equal": results_equal,
        "_meta_extra": {
            "chunk_policy": "guided",
            "chunks_issued": guided_dispatch.chunks_issued,
            "bytes_shipped": guided_dispatch.context_bytes + guided_dispatch.task_bytes,
        },
    }


def bench_prm_build_process_shm(params: dict) -> dict:
    """Shared-memory vs pickled data plane for process-backend planning on
    a large scene (a ``shelf_warehouse`` with 20k obstacles at medium),
    under the bit-exact ``bvh`` kernel backend so context transfer — not
    collision arithmetic — dominates the wall time.

    Both planes run the identical plan; "pickle" serialises the whole
    planning closure (environment included) and ships it to workers,
    "shm" publishes the obstacle arrays once as a POSIX shared-memory
    segment that workers map zero-copy and rebuild the closure from.
    Merged edges, planner stats, and collision counters must be
    bit-identical; at medium scale shm must be >= 1.5x faster.
    """
    from ..api import plan
    from ..geometry.scenarios import shelf_warehouse
    from ..spec import ExecutionPolicy, WorkloadSpec

    n_obs = params["shm_obstacles"]
    env = shelf_warehouse(n_obstacles=n_obs, seed=_SEED)

    def run(plane: str):
        wl = WorkloadSpec(
            environment=env, planner="prm", num_regions=params["shm_regions"],
            samples_per_region=params["shm_samples"], seed=_SEED,
        )
        # The bvh backend keeps per-check compute near O(log n), so the
        # row measures context transfer rather than collision arithmetic
        # (both planes run the identical bit-exact backend).
        ex = ExecutionPolicy(
            mode="local", backend="process", workers=2, data_plane=plane,
            kernel_backend="bvh",
        )
        return plan(wl, execution=ex)

    # Interleave the planes rather than timing one block after the other:
    # machine-state drift (CPU frequency, a forked parent's heap growing
    # over a long suite run) then lands on both sides of the ratio, and
    # min-of-N recovers each plane's fast-phase time.
    repeats = min(params["repeats"], 5)
    before_s = after_s = float("inf")
    ref = fast = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref = run("pickle")
        before_s = min(before_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fast = run("shm")
        after_s = min(after_s, time.perf_counter() - t0)

    edges_equal = sorted(ref.roadmap.edges()) == sorted(fast.roadmap.edges())
    stats_equal = ref.planner_stats == fast.planner_stats
    counters_equal = ref.local_counters == fast.local_counters
    if not (edges_equal and stats_equal and counters_equal):
        raise AssertionError("shm data plane diverged from the pickle plane")
    d = fast.dispatch
    return {
        "environment": "shelf-warehouse",
        "n_obstacles": n_obs,
        "n_regions": params["shm_regions"],
        "samples_per_region": params["shm_samples"],
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "edges_equal": edges_equal,
        "stats_equal": stats_equal,
        "counters_equal": counters_equal,
        "pickle_context_bytes": ref.dispatch.context_bytes,
        "shm_context_bytes": d.context_bytes,
        "shm_segment_bytes": d.shm_bytes,
        "shm_attaches": d.shm_attaches,
        "_kernel_backend": "bvh",
        "_meta_extra": {
            "chunk_policy": d.chunk_policy,
            "chunks_issued": d.chunks_issued,
            "bytes_shipped": d.context_bytes + d.task_bytes,
        },
    }


def bench_kernel_collision(params: dict) -> dict:
    """float64 reference vs float32 blocked kernels on point and segment
    collision queries over the mixed-30 scene.

    Equivalence gate (statistical, not bit-exact): verdicts must be
    identical on every *stable* query — one whose reference verdict
    survives a ``_STABILITY_EPS`` perturbation of all obstacle faces.
    Queries closer than eps to a decision boundary may flip under
    float32 rounding, and the stable fraction is recorded so a sudden
    drop (a backend misclassifying far from boundaries) is visible.
    """
    n_pts = params["kernel_points"]
    n_seg = params["kernel_segments"]
    env = environments.by_name(_KERNEL_ENV)
    data = env.kernel_data()
    ref = get_backend("reference")
    fast = get_backend("fast32")
    rng = np.random.default_rng(_SEED)
    lo, hi = env.bounds.lo, env.bounds.hi
    pts = rng.uniform(lo, hi, size=(n_pts, env.bounds.dim))
    p = rng.uniform(lo, hi, size=(n_seg, env.bounds.dim))
    q = np.clip(p + rng.uniform(-2.0, 2.0, size=p.shape), lo, hi)

    def run(backend):
        """One timed pass of both kernel entry points."""
        return backend.points_free(data, pts), backend.segments_free(data, p, q)

    before_s, (rp, rs) = _best_of(params["repeats"], lambda: run(ref))
    after_s, (fp, fs) = _best_of(params["repeats"], lambda: run(fast))

    plus, minus = data.inflated(_STABILITY_EPS), data.inflated(-_STABILITY_EPS)
    stable_p = ref.points_free(plus, pts) == ref.points_free(minus, pts)
    stable_s = ref.segments_free(plus, p, q) == ref.segments_free(minus, p, q)
    verdicts_equal = bool(
        np.array_equal(rp[stable_p], fp[stable_p])
        and np.array_equal(rs[stable_s], fs[stable_s])
    )
    if not verdicts_equal:
        raise AssertionError("fast32 collision verdicts diverged on stable queries")
    return {
        "environment": _KERNEL_ENV,
        "n_points": n_pts,
        "n_segments": n_seg,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "verdicts_equal_stable": verdicts_equal,
        "stable_fraction": float((stable_p.sum() + stable_s.sum()) / (n_pts + n_seg)),
        "_kernel_backend": "fast32",
    }


def bench_kernel_knn(params: dict) -> dict:
    """float64 reference vs float32 tiled ``knn_block_min``.

    Gates: distances within 1e-4 relative everywhere; neighbour ids
    identical on every row whose reference k-th/(k+1)-th distance gap is
    clear of float32 rounding (rows with a near-tie straddling the cut
    may legitimately pick the other twin).
    """
    n = params["kernel_knn_stored"]
    m = params["kernel_knn_queries"]
    k = 8
    rng = np.random.default_rng(_SEED)
    stored = rng.uniform(0.0, 10.0, size=(n, 3))
    queries = rng.uniform(0.0, 10.0, size=(m, 3))
    ref = get_backend("reference")
    fast = get_backend("fast32")

    before_s, (ri, rd) = _best_of(
        params["repeats"], lambda: ref.knn_block_min(stored, queries, k)
    )
    after_s, (fi, fd) = _best_of(
        params["repeats"], lambda: fast.knn_block_min(stored, queries, k)
    )

    dists_close = bool(np.allclose(rd, fd, rtol=1e-4, atol=1e-9))
    _ri1, rd1 = ref.knn_block_min(stored, queries, k + 1)
    gap = rd1[:, k] - rd1[:, k - 1]
    tiefree = gap > 1e-4 * np.maximum(rd1[:, k], 1.0)
    ids_equal = bool(np.array_equal(ri[tiefree], fi[tiefree]))
    if not (dists_close and ids_equal):
        raise AssertionError("fast32 knn diverged from reference beyond tolerance")
    return {
        "n_stored": n,
        "n_queries": m,
        "k": k,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "dists_close": dists_close,
        "ids_equal_tiefree": ids_equal,
        "tiefree_fraction": float(tiefree.mean()),
        "_kernel_backend": "fast32",
    }


def _perturbed_env(env, margin: float):
    """The ``EnvKernelData.inflated`` perturbation as a full Environment:
    every obstacle grown by ``margin`` (shrunk when negative), free
    bounds shrunk by the same amount."""
    from ..geometry.primitives import AABB

    boxes = [AABB(o.lo - margin, o.hi + margin) for o in env.obstacles]
    bounds = AABB(env.bounds.lo + margin, env.bounds.hi - margin)
    return type(env)(bounds, boxes)


def bench_kernel_local_plan(params: dict) -> dict:
    """``StraightLinePlanner.batch_pairs`` with the reference backend vs a
    per-call ``kernels="fast32"`` override on the mixed-30 c-space.

    Check counts are distance-derived in float64 on the planner side, so
    they must be *identical* under any backend; segment verdicts follow
    the stable-query contract (perturbed-Environment guard).
    """
    m = params["kernel_lp_pairs"]
    env = environments.by_name(_KERNEL_ENV)
    cs = EuclideanCSpace(env)
    rng = np.random.default_rng(_SEED)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    starts = rng.uniform(lo, hi, size=(m, cs.dim))
    ends = np.clip(starts + rng.uniform(-1.5, 1.5, size=(m, cs.dim)), lo, hi)
    lp_ref = StraightLinePlanner(resolution=0.25)
    lp_fast = StraightLinePlanner(resolution=0.25, kernels="fast32")

    before_s, (ok0, ch0, len0) = _best_of(
        params["repeats"], lambda: lp_ref.batch_pairs(cs, starts, ends)
    )
    after_s, (ok1, ch1, len1) = _best_of(
        params["repeats"], lambda: lp_fast.batch_pairs(cs, starts, ends)
    )

    checks_equal = bool(ch0 == ch1 and np.array_equal(len0, len1))
    csp = EuclideanCSpace(_perturbed_env(env, _STABILITY_EPS))
    csm = EuclideanCSpace(_perturbed_env(env, -_STABILITY_EPS))
    okp, _, _ = lp_ref.batch_pairs(csp, starts, ends)
    okm, _, _ = lp_ref.batch_pairs(csm, starts, ends)
    stable = okp == okm
    verdicts_equal = bool(np.array_equal(ok0[stable], ok1[stable]))
    if not (checks_equal and verdicts_equal):
        raise AssertionError(
            "fast32 local planning diverged: "
            f"checks_equal={checks_equal} verdicts_equal={verdicts_equal}"
        )
    return {
        "environment": _KERNEL_ENV,
        "n_pairs": m,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "checks_equal": checks_equal,
        "verdicts_equal_stable": verdicts_equal,
        "stable_fraction": float(stable.mean()),
        "_kernel_backend": "fast32",
    }


def bench_prm_build_fast32(params: dict) -> dict:
    """End-to-end PRM build on mixed-30 under the reference backend vs
    ``fast32`` selected through ``cspace.set_kernel_backend``.

    The roadmaps need not be bit-identical (float32 verdicts may differ
    inside the eps boundary band), so the gate is behavioural: a frozen
    batch of queries answered by the *reference* QueryEngine over each
    roadmap must have the same success set and path lengths within 1e-4
    relative.
    """
    n = params["kernel_prm_samples"]
    nq = params["kernel_prm_queries"]

    def build(backend):
        """One timed PRM build under ``backend`` (None = reference default)."""
        cs = EuclideanCSpace(environments.by_name(_KERNEL_ENV))
        if backend is not None:
            cs.set_kernel_backend(backend)
        prm = PRM(cs, k=6, batched=True)
        return prm.build(n, np.random.default_rng(_SEED)).roadmap

    before_s, rmap_ref = _best_of(params["repeats"], lambda: build(None))
    after_s, rmap_fast = _best_of(params["repeats"], lambda: build("fast32"))

    cs = EuclideanCSpace(environments.by_name(_KERNEL_ENV))
    rng = np.random.default_rng(_SEED + 1)
    lo, hi = cs.bounds.lo, cs.bounds.hi
    queries = [(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(nq)]
    res_ref = QueryEngine(cs, rmap_ref, k=8).solve_many(queries).results
    res_fast = QueryEngine(cs, rmap_fast, k=8).solve_many(queries).results
    success_equal = all((a is None) == (b is None) for a, b in zip(res_ref, res_fast))
    lengths_close = success_equal and all(
        a is None or abs(a.length - b.length) <= 1e-4 * max(a.length, 1.0)
        for a, b in zip(res_ref, res_fast)
    )
    if not (success_equal and lengths_close):
        raise AssertionError(
            "fast32 PRM build answered the frozen query batch differently: "
            f"success_equal={success_equal} lengths_close={lengths_close}"
        )
    return {
        "environment": _KERNEL_ENV,
        "n_samples": n,
        "n_queries": nq,
        "solved": sum(r is not None for r in res_ref),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "success_equal": success_equal,
        "lengths_close": lengths_close,
        "_kernel_backend": "fast32",
    }


def bench_bvh_collision_scaling(params: dict) -> dict:
    """Brute-force reference vs BVH-culled collision kernels on procedural
    warehouse scenes across obstacle counts.

    Unlike the fast32 gates this one is **bit-exact**: the ``bvh`` backend
    culls with a conservative tree but decides with the reference
    expressions, so verdicts must be *equal*, not statistically close.
    Query counts shrink as obstacle counts grow because the reference
    side materialises ``(n_queries, n_obstacles, dim)`` temporaries.
    """
    from ..geometry.scenarios import shelf_warehouse

    ref = get_backend("reference")
    bvh = get_backend("bvh")
    rows = {}
    all_equal = True
    for n in params["bvh_sizes"]:
        n_pts = int(min(2000, max(400, 10_000_000 // n)))
        n_seg = int(min(1000, max(64, 4_000_000 // n)))
        env = shelf_warehouse(n, seed=_SEED)
        data = env.kernel_data()
        rng = np.random.default_rng(_SEED)
        lo, hi = env.bounds.lo, env.bounds.hi
        pts = rng.uniform(lo, hi, size=(n_pts, 3))
        p = rng.uniform(lo, hi, size=(n_seg, 3))
        q = np.clip(p + rng.uniform(-3.0, 3.0, size=p.shape), lo, hi)

        t0 = time.perf_counter()
        from ..kernels.bvh_backend import _box_tree

        _box_tree(data)  # pay the build once, outside the timed region
        build_s = time.perf_counter() - t0

        repeats = params["repeats"] if n <= 1000 else min(params["repeats"], 2)
        before_s, (rp, rs) = _best_of(
            repeats, lambda: (ref.points_free(data, pts), ref.segments_free(data, p, q))
        )
        after_s, (bp, bs) = _best_of(
            repeats, lambda: (bvh.points_free(data, pts), bvh.segments_free(data, p, q))
        )
        verdicts_equal = bool(np.array_equal(rp, bp) and np.array_equal(rs, bs))
        if not verdicts_equal:
            raise AssertionError(
                f"bvh collision verdicts diverged from reference at n={n} "
                "(the bvh contract is bit-exact, not statistical)"
            )
        all_equal = all_equal and verdicts_equal
        rows[str(n)] = {
            "n_obstacles": n,
            "n_points": n_pts,
            "n_segments": n_seg,
            "build_s": build_s,
            "before_s": before_s,
            "after_s": after_s,
            "speedup": before_s / after_s,
            "verdicts_equal": verdicts_equal,
        }
    return {
        "scenario": "warehouse",
        "sizes": list(params["bvh_sizes"]),
        "rows": rows,
        "verdicts_equal": all_equal,
        "_kernel_backend": "bvh",
    }


def bench_prm_build_bvh(params: dict) -> dict:
    """End-to-end PRM build on a dense warehouse scene: reference backend
    vs ``bvh`` selected through ``cspace.set_kernel_backend``.

    Where ``prm_build_fast32`` settles for behavioural equivalence
    (float32 verdicts may flip in the eps band), this gate is the full
    exact-parity surface of the batched-vs-sequential benches: stats,
    counters, and edges must be identical, because the bvh backend is
    bit-exact by construction.
    """
    from ..geometry.scenarios import shelf_warehouse

    n_obs = params["bvh_prm_obstacles"]
    n = params["bvh_prm_samples"]

    def build(backend):
        """One timed PRM build under ``backend`` (None = reference default)."""
        cs = EuclideanCSpace(shelf_warehouse(n_obs, seed=_SEED))
        if backend is not None:
            cs.set_kernel_backend(backend)
        prm = PRM(cs, k=6, batched=True)
        res = prm.build(n, np.random.default_rng(_SEED))
        counters = (cs.env.counters.point_checks, cs.env.counters.segment_checks)
        edges = sorted((min(u, v), max(u, v), w) for u, v, w in res.roadmap.edges())
        return asdict(res.stats), counters, edges

    repeats = min(params["repeats"], 2)
    before_s, ref = _best_of(repeats, lambda: build(None))
    after_s, fast = _best_of(repeats, lambda: build("bvh"))
    stats_equal = ref[0] == fast[0]
    counters_equal = ref[1] == fast[1]
    edges_equal = ref[2] == fast[2]
    if not (stats_equal and counters_equal and edges_equal):
        raise AssertionError(
            "bvh PRM build diverged from the reference backend: "
            f"stats_equal={stats_equal} counters_equal={counters_equal} "
            f"edges_equal={edges_equal}"
        )
    return {
        "environment": f"warehouse-{n_obs}",
        "n_obstacles": n_obs,
        "n_samples": n,
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "stats_equal": stats_equal,
        "counters_equal": counters_equal,
        "edges_equal": edges_equal,
        "_kernel_backend": "bvh",
    }


def _nn_stream(factory, pts: np.ndarray):
    """The RRT inner-loop NN load with the planning stripped out: query
    each point's single nearest neighbour against the tree so far, then
    insert it — the exact query-then-insert interleaving ``RRT.grow``
    produces.  Returns (answers, final KnnStats)."""
    nn = factory(pts.shape[1])
    nn.add(0, pts[0])
    out = []
    for i in range(1, len(pts)):
        out.append(nn.knn(pts[i], 1))
        nn.add(i, pts[i])
    return out, nn.stats


def bench_rrt_nn_scaling(params: dict) -> dict:
    """Growing-tree nearest-neighbour streams: brute-force scan vs the
    incremental kd-ladder (Bentley-Saxe logarithmic rebuild) across tree
    sizes.

    Answer parity is exact, not statistical: the ladder inherits the
    canonical ``(distance, insertion order)`` tie-break, so the
    neighbour streams must be identical element for element.  Each row
    also records the distance-eval ledger — the brute scan's quadratic
    count, the ladder's count, and the evals the work model no longer
    charges — because virtual time, not wall time, is this repo's metric
    of record."""
    rows = {}
    all_equal = True
    for n in params["incnn_sizes"]:
        rng = np.random.default_rng(_SEED)
        pts = rng.uniform(-10.0, 10.0, size=(n, 3))
        repeats = params["repeats"] if n < 20000 else min(params["repeats"], 2)
        before_s, (ref, ref_stats) = _best_of(
            repeats, lambda: _nn_stream(BruteForceNN, pts)
        )
        after_s, (fast, fast_stats) = _best_of(
            repeats, lambda: _nn_stream(IncrementalNN, pts)
        )
        neighbors_equal = ref == fast
        if not neighbors_equal:
            raise AssertionError(
                f"incremental NN stream diverged from brute force at n={n} "
                "(the ladder contract is bit-exact, not approximate)"
            )
        all_equal = all_equal and neighbors_equal
        rows[str(n)] = {
            "n_points": n,
            "before_s": before_s,
            "after_s": after_s,
            "speedup": before_s / after_s,
            "neighbors_equal": neighbors_equal,
            "nn_distance_evals_before": int(ref_stats.distance_evals),
            "nn_distance_evals_after": int(fast_stats.distance_evals),
            "evals_saved": int(fast_stats.evals_saved),
            "rebuilds": int(fast_stats.rebuilds),
            "buffer_hits": int(fast_stats.buffer_hits),
        }
    return {
        "sizes": list(params["incnn_sizes"]),
        "rows": rows,
        "neighbors_equal": all_equal,
        "_meta_extra": {"nn_backend": "incremental"},
    }


_BENCHMARKS = {
    "prm_build_default_path": bench_prm_build,
    "rrt_build_default_path": bench_rrt_build,
    "rrt_radial_workload": bench_rrt_radial_workload,
    "batch_local_plan": bench_batch_local_plan,
    "knn": bench_knn,
    "query_single": bench_query_single,
    "query_batch": bench_query_batch,
    "knn_scaling": bench_knn_scaling,
    "pool_scaling": bench_pool_scaling,
    "kernel_collision": bench_kernel_collision,
    "kernel_knn": bench_kernel_knn,
    "kernel_local_plan": bench_kernel_local_plan,
    "prm_build_fast32": bench_prm_build_fast32,
    "bvh_collision_scaling": bench_bvh_collision_scaling,
    "prm_build_bvh": bench_prm_build_bvh,
    "rrt_nn_scaling": bench_rrt_nn_scaling,
    "pool_dispatch_overhead": bench_pool_dispatch_overhead,
    "prm_build_process_shm": bench_prm_build_process_shm,
}

#: Keys every benchmark entry must carry for the file to be well-formed.
_REQUIRED_FIELDS = {
    "prm_build_default_path": ("before_s", "after_s", "speedup", "stats_equal", "counters_equal"),
    "rrt_build_default_path": ("before_s", "after_s", "speedup", "stats_equal", "counters_equal"),
    "rrt_radial_workload": ("before_s", "after_s", "speedup", "stats_equal", "counters_equal"),
    "batch_local_plan": ("before_s", "after_s", "speedup"),
    "knn": ("before_s", "after_s", "speedup"),
    "query_single": ("before_s", "after_s", "speedup", "paths_equal"),
    "query_batch": ("before_s", "after_s", "speedup", "paths_equal"),
    "knn_scaling": ("before_s", "after_s", "speedup", "neighbors_equal"),
    "pool_scaling": ("wall_s_by_workers", "speedup_4w", "cpu_count"),
    "kernel_collision": ("before_s", "after_s", "speedup", "verdicts_equal_stable"),
    "kernel_knn": ("before_s", "after_s", "speedup", "dists_close", "ids_equal_tiefree"),
    "kernel_local_plan": ("before_s", "after_s", "speedup", "checks_equal", "verdicts_equal_stable"),
    "prm_build_fast32": ("before_s", "after_s", "speedup", "success_equal", "lengths_close"),
    "bvh_collision_scaling": ("sizes", "rows", "verdicts_equal"),
    "prm_build_bvh": ("before_s", "after_s", "speedup", "stats_equal", "counters_equal", "edges_equal"),
    "rrt_nn_scaling": ("sizes", "rows", "neighbors_equal"),
    "pool_dispatch_overhead": (
        "wall_s_by_policy", "best_fixed_s", "guided_s", "guided_vs_best_fixed",
        "results_equal",
    ),
    "prm_build_process_shm": (
        "before_s", "after_s", "speedup", "edges_equal", "stats_equal",
        "counters_equal", "n_obstacles",
    ),
}

#: Parity flags that must not be false in a well-formed kernel row.
_KERNEL_PARITY_FLAGS = {
    "kernel_collision": ("verdicts_equal_stable",),
    "kernel_knn": ("dists_close", "ids_equal_tiefree"),
    "kernel_local_plan": ("checks_equal", "verdicts_equal_stable"),
    "prm_build_fast32": ("success_equal", "lengths_close"),
    "bvh_collision_scaling": ("verdicts_equal",),
    "prm_build_bvh": ("stats_equal", "counters_equal", "edges_equal"),
    "rrt_nn_scaling": ("neighbors_equal",),
    "pool_dispatch_overhead": ("results_equal",),
    "prm_build_process_shm": ("edges_equal", "stats_equal", "counters_equal"),
}

#: Medium-scale speedup floor for the fast32 microbenches: below this the
#: float32 blocked layouts have regressed into pointlessness.
_KERNEL_SPEEDUP_FLOOR = 1.8

#: Medium-scale floor for the BVH at 10k warehouse obstacles — the
#: acceptance bar from the scaling work: a tree that can't beat the
#: brute-force scan 5x at 10^4 primitives isn't pulling its weight.
_BVH_SPEEDUP_FLOOR = 5.0

#: Medium-scale floor for the incremental kd-ladder on the growing
#: query-then-insert stream at 20k nodes: an insertion-friendly index
#: that can't halve the brute scan's wall time there isn't earning its
#: rebuild machinery.
_INCNN_SPEEDUP_FLOOR = 2.0

#: Medium-scale floor for the shared-memory data plane on the 10k-obstacle
#: warehouse: if mapping the scene zero-copy can't beat re-pickling it to
#: every worker by 1.5x, the plane isn't paying for its machinery.
_SHM_SPEEDUP_FLOOR = 1.5

#: Obstacle-count floor for the prm_build_process_shm scene at medium.
_SHM_OBSTACLE_FLOOR = 10_000


def run_suite(scale: str = "medium") -> dict:
    """Run every benchmark at ``scale`` and return the result payload."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}, got {scale!r}")
    params = SCALES[scale]
    benchmarks = {}
    for name, fn in _BENCHMARKS.items():
        t0 = time.perf_counter()
        row = fn(params)
        # Every row records the runtime it was measured under: the active
        # kernel backend (the fast side for kernel comparisons, the
        # reference default everywhere else) and the numpy/numba versions.
        # Benchmarks can merge extra provenance (e.g. the NN backend and
        # its distance-eval ledger) via the "_meta_extra" key.
        row["meta"] = {
            "kernel_backend": row.pop("_kernel_backend", "reference"),
            "numpy": np.__version__,
            "numba": _numba_version(),
            **row.pop("_meta_extra", {}),
        }
        benchmarks[name] = row
        print(f"[perf] {name}: {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return {
        "suite": "repro-perf",
        "scale": scale,
        "environment": _ENV_NAME,
        "seed": _SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": _numba_version(),
        "benchmarks": benchmarks,
    }


def validate(payload: object) -> "list[str]":
    """Structural validation of a suite result; returns a list of problems
    (empty when well-formed)."""
    problems = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    if payload.get("suite") != "repro-perf":
        problems.append("missing or wrong 'suite' marker")
    if payload.get("scale") not in SCALES:
        problems.append(f"unknown scale {payload.get('scale')!r}")
    benches = payload.get("benchmarks")
    if not isinstance(benches, dict):
        return problems + ["'benchmarks' missing or not an object"]
    for name, fields in _REQUIRED_FIELDS.items():
        entry = benches.get(name)
        if not isinstance(entry, dict):
            problems.append(f"benchmark {name!r} missing")
            continue
        for f in fields:
            if f not in entry:
                problems.append(f"benchmark {name!r} missing field {f!r}")
        for f in ("before_s", "after_s", "speedup"):
            if f in entry and not (isinstance(entry[f], (int, float)) and entry[f] > 0):
                problems.append(f"benchmark {name!r} field {f!r} is not a positive number")
    for bench_name in ("prm_build_default_path", "rrt_build_default_path", "rrt_radial_workload"):
        parity = benches.get(bench_name, {})
        for f in ("stats_equal", "counters_equal", "edges_equal"):
            if parity.get(f) is False:
                problems.append(f"{bench_name} reports {f}=false")
    for bench_name in ("query_single", "query_batch"):
        if benches.get(bench_name, {}).get("paths_equal") is False:
            problems.append(f"{bench_name} reports paths_equal=false")
    if benches.get("knn_scaling", {}).get("neighbors_equal") is False:
        problems.append("knn_scaling reports neighbors_equal=false")
    for bench_name, flags in _KERNEL_PARITY_FLAGS.items():
        entry = benches.get(bench_name, {})
        for f in flags:
            if entry.get(f) is False:
                problems.append(f"{bench_name} reports {f}=false")
    for name in _REQUIRED_FIELDS:
        entry = benches.get(name)
        if isinstance(entry, dict):
            meta = entry.get("meta")
            if not isinstance(meta, dict) or not {"kernel_backend", "numpy", "numba"} <= set(meta):
                problems.append(
                    f"benchmark {name!r} missing runtime meta (kernel_backend/numpy/numba)"
                )
    scaling = benches.get("bvh_collision_scaling", {})
    rows = scaling.get("rows")
    if isinstance(rows, dict):
        for size, row in rows.items():
            if not isinstance(row, dict):
                problems.append(f"bvh_collision_scaling row {size!r} is not an object")
                continue
            for f in ("before_s", "after_s", "speedup", "build_s"):
                if not (isinstance(row.get(f), (int, float)) and row[f] > 0):
                    problems.append(
                        f"bvh_collision_scaling row {size!r} field {f!r} "
                        "is not a positive number"
                    )
            if row.get("verdicts_equal") is False:
                problems.append(
                    f"bvh_collision_scaling row {size!r} reports verdicts_equal=false"
                )
    nn_rows = benches.get("rrt_nn_scaling", {}).get("rows")
    if isinstance(nn_rows, dict):
        for size, row in nn_rows.items():
            if not isinstance(row, dict):
                problems.append(f"rrt_nn_scaling row {size!r} is not an object")
                continue
            for f in ("before_s", "after_s", "speedup"):
                if not (isinstance(row.get(f), (int, float)) and row[f] > 0):
                    problems.append(
                        f"rrt_nn_scaling row {size!r} field {f!r} "
                        "is not a positive number"
                    )
            if row.get("neighbors_equal") is False:
                problems.append(
                    f"rrt_nn_scaling row {size!r} reports neighbors_equal=false"
                )
    if payload.get("scale") == "medium":
        for bench_name in ("kernel_collision", "kernel_knn"):
            sp = benches.get(bench_name, {}).get("speedup")
            if isinstance(sp, (int, float)) and sp < _KERNEL_SPEEDUP_FLOOR:
                problems.append(
                    f"{bench_name} speedup {sp:.2f}x is below the "
                    f"{_KERNEL_SPEEDUP_FLOOR}x fast32 floor"
                )
        sp = rows.get("10000", {}).get("speedup") if isinstance(rows, dict) else None
        if not isinstance(sp, (int, float)):
            problems.append("bvh_collision_scaling is missing the 10000-obstacle row")
        elif sp < _BVH_SPEEDUP_FLOOR:
            problems.append(
                f"bvh_collision_scaling speedup {sp:.2f}x at 10k obstacles is "
                f"below the {_BVH_SPEEDUP_FLOOR}x bvh floor"
            )
        sp = nn_rows.get("20000", {}).get("speedup") if isinstance(nn_rows, dict) else None
        if not isinstance(sp, (int, float)):
            problems.append("rrt_nn_scaling is missing the 20000-point row")
        elif sp < _INCNN_SPEEDUP_FLOOR:
            problems.append(
                f"rrt_nn_scaling speedup {sp:.2f}x at 20k points is below "
                f"the {_INCNN_SPEEDUP_FLOOR}x incremental-NN floor"
            )
        shm_row = benches.get("prm_build_process_shm", {})
        sp = shm_row.get("speedup")
        n_obs = shm_row.get("n_obstacles")
        if not isinstance(sp, (int, float)):
            problems.append("prm_build_process_shm is missing speedup")
        elif not (isinstance(n_obs, int) and n_obs >= _SHM_OBSTACLE_FLOOR):
            problems.append(
                f"prm_build_process_shm scene has {n_obs} obstacles, below "
                f"the {_SHM_OBSTACLE_FLOOR} floor scale"
            )
        elif sp < _SHM_SPEEDUP_FLOOR:
            problems.append(
                f"prm_build_process_shm speedup {sp:.2f}x is below the "
                f"{_SHM_SPEEDUP_FLOOR}x shared-memory data-plane floor"
            )
        disp = benches.get("pool_dispatch_overhead", {})
        ratio = disp.get("guided_vs_best_fixed")
        if not isinstance(ratio, (int, float)):
            problems.append("pool_dispatch_overhead is missing guided_vs_best_fixed")
        elif ratio <= 1.0:
            problems.append(
                f"pool_dispatch_overhead: guided is {ratio:.2f}x the best "
                f"fixed chunksize ({disp.get('best_fixed')}) — adaptive "
                "chunking must win on the skewed workload"
            )
    # Serve rows are optional extras merged in by `python -m repro.bench
    # serve`; when present they must be well-formed and parity-clean.
    from .serve import validate_serve_rows

    problems.extend(validate_serve_rows(benches))
    return problems


def main(argv: "list[str]") -> int:
    """CLI entry point: run the suite or ``--check`` an existing file."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="medium")
    parser.add_argument("--output", default="BENCH_perf.json")
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="validate an existing result file instead of running benchmarks",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            with open(args.check) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"perf check: cannot read {args.check}: {exc}", file=sys.stderr)
            return 2
        problems = validate(payload)
        if problems:
            for p in problems:
                print(f"perf check: {p}", file=sys.stderr)
            return 1
        print(f"perf check: {args.check} OK")
        return 0

    payload = run_suite(args.scale)
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    prm = payload["benchmarks"]["prm_build_default_path"]
    rrt = payload["benchmarks"]["rrt_build_default_path"]
    qb = payload["benchmarks"]["query_batch"]
    kc = payload["benchmarks"]["kernel_collision"]
    kn = payload["benchmarks"]["kernel_knn"]
    nn_rows = payload["benchmarks"]["rrt_nn_scaling"]["rows"]
    nn_top = max(nn_rows, key=int)
    bvh_rows = payload["benchmarks"]["bvh_collision_scaling"]["rows"]
    bvh_scaling = ", ".join(
        f"{int(s)//1000}k: {bvh_rows[s]['speedup']:.1f}x"
        for s in sorted(bvh_rows, key=int)
        if int(s) >= 1000
    ) or ", ".join(
        f"{s}: {bvh_rows[s]['speedup']:.1f}x" for s in sorted(bvh_rows, key=int)
    )
    print(
        f"wrote {args.output}: prm build {prm['speedup']:.2f}x "
        f"({prm['before_s']*1e3:.0f}ms -> {prm['after_s']*1e3:.0f}ms at "
        f"n={prm['n_samples']}), rrt build {rrt['speedup']:.2f}x "
        f"({rrt['before_s']*1e3:.0f}ms -> {rrt['after_s']*1e3:.0f}ms at "
        f"n={rrt['n_nodes']}), query batch {qb['speedup']:.2f}x "
        f"({qb['n_queries']} queries on {qb['n_vertices']} vertices), "
        f"fast32 kernels {kc['speedup']:.2f}x collision / "
        f"{kn['speedup']:.2f}x knn, bvh collision ({bvh_scaling}), "
        f"incremental nn stream {nn_rows[nn_top]['speedup']:.2f}x at "
        f"n={nn_top}, counts identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
