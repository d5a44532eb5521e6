"""The layer ledger: what is wrapped, which metric each span feeds, and
which spans must (or must never) fire on each workload.

A layer is a ``repro`` subpackage.  Every time metric is **self time** —
a span's duration minus what its children cover — summed over the
workload's traced operations and divided by their number, so the layers
of one operation add back up to its wall clock (thread-seconds where a
pool ran tasks side by side).
"""

from __future__ import annotations

from collections import defaultdict

from stats import coefficient_of_variation
from spans import Span, Target, self_times


# -- hooks: counts read off a call's public result ----------------------------

def _pool_hook(_args, _kwargs, out) -> dict:
    d = out.dispatch
    times = list(out.per_task_time.values())
    return {
        "wall": out.wall_time, "workers": out.workers, "busy": sum(times),
        "task_cov": coefficient_of_variation(times), "chunks": d.chunks_issued,
        "serde_s": d.serde_s, "context_bytes": d.context_bytes,
        "task_bytes": d.task_bytes, "shm_attach_s": d.shm_attach_s,
        "retries": out.retries, "abandoned": len(out.abandoned),
    }


def _sim_hook(_args, _kwargs, out) -> dict:
    return {
        "steal_requests": sum(p.steal_requests_sent for p in out.pe_stats),
        "steals_ok": sum(p.steals_serviced for p in out.pe_stats),
        "messages": out.total_messages,
    }


def _flush_hook(_args, _kwargs, out) -> "dict | None":
    if not out:
        return None
    return {"sizes": [len(f) for f in out], "waited": [f.waited for f in out]}


def _publish_hook(_args, _kwargs, out) -> dict:
    return {"bytes": out.total_bytes}


def _methods(span: str, owner: str, *attrs: str) -> "list[Target]":
    return [Target(span, owner, a) for a in attrs]


_NN = "repro.knn"
#: every public callable the traced run wraps, by the span it records.
TARGETS: "list[Target]" = [
    Target("api.plan", "repro.api", "plan"),
    # Roadmap.merge is charged to whoever called it: see ``_charge_to``.
    Target("planners.roadmap_merge", "repro.planners.roadmap.Roadmap", "merge"),
    Target("core.build_workload", "repro.core.parallel_prm", "build_prm_workload"),
    Target("core.build_workload", "repro.core.parallel_rrt", "build_rrt_workload"),
    Target("core.region_connect", "repro.planners.prm.PRM", "connect_roadmaps"),
    Target("core.simulate", "repro.core.parallel_prm", "simulate_prm"),
    Target("core.repartition", "repro.core.repartition", "repartition"),
    Target("core.repartition", "repro.core.parallel_prm.PRMWorkload", "sample_count_weights"),
    Target("planners.prm_build", "repro.planners.prm.PRM", "build"),
    Target("planners.rrt_grow", "repro.planners.rrt.RRT", "grow"),
    Target("planners.freeze", "repro.planners.frozen.FrozenRoadmap", "from_roadmap"),
    Target("planners.freeze", "repro.planners.engine.QueryEngine", "__init__"),
    Target("planners.solve_many", "repro.planners.engine.QueryEngine", "solve_many"),
    Target("planners.astar", "repro.planners.frozen.FrozenRoadmap", "astar_virtual"),
    Target("cspace.sample", "repro.cspace.sampling.UniformSampler", "__call__"),
    Target("cspace.sample", "repro.cspace.space.ConfigurationSpace", "sample"),
    Target("cspace.valid", "repro.cspace.space.ConfigurationSpace", "valid_single"),
    *_methods("cspace.valid", "repro.cspace.space.EuclideanCSpace",
              "valid", "segment_valid", "segments_valid"),
    *_methods("cspace.local_plan", "repro.cspace.local_planner.StraightLinePlanner",
              "__call__", "batch_pairs", "batch_pairs_counted", "batch_pairs_exact",
              "batch_pairs_chunked"),
    *(
        Target(f"kernels.{short}", f"repro.kernels.{mod}", attr)
        for mod in ("reference.ReferenceKernels", "bvh_backend.BVHKernels")
        for short, attr in (
            ("points_free", "points_free"), ("segments_free", "segments_free"),
            ("pairwise", "pairwise_accumulate"), ("knn_block_min", "knn_block_min"),
        )
    ),
    # The batched RRT bypasses the finder API and calls this directly.
    Target("kernels.pairwise", "repro.kernels.reference", "pairwise_accumulate_exact"),
    Target("geometry.bvh_build", "repro.geometry.bvh.BVH", "__init__"),
    *_methods("geometry.bvh_traverse", "repro.geometry.bvh.BVH", "points_hit", "segments_hit"),
    Target("geometry.scene_gen", "repro.geometry.scenarios", "shelf_warehouse"),
    *_methods("knn.query", f"{_NN}.base.NeighborFinder", "knn_batch", "knn_batch_arrays"),
    *_methods("knn.query", f"{_NN}.brute.BruteForceNN",
              "knn", "knn_batch", "knn_batch_arrays", "knn_block_growing", "radius"),
    *_methods("knn.query", f"{_NN}.kdtree.KDTreeNN", "knn", "nn1", "radius"),
    *_methods("knn.query", f"{_NN}.incremental.IncrementalNN", "knn", "radius"),
    *(
        Target("knn.insert", f"{_NN}.{cls}", attr)
        for cls in ("brute.BruteForceNN", "kdtree.KDTreeNN", "incremental.IncrementalNN")
        for attr in ("add", "add_batch")
    ),
    Target("subdivision.build", "repro.subdivision.uniform.UniformSubdivision", "__init__"),
    Target("subdivision.build", "repro.subdivision.radial.RadialSubdivision", "__init__"),
    *_methods("subdivision.contains", "repro.subdivision.radial.ConeRegion",
              "contains", "contains_many"),
    *_methods("partition.partition", "repro.partition.naive",
              "partition_block", "partition_1d_columns"),
    *_methods("partition.partition", "repro.partition.greedy",
              "partition_greedy_lpt", "partition_weighted_blocks"),
    Target("partition.partition", "repro.partition.spatial", "partition_rcb"),
    Target("partition.partition", "repro.partition.refine", "refine_partition"),
    Target("runtime.pool_run", "repro.runtime.local_pool", "run_tasks_parallel",
           hook=_pool_hook, adopts_threads=True),
    Target("runtime.shm_publish", "repro.runtime.shm", "publish_arrays", hook=_publish_hook),
    Target("runtime.sim_run", "repro.runtime.simulator.WorkStealingSimulator", "run",
           hook=_sim_hook),
    Target("runtime.sim_static", "repro.runtime.simulator", "run_static_phase",
           hook=_sim_hook),
    Target("service.submit", "repro.service.service.PlanService", "submit"),
    Target("service.cache_get", "repro.service.cache.RoadmapCache", "get"),
    Target("service.cache_build", "repro.service.cache", "build_engine"),
    Target("service.coalesce", "repro.service.coalescer.BatchQueue", "pop_ready",
           hook=_flush_hook),
]

#: time metric -> the span whose summed self time it reports.
TIME_METRICS = {
    "api.plan_self_s": "api.plan",
    "api.merge_s": "api.merge",
    "core.build_workload_s": "core.build_workload",
    "core.region_connect_s": "core.region_connect",
    "core.simulate_s": "core.simulate",
    "core.repartition_s": "core.repartition",
    "planners.prm_build_s": "planners.prm_build",
    "planners.rrt_grow_s": "planners.rrt_grow",
    "planners.freeze_s": "planners.freeze",
    "planners.solve_many_s": "planners.solve_many",
    "planners.astar_s": "planners.astar",
    "cspace.sample_s": "cspace.sample",
    "cspace.valid_s": "cspace.valid",
    "cspace.local_plan_s": "cspace.local_plan",
    "kernels.points_free_s": "kernels.points_free",
    "kernels.segments_free_s": "kernels.segments_free",
    "kernels.pairwise_s": "kernels.pairwise",
    "kernels.knn_block_min_s": "kernels.knn_block_min",
    "geometry.bvh_build_s": "geometry.bvh_build",
    "geometry.bvh_traverse_s": "geometry.bvh_traverse",
    "knn.query_s": "knn.query",
    "knn.insert_s": "knn.insert",
    "subdivision.build_s": "subdivision.build",
    "subdivision.contains_s": "subdivision.contains",
    "partition.partition_s": "partition.partition",
    "runtime.shm_publish_s": "runtime.shm_publish",
    "runtime.sim_run_s": "runtime.sim_run",
    "runtime.sim_static_s": "runtime.sim_static",
    "service.submit_s": "service.submit",
    "service.cache_get_s": "service.cache_get",
    "service.cache_build_s": "service.cache_build",
}

#: metrics the workloads fill from public results and counters.
COUNT_METRICS = {
    "core.sim_makespan_sum": ("s", "lower"),
    "core.sim_cov_none": ("ratio", "lower"),
    "core.sim_cov_hybrid": ("ratio", "lower"),
    "planners.samples_attempted": ("count", "lower"),
    "planners.nodes_added": ("count", "higher"),
    "planners.useful_sample_ratio": ("ratio", "higher"),
    "planners.lp_attempts": ("count", "lower"),
    "planners.lp_success_ratio": ("ratio", "higher"),
    "kernels.point_checks": ("count", "lower"),
    "kernels.segment_checks": ("count", "lower"),
    "geometry.scene_gen_s": ("s", "lower"),
    "knn.queries": ("count", "lower"),
    "knn.distance_evals": ("count", "lower"),
    "knn.rebuilds": ("count", "lower"),
    "runtime.pool_wall_s": ("s", "lower"),
    "runtime.task_busy_s": ("s", "lower"),
    "runtime.pool_idle_frac": ("ratio", "lower"),
    "runtime.task_cov": ("ratio", "lower"),
    "runtime.chunks": ("count", "lower"),
    "runtime.serde_s": ("s", "lower"),
    "runtime.context_bytes": ("B", "lower"),
    "runtime.task_bytes": ("B", "lower"),
    "runtime.shm_bytes": ("B", "lower"),
    "runtime.shm_attach_s": ("s", "lower"),
    "runtime.retries": ("count", "lower"),
    "runtime.abandoned": ("count", "lower"),
    "runtime.pool_speedup": ("ratio", "higher"),
    "runtime.sim_steal_requests": ("count", "lower"),
    "runtime.sim_steals_ok": ("count", "higher"),
    "runtime.sim_steal_success_ratio": ("ratio", "higher"),
    "runtime.sim_messages": ("count", "lower"),
    "service.queue_wait_ms_p50": ("ms", "lower"),
    "service.batch_size_mean": ("count", "higher"),
    "service.batches": ("count", "lower"),
    "service.cache_hit_rate": ("ratio", "higher"),
    "service.cache_builds": ("count", "lower"),
    "service.cache_evictions": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.abandoned": ("count", "lower"),
    "service.latency_p99_ms": ("ms", "lower"),
    "service.slo_miss_frac": ("ratio", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
    "bench.unattributed_frac": ("ratio", "lower"),
    "bench.generator_late_ms_max": ("ms", "lower"),
    "bench.fail_frac": ("ratio", "lower"),
}


def per_layer_names() -> "list[str]":
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    return sorted([*TIME_METRICS, *COUNT_METRICS])


def per_layer_decl() -> "list[dict]":
    """The ``per_layer`` block of ``BENCHMARK.json``."""
    out = []
    for name in per_layer_names():
        unit, better = COUNT_METRICS.get(name, ("s", "lower"))
        out.append({"name": name, "unit": unit, "better": better})
    return out


# -- coverage guard -----------------------------------------------------------
# Spans that must fire at least once inside a workload's traced operations,
# and span prefixes that must never fire there (the "must be ~0" cells of
# the README's interaction table).  A renamed or inlined function then
# fails the run instead of silently dropping a layer from the ledger.

_PRM_BUILD = {
    "planners.prm_build", "cspace.sample", "cspace.valid", "cspace.local_plan",
    "kernels.points_free", "knn.query", "subdivision.build",
}
EXPECTED = {
    "prm_medcube_sim": _PRM_BUILD | {
        "api.plan", "core.build_workload", "core.region_connect", "core.simulate",
        "kernels.pairwise", "knn.insert", "partition.partition", "runtime.sim_run",
    },
    "rrt_mixed30_local": {
        "api.plan", "api.merge", "planners.rrt_grow", "cspace.sample", "cspace.valid",
        "cspace.local_plan", "kernels.points_free", "kernels.pairwise",
        "subdivision.build", "subdivision.contains", "runtime.pool_run",
    },
    "prm_warehouse_process": {
        "api.plan", "api.merge", "subdivision.build", "runtime.pool_run",
        "runtime.shm_publish",
    },
    # in-task spans of the process workload, seen only by the serial replay.
    "prm_warehouse_process/replay": _PRM_BUILD | {
        "geometry.bvh_build", "geometry.bvh_traverse", "runtime.pool_run",
    },
    "serve_mixed": {
        "service.submit", "service.cache_get", "service.cache_build", "service.coalesce",
        "planners.solve_many", "planners.astar", "planners.freeze", "core.build_workload",
        "core.region_connect", "planners.prm_build", "cspace.valid", "cspace.local_plan",
        "kernels.points_free", "knn.query", "runtime.pool_run",
    },
    "sim_strategy_sweep": {
        "core.simulate", "core.repartition", "partition.partition", "runtime.sim_run",
        "runtime.sim_static",
    },
}
FORBIDDEN = {
    "prm_medcube_sim": ("geometry.", "runtime.pool_run", "runtime.shm_publish", "service.",
                        "planners.rrt_grow", "subdivision.contains"),
    "rrt_mixed30_local": ("geometry.", "core.", "planners.prm_build", "knn.", "service.",
                          "runtime.sim_", "partition."),
    "prm_warehouse_process": ("core.", "planners.rrt_grow", "service.", "runtime.sim_",
                              "partition.", "subdivision.contains"),
    "serve_mixed": ("geometry.", "api.", "runtime.sim_", "partition.", "planners.rrt_grow",
                    "subdivision.contains"),
    "sim_strategy_sweep": ("geometry.", "api.", "planners.", "cspace.", "kernels.", "knn.",
                           "subdivision.", "runtime.pool_run", "runtime.shm_publish",
                           "service.", "core.build_workload", "core.region_connect"),
}


def coverage_errors(guard: str, calls: "dict[str, int]") -> "list[str]":
    """Names the guard table disagrees with; empty when coverage holds."""
    errors = [
        f"expected span never fired: {name}"
        for name in sorted(EXPECTED[guard]) if not calls.get(name)
    ]
    for prefix in FORBIDDEN.get(guard, ()):
        errors += [
            f"span must not fire on this workload: {name} ({n} calls)"
            for name, n in sorted(calls.items()) if n and name.startswith(prefix)
        ]
    return errors


# -- the ledger ---------------------------------------------------------------

def _charge_to(span: Span, names: "dict[int, str]") -> str:
    """The span name a span's self time is charged to.  ``Roadmap.merge``
    is the one shared helper: under ``plan()`` it is the facade's merge
    (``api.merge``), under a workload build it is part of that build."""
    if span.name != "planners.roadmap_merge":
        return span.name
    return "api.merge" if names.get(span.parent) == "api.plan" else "core.build_workload"


class Ledger:
    """Self time and call counts per charged span name over a set of ops."""

    def __init__(self, spans: "list[Span]", ops: "set[str]", _shared=None):
        # Self times cover every span (parents may lie outside ``ops``) and
        # are the costly part, so ledgers over one span list share them.
        names, selfs = _shared or ({s.id: s.name for s in spans}, self_times(spans))
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.attrs: "dict[str, list[dict]]" = defaultdict(list)
        self.root_self = self.root_wall = 0.0
        self.spans, self._ops, self._selfs, self._names = spans, ops, selfs, names
        for s in spans:
            if s.op not in ops:
                continue
            if s.name == "bench.op":
                self.root_self += selfs[s.id]
                self.root_wall += s.end - s.start
                continue
            name = _charge_to(s, names)
            self.self_s[name] += selfs[s.id]
            self.calls[name] += 1
            if s.attrs:
                self.attrs[s.name].append(s.attrs)

    def over(self, ops: "set[str]") -> "Ledger":
        """A ledger of the same spans restricted to other operations."""
        return Ledger(self.spans, ops, (self._names, self._selfs))

    def time_metrics(self, n_ops: int) -> "dict[str, float]":
        """Per-operation self seconds for every time metric."""
        return {m: self.self_s.get(span, 0.0) / n_ops for m, span in TIME_METRICS.items()}

    def unattributed_frac(self) -> float:
        """Share of the operations' wall during which no named span was open."""
        return self.root_self / self.root_wall if self.root_wall else 0.0

    def in_task_shares(self) -> "dict[str, float]":
        """Share of in-task self time per charged span, over spans that
        descend from a pool run (the serial replay of a process pool)."""
        parent = {s.id: s.parent for s in self.spans}
        under: "dict[int, bool]" = {}

        def under_pool(sid: "int | None") -> bool:
            chain = []
            while sid is not None and sid not in under:
                chain.append(sid)
                if self._names.get(sid) == "runtime.pool_run":
                    under[sid] = True
                    break
                sid = parent.get(sid)
            verdict = under.get(sid, False) if sid is not None else False
            for c in chain:
                under.setdefault(c, verdict)
            return verdict

        sums: "dict[str, float]" = defaultdict(float)
        for s in self.spans:
            if s.op in self._ops and s.name not in ("bench.op", "runtime.pool_run") \
                    and under_pool(s.parent):
                sums[_charge_to(s, self._names)] += self._selfs[s.id]
        total = sum(sums.values())
        return {k: v / total for k, v in sums.items()} if total else {}


def pool_metrics(pool_attrs: "list[dict]", n_ops: int) -> "dict[str, float]":
    """Pool-layer metrics from the ``run_tasks_parallel`` result hooks."""
    if not pool_attrs:
        return {}
    wall = sum(a["wall"] for a in pool_attrs)
    busy = sum(a["busy"] for a in pool_attrs)
    capacity = sum(a["wall"] * a["workers"] for a in pool_attrs)
    tot = lambda key: sum(a[key] for a in pool_attrs)  # noqa: E731
    return {
        "runtime.pool_wall_s": wall / n_ops,
        "runtime.task_busy_s": busy / n_ops,
        "runtime.pool_idle_frac": max(1.0 - busy / capacity, 0.0) if capacity else 0.0,
        "runtime.task_cov": sum(a["task_cov"] for a in pool_attrs) / len(pool_attrs),
        "runtime.chunks": tot("chunks") / n_ops,
        "runtime.serde_s": tot("serde_s") / n_ops,
        "runtime.context_bytes": tot("context_bytes") / n_ops,
        "runtime.task_bytes": tot("task_bytes") / n_ops,
        "runtime.shm_attach_s": tot("shm_attach_s") / n_ops,
        "runtime.retries": tot("retries"),
        "runtime.abandoned": tot("abandoned"),
    }


def sim_metrics(sim_attrs: "list[dict]", n_ops: int) -> "dict[str, float]":
    """Simulator-layer counts from the ``SimResult`` hooks (exact)."""
    if not sim_attrs:
        return {}
    req = sum(a["steal_requests"] for a in sim_attrs)
    ok = sum(a["steals_ok"] for a in sim_attrs)
    return {
        "runtime.sim_steal_requests": req / n_ops,
        "runtime.sim_steals_ok": ok / n_ops,
        "runtime.sim_steal_success_ratio": ok / req if req else 0.0,
        "runtime.sim_messages": sum(a["messages"] for a in sim_attrs) / n_ops,
    }
