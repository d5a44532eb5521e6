"""repro.api — one entry point over the whole planning pipeline.

The repo's primitives are deliberately separable (build a workload once,
replay it under many strategies), but most callers want the whole chain:
environment → subdivision → regional planning → weights/repartition →
simulated machine or local pool.  :func:`plan` composes it:

    >>> from repro import ExecutionPolicy, PlanRequest, WorkloadSpec, plan
    >>> report = plan(PlanRequest(
    ...     workload=WorkloadSpec(environment="med-cube", planner="prm",
    ...                           num_regions=512, seed=1),
    ...     execution=ExecutionPolicy(strategy="hybrid", num_pes=96),
    ... ))
    >>> report.total_time, report.sim.efficiency()

Every knob rides on the request's four composable specs (see
:mod:`repro.spec`): the :class:`~repro.spec.WorkloadSpec` problem
definition, the :class:`~repro.spec.ExecutionPolicy` (simulated machine
or local pool), the :class:`~repro.spec.FaultPolicy`, and the
:class:`~repro.spec.ObsConfig` tracer hook.  The same spec objects drive
:meth:`PlanReport.solve_queries` batch serving and the persistent
:class:`repro.service.PlanService`; a bare :class:`WorkloadSpec` is also
accepted directly::

    >>> plan(WorkloadSpec(num_regions=64), execution=ExecutionPolicy(num_pes=8))

The pre-facade entry points (``build_prm_workload`` / ``simulate_prm``
and the RRT pair) remain the underlying building blocks, and one region
planner (:class:`repro.core.PRMRegionPlanner` /
:class:`repro.core.RRTRegionPlanner`, ``rid -> regional result``) is the
single regional entry point under both execution modes.

``ExecutionPolicy.mode == "simulate"`` (default) builds the workload
(:meth:`WorkloadSpec.build_workload`) and replays it on a virtual machine
of ``num_pes`` PEs.  ``mode == "local"`` instead hands the region planner
to :func:`repro.runtime.run_tasks_parallel`, which runs the regions truly
in parallel on this machine's cores, and reports wall-clock numbers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import TYPE_CHECKING

from .core.machine import RunResult
from .core.parallel_prm import PRMRegionPlanner, PRMWorkload, simulate_prm
from .core.parallel_rrt import RRTRegionPlanner, RRTWorkload, default_root, simulate_rrt
from .cspace.space import ConfigurationSpace, EuclideanCSpace
from .geometry.bvh import BVH
from .geometry.environment import Environment
from .geometry.primitives import AABB
from .kernels.bvh_backend import _CACHE_ATTR
from .kernels.data import EnvKernelData
from .obs.summary import TraceSummary, format_summary, summarize_events
from .planners.engine import BatchQueryResult, QueryEngine
from .planners.prm import PRMBlock, PRMSegment
from .planners.roadmap import Roadmap
from .planners.stats import PlannerStats
from .runtime import shm as _shm
from .runtime.local_pool import PoolResult, run_tasks_parallel
from .spec import ExecutionPolicy, FaultPolicy, ObsConfig, PlanRequest, WorkloadSpec

if TYPE_CHECKING:
    from .runtime.stats import SimResult

__all__ = [
    "PlanRequest",
    "PlanReport",
    "plan",
    "WorkloadSpec",
    "ExecutionPolicy",
    "FaultPolicy",
    "ObsConfig",
]


@dataclass
class PlanReport:
    """What came back: the workload, the machine result, and accessors
    that read the same regardless of planner or execution mode."""

    request: PlanRequest
    #: measured workload (simulate mode; None for local execution).
    workload: "PRMWorkload | RRTWorkload | None"
    #: simulated run (None for local execution).
    result: "RunResult | None"
    #: local pool accounting (None for simulate mode).
    pool: "PoolResult | None"
    #: merged roadmap / tree across regions.
    roadmap: Roadmap
    #: merged per-region operation counts (local mode; None for simulate,
    #: where the counts live on the workload's region ledger).
    local_stats: "PlannerStats | None" = None
    #: ``(point_checks, segment_checks)`` summed across local tasks.
    local_counters: "tuple[int, int] | None" = None

    @property
    def phases(self):
        """Per-phase breakdown (:class:`~repro.core.machine.PhaseTimes`);
        simulate only."""
        return self.result.phases if self.result is not None else None

    @property
    def sim(self) -> "SimResult | None":
        """Simulator output of the load-balanced phase; simulate only."""
        return self.result.sim if self.result is not None else None

    @property
    def total_time(self) -> float:
        """Virtual seconds (simulate) or wall seconds (local)."""
        if self.result is not None:
            return self.result.total_time
        return self.pool.wall_time if self.pool is not None else 0.0

    @property
    def retries(self) -> int:
        """Failed attempts the local pool rescheduled (0 when simulated)."""
        return self.pool.retries if self.pool is not None else 0

    @property
    def abandoned_regions(self) -> "list[int]":
        """Regions the local pool gave up on under the ``"degrade"``
        policy (sorted; empty when simulated)."""
        return list(self.pool.abandoned) if self.pool is not None else []

    @property
    def worker_deaths(self) -> int:
        """Local pool workers that died during the run (0 when simulated)."""
        return self.pool.worker_deaths if self.pool is not None else 0

    def query_engine(self) -> QueryEngine:
        """The query-serving engine over this report's roadmap.

        The engine freezes the roadmap into a CSR snapshot and builds one
        reusable NN index, amortising all per-query setup; see
        :class:`repro.planners.engine.QueryEngine`.  It is built once and
        cached, so repeated calls (and :meth:`solve_queries`) reuse the
        same snapshot and index, over a configuration space resolved the
        way :func:`plan` resolved its own — a ``bvh`` plan serves its
        queries through the ``bvh`` collision kernels too.
        """
        engine = getattr(self, "_engine", None)
        if engine is None:
            engine = self._engine = QueryEngine(
                self.request.resolve_cspace(), self.roadmap
            )
        return engine

    def solve_queries(
        self,
        requests,
        execution: "ExecutionPolicy | None" = None,
        faults: "FaultPolicy | None" = None,
    ) -> BatchQueryResult:
        """Solve a batch of ``(start, goal)`` queries against the built
        roadmap via the cached :meth:`query_engine`.

        ``execution`` / ``faults`` specs (the same objects :func:`plan`
        and :class:`repro.service.PlanService` take) configure the pool
        dispatch and retry/degrade policy of
        :meth:`repro.planners.engine.QueryEngine.solve_many`; without an
        ``execution`` the batch runs inline.  The request's tracer is
        attached so query events land in the same trace as the build, and
        retry/abandonment accounting surfaces on the returned
        :class:`~repro.planners.engine.BatchQueryResult` exactly as
        :func:`plan` surfaces it on the report (``retries``,
        ``abandoned``, ``attempts``, ``worker_deaths``).
        """
        return self.query_engine().solve_many(
            requests, tracer=self.request.obs.tracer, execution=execution, faults=faults
        )

    def trace_summary(self) -> "TraceSummary | None":
        """Aggregate the attached tracer's in-memory trace, if any."""
        tr = self.request.obs.tracer
        if tr is None or tr.memory is None:
            return None
        return summarize_events(tr.memory.events)

    @property
    def dispatch(self):
        """Dispatch accounting (chunking, bytes shipped, shm traffic) of
        the local pool run; None in simulate mode."""
        return self.pool.dispatch if self.pool is not None else None

    @property
    def planner_stats(self):
        """Merged per-region operation counts, either execution mode."""
        if self.workload is None:
            return self.local_stats
        work = getattr(self.workload, "region_work", None)
        if work is None:
            work = self.workload.branch_work
        return PlannerStats.total(w.stats for w in work.values())

    def summary(self) -> str:
        """Human-readable report of the run."""
        wl, ex = self.request.workload, self.request.execution
        if self.pool is not None:
            # Strategy and PE count are simulate-only; a local run reports
            # the pool it actually ran on ("thread" spells "inline").
            n, backend = self.pool.workers, "process" if ex.backend == "process" else "inline"
            header = f"{wl.planner.upper()} on {n} {backend} worker{'s' * (n != 1)}"
        else:
            header = f"{wl.planner.upper()} / {ex.strategy} on {ex.num_pes} PEs"
        lines = [
            f"{header} ({ex.mode})",
            f"roadmap: {self.roadmap.num_vertices} vertices, "
            f"{self.roadmap.num_edges} edges",
            f"total time: {self.total_time:.2f}",
        ]
        if self.pool is not None:
            slowest = self.pool.slowest_task()
            if slowest is not None:
                lines.append(
                    f"slowest region: #{slowest[0]} at {slowest[1]:.3f}s "
                    f"across {self.pool.workers} workers"
                )
        if self.retries or self.abandoned_regions or self.worker_deaths:
            lines.append(
                f"failures: {self.retries} retries, "
                f"{len(self.abandoned_regions)} abandoned regions, "
                f"{self.worker_deaths} worker deaths"
            )
        ts = self.trace_summary()
        if ts is not None:
            lines += ["", format_summary(ts, planner_stats=self.planner_stats)]
        return "\n".join(lines)


def plan(
    request: "PlanRequest | WorkloadSpec",
    execution: "ExecutionPolicy | None" = None,
    faults: "FaultPolicy | None" = None,
    obs: "ObsConfig | None" = None,
) -> PlanReport:
    """Run the full pipeline described by ``request``.

    ``request`` is a :class:`~repro.spec.PlanRequest`, or a bare
    :class:`~repro.spec.WorkloadSpec` combined with optional
    ``execution`` / ``faults`` / ``obs`` specs — the same vocabulary
    every other entry point (:meth:`PlanReport.solve_queries`,
    :class:`repro.service.PlanService`) speaks.
    """
    if isinstance(request, WorkloadSpec):
        request = PlanRequest(
            workload=request, execution=execution, faults=faults, obs=obs
        )
    elif execution is not None or faults is not None or obs is not None:
        raise TypeError(
            "execution/faults/obs overrides are only accepted with a bare "
            "WorkloadSpec; a full PlanRequest already carries them"
        )
    request.validate()
    wl, ex = request.workload, request.execution
    cspace = request.resolve_cspace()
    if ex.mode == "local":
        return _plan_local(request, cspace)
    workload = wl.build_workload(cspace)
    simulate = simulate_prm if wl.planner == "prm" else simulate_rrt
    result = simulate(
        workload, ex.num_pes, ex.strategy, steal_chunk=ex.steal_chunk, tracer=request.obs.tracer
    )
    return PlanReport(
        request=request,
        workload=workload,
        result=result,
        pool=None,
        roadmap=workload.roadmap,
    )


# ---------------------------------------------------------------------------
# Local (true-parallel) execution
# ---------------------------------------------------------------------------
# Local mode's regional tasks were written against the constructor defaults
# of PRM / RRT / RadialSubdivision and the workload builders against the
# constants of Alg. 1 / Alg. 2 (``repro.core.parallel_prm`` /
# ``parallel_rrt``), so the two plan different problems from one spec
# (table in docs/runtime.md).  These records hold local mode's eight values
# exactly; they are the only values the region planners' keyword
# parameters ever receive.  Constants, not options: reconciling them with
# the builders' constants moves both local benchmark workloads' oracles, so
# that is a change made together with the benchmark, not here.
LOCAL_PRM = {"k": 6, "lp_resolution": 0.25, "narrow_passage_boost": 0.0}
LOCAL_RRT = {
    "step_size": 0.5,
    "goal_bias": 0.05,
    "lp_resolution": 0.25,
    "k_adjacent": 4,
    "overlap_angle": 0.0,
}


def _region_planner(
    cspace: ConfigurationSpace, wl: WorkloadSpec
) -> "PRMRegionPlanner | RRTRegionPlanner":
    """Local mode's region planner; the dispatching parent and every shm
    worker build an equal one from the same two arguments."""
    if wl.planner == "prm":
        return PRMRegionPlanner(
            cspace, wl.num_regions, wl.samples_per_region, seed=wl.seed, **LOCAL_PRM
        )
    return RRTRegionPlanner(
        cspace, default_root(cspace, wl.seed), wl.num_regions, wl.nodes_per_region,
        seed=wl.seed, **LOCAL_RRT,
    )


def _counted(regions, run):
    """``run()`` plus the calling thread's own exact share of the collision
    work as ``(point_checks, segment_checks)`` (``CollisionCounters``
    windows are per-thread), which also survives the hop back from worker
    processes, where the parent's environment counters never tick."""
    counters = regions.cspace.env.counters
    before = counters.snapshot()
    out = run()
    delta = counters.delta(before)
    return out, (delta.point_checks, delta.segment_checks)


def _shares(amount: int, upto: "list[int]") -> "list[int]":
    """``amount`` split in proportion to the steps of the running total
    ``upto``: exact when it is a multiple of ``upto[-1]`` (every checked
    point charges the counters the same constant), and summing to
    ``amount`` whatever it is."""
    total = max(upto[-1], 1)
    marks = [0] + [amount * u // total for u in upto]
    return [b - a for a, b in zip(marks, marks[1:])]


class _RegionTask:
    """What the pool runs: ``rid -> (roadmap, stats, collision checks)``.

    The chunk a worker receives is the block it plans: ``run_block`` is the
    pool's offer of a whole chunk of fresh regions (see
    :func:`repro.runtime.run_tasks_parallel`), which both planners take
    through their ``plan_block``.  A PRM answers each region with a
    :class:`PRMSegment` of its block in place of its ``Roadmap``; an RRT
    with its branch's own tree.
    """

    def __init__(self, regions: "PRMRegionPlanner | RRTRegionPlanner"):
        self.regions = regions

    def __call__(self, rid: int) -> "tuple[Roadmap, PlannerStats, tuple[int, int]]":
        regions = self.regions
        result, checks = _counted(regions, lambda: regions(rid))
        return result.roadmap, result.stats, checks

    def run_block(self, rids: "list[int]"):
        """``(values, work)`` for ``rids`` planned as blocks.  ``work[i]``
        is region ``i``'s collision-checked points — the share of the
        measured time the pool charges it, and exactly its share of a
        block's counters."""
        regions = self.regions
        values, work = [], []
        for block_rids in regions.blocks(rids):
            block, checks = _counted(regions, lambda: regions.plan_block(block_rids))
            if isinstance(block, PRMBlock):
                parts = [PRMSegment(block, i) for i in range(len(block_rids))]
                stats = block.stats
            else:
                parts, stats = [r.tree for r in block], [r.stats for r in block]
            points = [st.sample_attempts + st.lp_checks for st in stats]
            upto = list(accumulate(points))
            per_region = zip(*(_shares(c, upto) for c in checks))
            values += list(zip(parts, stats, per_region))
            work += points
        return values, work


# --- data planes -----------------------------------------------------------
# Two ways to get the heavy planning context (environment + subdivision)
# to pool workers.  "inline" ships the closure with every chunk (the
# historical behaviour — cheap under fork's copy-on-write, expensive under
# spawn).  "shm" publishes the environment's obstacle arrays as a shared
# memory segment — on the ``bvh`` backend with the collision tree's packed
# arrays beside them — and workers map it zero-copy and rebuild the
# (deterministic) region planner locally, adopting the tree instead of
# building one: per-chunk traffic is a few hundred bytes however large
# the scene is, and the tree is built once, in the parent.  Results are
# bit-identical across both.

@dataclass(frozen=True)
class _ShmPlanContext:
    """Everything a worker needs to rebuild the region planner from shm."""

    manifest: _shm.SharedArrayManifest
    #: the plan's workload, its environment replaced by the scene's name.
    workload: WorkloadSpec
    kernel_backend: str


#: one rebuilt region planner per worker process, keyed by the full context.
_SHM_TASK_CACHE: "dict[_ShmPlanContext, object]" = {}

#: The tree the parent ships with a ``bvh`` plan: one entry, keyed by the
#: obstacle arrays' content, so successive plans on one scene build it
#: once.  Deliberately not the caller's snapshot's tree: that one is built
#: lazily by whatever queries the snapshot first, so an in-process plan on
#: the same environment still builds (and traces) its own.
_SHM_TREE_CACHE: "dict[bytes, BVH]" = {}

#: Prefix of the tree's arrays in the published segment.
_TREE_PREFIX = "bvh."

#: Where a snapshot keeps its obstacles' content key once hashed (a
#: snapshot's arrays never change), so a repeat plan does not hash again.
_KEY_ATTR = "_shipped_key"


def _shipped_tree(data: EnvKernelData) -> BVH:
    """The box tree over ``data``'s obstacles, from the one-entry cache."""
    key = getattr(data, _KEY_ATTR, None)
    if key is None:
        h = hashlib.sha256(repr(data.box_lo.shape).encode())
        h.update(data.box_lo)
        h.update(data.box_hi)
        key = h.digest()
        setattr(data, _KEY_ATTR, key)
    tree = _SHM_TREE_CACHE.get(key)
    if tree is None:
        tree = BVH(data.box_lo, data.box_hi)
        _SHM_TREE_CACHE.clear()
        _SHM_TREE_CACHE[key] = tree
    return tree


class _ShmRegionTask(_RegionTask):
    """:class:`_RegionTask` over the planner a worker rebuilds from shm.

    A segment that carries a tree gets it installed on the rebuilt
    environment's snapshot, as read-only views of the segment: the
    worker never builds one.
    """

    def __init__(self, ctx: _ShmPlanContext):
        self.ctx = ctx

    @property
    def regions(self) -> "PRMRegionPlanner | RRTRegionPlanner":
        ctx = self.ctx
        regions = _SHM_TASK_CACHE.get(ctx)
        if regions is None:
            arrays = _shm.attach_arrays(ctx.manifest)
            env = Environment.from_arrays(
                AABB(arrays["bounds_lo"], arrays["bounds_hi"]),
                arrays["obs_lo"],
                arrays["obs_hi"],
                name=ctx.workload.environment,
                kernel_backend=ctx.kernel_backend,
            )
            tree = {
                name[len(_TREE_PREFIX):]: a
                for name, a in arrays.items() if name.startswith(_TREE_PREFIX)
            }
            if tree:
                setattr(env.kernel_data(), _CACHE_ATTR, BVH.from_packed(tree))
            regions = _region_planner(EuclideanCSpace(env), ctx.workload)
            _SHM_TASK_CACHE.clear()
            _SHM_TASK_CACHE[ctx] = regions
        return regions


def _publish_plan(
    env: Environment, wl: WorkloadSpec, tracer
) -> "tuple[_shm.SharedArrayManifest, _ShmRegionTask]":
    """Publish ``env``'s bounds and obstacles — and on the ``bvh`` backend
    its tree's packed arrays — as one segment, and the task that rebuilds
    ``wl``'s region planner from it."""
    data = env.kernel_data()
    arrays = {
        "bounds_lo": data.bounds_lo,
        "bounds_hi": data.bounds_hi,
        "obs_lo": data.box_lo,
        "obs_hi": data.box_hi,
    }
    if env.kernel_backend.name == "bvh":
        tree = _shipped_tree(data).packed()
        arrays.update((_TREE_PREFIX + name, a) for name, a in tree.items())
    manifest = _shm.publish_arrays(arrays, label="environment", tracer=tracer)
    ctx = _ShmPlanContext(
        manifest=manifest,
        workload=replace(wl, environment=env.name),
        kernel_backend=env.kernel_backend.name,
    )
    return manifest, _ShmRegionTask(ctx)


def _resolve_data_plane(ex: ExecutionPolicy) -> str:
    plane = ex.data_plane
    if plane == "auto":
        return "shm" if ex.backend == "process" and _shm.shm_available() else "inline"
    if plane == "shm" and not _shm.shm_available():
        raise ValueError("data_plane='shm' needs POSIX shared memory")
    return plane


def _plan_local(request: PlanRequest, cspace: ConfigurationSpace) -> PlanReport:
    """Run the regional planners for real on the local machine's cores.

    The pool's greedy dynamic dispatch is the shared-memory analogue of
    work stealing, so the ``strategy`` field is irrelevant here; regions
    are the unit of work exactly as on the simulated machine.
    """
    wl, ex, fa, ob = request.workload, request.execution, request.faults, request.obs
    regions = _region_planner(cspace, wl)
    task = _RegionTask(regions)

    plane = _resolve_data_plane(ex)
    manifest = None
    try:
        if plane == "shm":
            manifest, task = _publish_plan(cspace.env, wl, ob.tracer)
        pool = run_tasks_parallel(
            task,
            regions.region_ids,
            workers=ex.workers,
            backend=ex.backend,
            chunksize=ex.chunksize,
            tracer=ob.tracer,
            **fa.pool_kwargs(retry_seed=wl.seed),
        )
    finally:
        if manifest is not None:
            _shm.release(manifest)
    if manifest is not None:
        pool.dispatch.shm_segments += 1 if manifest.segment else 0
        pool.dispatch.shm_bytes += manifest.total_bytes
    # Under "degrade" abandoned regions are simply absent from the merge:
    # regional roadmaps are independent subproblems, so the survivors
    # stitch into a valid (if sparser) roadmap.
    results = [pool.results[rid] for rid in sorted(pool.results)]
    # A block's segments arrive together or not at all (one that raised
    # was re-run region by region) and stand side by side in region
    # order, so the block goes in whole where its first segment stands.
    merged = Roadmap(cspace.dim)
    merged.merge(*(
        part if isinstance(part, Roadmap) else part.block
        for part, _stats, _checks in results
        if isinstance(part, Roadmap) or part.index == 0
    ))
    return PlanReport(
        request=request,
        workload=None,
        result=None,
        pool=pool,
        roadmap=merged,
        local_stats=PlannerStats.total(stats for _part, stats, _checks in results),
        local_counters=(sum(pc for *_, (pc, _sc) in results),
                        sum(sc for *_, (_pc, sc) in results)),
    )
