"""Uniform radial subdivision parallel RRT with load balancing (Alg. 2, 3).

Phases mirror the parallel PRM driver:

1. **Region construction** — sample ``Nr`` points on the hypersphere,
   build the conical region graph (Alg. 2 lines 1-9).
2. **Branch growth** — grow a biased, cone-constrained sequential RRT per
   region (line 11); each branch draws its samples from its own cone
   (:class:`RRTRegionPlanner`).  This is the imbalanced phase: cones
   blocked by obstacles burn iterations on failed extensions while open
   cones grow smoothly.  Work stealing applies here; repartitioning may
   too, but its only available weight — the k-random-rays free-space
   probe — is both costly and inaccurate (Sec. III-B), which Fig. 10b
   shows can make it a net loss.
3. **Branch connection** — connect branches of adjacent regions; an edge
   that would create a cycle triggers a prune (we rewire the child to the
   shorter parent, preserving the tree property).

As with PRM, real planning happens once in :func:`build_rrt_workload`;
per-strategy machine behaviour is replayed by :func:`simulate_rrt`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..geometry.primitives import AABB
from ..obs.events import (
    EV_REMOTE_ACCESS,
    PHASE_CONNECT,
    PHASE_CONSTRUCT,
    PHASE_REPARTITION,
    PHASE_SUBDIVIDE,
    PHASE_TERMINATE,
    PHASE_WEIGH,
)
from ..obs.tracer import active
from ..planners.roadmap import Roadmap
from ..planners.rrt import RRT, RRTResult
from ..planners.stats import PlannerStats, WorkModel
from ..runtime.faults import FaultInjector
from ..runtime.pgraph import PGraphView
from ..runtime.stats import SimResult
from ..runtime.topology import ClusterTopology
from ..subdivision.radial import ConeRegion, RadialSubdivision
from .metrics import emit_phase_spans
from .parallel_prm import ID_SHIFT, REGION_CREATE_COST, region_rng
from .repartition import RepartitionResult, initial_assignment, repartition
from .weights import rrt_k_rays_weights
from .work_stealing import run_balanced_phase

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "BranchWork",
    "BranchAdjacencyWork",
    "RRTWorkload",
    "RRTPhaseTimes",
    "RRTRunResult",
    "RRTRegionPlanner",
    "default_root",
    "build_rrt_workload",
    "simulate_rrt",
]


@dataclass
class BranchWork:
    """Measured work of growing one conical region's RRT branch."""

    rid: int
    grow_cost: float
    num_nodes: int
    stats: PlannerStats


@dataclass
class BranchAdjacencyWork:
    """Measured work of connecting two adjacent branches."""

    a: int
    b: int
    cost: float
    vertex_reads: int
    edges_added: int
    cycles_pruned: int


@dataclass
class RRTWorkload:
    """Per-problem measured work, reused across strategies and PE counts."""

    cspace: ConfigurationSpace
    radial: RadialSubdivision
    branch_work: "dict[int, BranchWork]"
    adjacency_work: "list[BranchAdjacencyWork]"
    tree: Roadmap
    parents: "dict[int, int]"
    root_config: np.ndarray
    work_model: WorkModel
    seed: int

    @property
    def num_regions(self) -> int:
        return self.radial.num_regions

    @property
    def roadmap(self) -> Roadmap:
        """Uniform alias: the grown tree, named as the PRM workload names
        its merged roadmap (lets ``plan()`` report either planner)."""
        return self.tree


@dataclass
class RRTPhaseTimes:
    """Virtual seconds per phase; implements the shared
    :class:`repro.core.metrics.PhaseBreakdown` protocol."""

    region_construction: float = 0.0
    branch_growth: float = 0.0
    branch_connection: float = 0.0
    #: k-rays free-space probe time (the costly part of RRT weighing).
    weigh: float = 0.0
    lb_overhead: float = 0.0
    termination: float = 0.0

    @property
    def other(self) -> float:
        return (
            self.region_construction + self.weigh + self.lb_overhead + self.termination
        )

    @property
    def total(self) -> float:
        return self.other + self.branch_growth + self.branch_connection

    def phase_items(self) -> "list[tuple[str, float]]":
        """Canonical (name, duration) pairs in timeline order; RRT has no
        ``generate`` phase (branch growth subsumes sampling)."""
        return [
            (PHASE_SUBDIVIDE, self.region_construction),
            (PHASE_WEIGH, self.weigh),
            (PHASE_REPARTITION, self.lb_overhead),
            (PHASE_CONSTRUCT, self.branch_growth),
            (PHASE_TERMINATE, self.termination),
            (PHASE_CONNECT, self.branch_connection),
        ]


@dataclass
class RRTRunResult:
    strategy: str
    num_pes: int
    phases: RRTPhaseTimes
    growth_loads: np.ndarray
    nodes_per_pe: np.ndarray
    growth_sim: SimResult
    repartition_info: "RepartitionResult | None" = None

    @property
    def total_time(self) -> float:
        return self.phases.total

    # -- PlannerRunResult protocol (uniform across PRM / RRT) --------------
    @property
    def sim(self) -> SimResult:
        """Simulator output of the load-balanced phase (branch growth)."""
        return self.growth_sim

    @property
    def loads(self) -> np.ndarray:
        """Per-PE virtual work in the load-balanced phase."""
        return self.growth_loads


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------

def default_root(cspace: ConfigurationSpace, seed: int) -> np.ndarray:
    """A valid RRT root: the bounds centre if free, else a valid sample.

    Sampling starts near the centre and widens to the full bounds — some
    environments (e.g. med-cube) block the entire central region.
    """
    lo, hi = cspace.bounds.lo, cspace.bounds.hi
    mid = (lo + hi) / 2.0
    root = mid.copy()
    rng = np.random.default_rng(seed)
    for attempt in range(10_000):
        if cspace.valid_single(root):
            return root
        scale = 0.3 if attempt < 64 else 1.0
        root = rng.uniform(mid + scale * (lo - mid), mid + scale * (hi - mid))
    raise ValueError("no valid RRT root found; environment looks fully blocked")


class _LiftedCone:
    """A cone as a sampling domain of configuration space: positional
    dims from the cone, any other dim uniform from the bounds (the lift
    the bias target gets).  An elementwise map of the unit cube, one
    uniform per configuration dim, so a block draw consumes the generator
    exactly as that many single draws do."""

    def __init__(self, region: ConeRegion, bounds: AABB, dims: "list[int]"):
        self.region, self.bounds, self.dims = region, bounds, dims

    def from_unit_cube(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        out = self.bounds.from_unit_cube(u)
        out[..., self.dims] = self.region.from_unit_cube(u[..., self.dims])
        return out

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        dim = self.bounds.dim
        return self.from_unit_cube(rng.random(dim if n is None else (n, dim)))


class RRTRegionPlanner:
    """Alg. 2 line 11 as one picklable callable: ``rid -> RRTResult``.

    The RRT twin of :class:`repro.core.parallel_prm.PRMRegionPlanner` and
    likewise the single regional entry point of every execution mode.  It
    owns root -> radius -> radial decomposition, the ``(seed, rid)`` RNG
    keying, the ``rid << ID_SHIFT`` id block and what "grow the branch
    biased toward its region" means: ``q_rand`` is drawn *from the cone*
    (uniform over cone ∩ ball, lifted like the bias target), ``goal_bias``
    of the draws go to the cone's target, and every valid extension still
    passes the cone's membership test — which convex cones now almost
    never fail, but cones wider than pi/2 (``num_regions <= 3``) can.
    The region travels as arguments of each ``grow`` call: the one
    :class:`RRT` below is shared by every pool thread.  The keyword
    parameters are :func:`build_rrt_workload`'s, defaults included.
    """

    def __init__(
        self, cspace: ConfigurationSpace, root: np.ndarray, num_regions: int,
        nodes_per_region: int, seed: int = 0, radius: float | None = None, k_adjacent: int = 3,
        overlap_angle: float = 0.1, step_size: float = 0.6, goal_bias: float = 0.3,
        iteration_factor: int = 40, lp_resolution: float = 0.5, batched: bool = True,
        nn_factory=None,
    ):
        root = np.asarray(root, dtype=float)
        if not cspace.valid_single(root):
            raise ValueError("RRT root configuration is invalid")
        self.cspace = cspace
        self.root = root
        self.nodes_per_region = nodes_per_region
        self.seed = seed
        self.max_iterations = iteration_factor * nodes_per_region
        self.pos_dims = dims = list(cspace.positional_dims)
        root_pos = root[dims]
        if radius is None:
            lo, hi = cspace.bounds.lo[dims], cspace.bounds.hi[dims]
            radius = float(min(np.min(root_pos - lo), np.min(hi - root_pos)))
        self.decomposition = RadialSubdivision(
            root_pos, radius, num_regions, k=k_adjacent, overlap=overlap_angle,
            rng=np.random.default_rng(seed),
        )
        self.planner = RRT(
            cspace, step_size=step_size, goal_bias=goal_bias, nn_factory=nn_factory,
            local_planner=StraightLinePlanner(resolution=lp_resolution), batched=batched,
        )

    @property
    def region_ids(self) -> "list[int]":
        return self.decomposition.graph.region_ids()

    def __call__(self, rid: int) -> RRTResult:
        region = self.decomposition.region_of(rid)
        dims = self.pos_dims
        # Bias target: the cone's target point, the root's values elsewhere.
        bias_cfg = self.root.copy()
        bias_cfg[dims] = region.target
        return self.planner.grow(
            self.root,
            self.nodes_per_region,
            region_rng(self.seed, rid),
            bias_target=bias_cfg,
            region_predicate=lambda q: region.contains(np.asarray(q)[dims]),
            max_iterations=self.max_iterations,
            id_base=rid << ID_SHIFT,
            region_predicate_batch=lambda qs: region.contains_many(
                np.atleast_2d(np.asarray(qs))[:, dims]
            ),
            within=_LiftedCone(region, self.cspace.bounds, dims),
        )


def build_rrt_workload(
    cspace: ConfigurationSpace,
    root: np.ndarray,
    num_regions: int,
    nodes_per_region: int = 12,
    radius: float | None = None,
    k_adjacent: int = 3,
    k_inter: int = 1,
    overlap_angle: float = 0.1,
    step_size: float = 0.6,
    goal_bias: float = 0.3,
    iteration_factor: int = 40,
    connect_sources: int = 3,
    seed: int = 0,
    work_model: WorkModel | None = None,
    lp_resolution: float = 0.5,
    batched: bool = True,
    nn_factory=None,
) -> RRTWorkload:
    """Grow every conical branch once against the real geometry, each
    drawing its samples from its own cone (:class:`RRTRegionPlanner`).

    ``radius`` defaults to the largest sphere around the root's position
    that fits the workspace bounds.  ``batched`` selects the vectorised
    predict-validate-replay growth path (identical trees and stats; see
    :class:`repro.planners.rrt.RRT`); False forces the one-extension-at-a-
    time reference loop.  ``nn_factory`` (``dim -> NeighborFinder``,
    default brute force) is used both for branch growth and for the
    branch-connection nearest-neighbour lookups; all finders share the
    canonical (distance, insertion order) tie-break, so the workload is
    identical whichever backend is chosen.
    """
    work_model = work_model if work_model is not None else WorkModel()
    regions = RRTRegionPlanner(
        cspace, root, num_regions, nodes_per_region, seed=seed, radius=radius,
        k_adjacent=k_adjacent, overlap_angle=overlap_angle, step_size=step_size,
        goal_bias=goal_bias, iteration_factor=iteration_factor,
        lp_resolution=lp_resolution, batched=batched, nn_factory=nn_factory,
    )
    radial, planner, root = regions.decomposition, regions.planner, regions.root

    tree = Roadmap(cspace.dim)
    parents: "dict[int, int]" = {}
    branch_work: "dict[int, BranchWork]" = {}
    branch_nodes: "dict[int, np.ndarray]" = {}

    for rid in regions.region_ids:
        result = regions(rid)
        st = result.stats
        cost = work_model.time_of(st)
        branch_work[rid] = BranchWork(rid, cost, result.tree.num_vertices, st)
        tree.merge(result.tree)
        parents.update(result.parents)
        ids, _cfgs = result.tree.configs_array()
        branch_nodes[rid] = ids

    # Identify the duplicated per-branch roots: path costs to the shared
    # root treat every branch root as cost 0.
    cost_to_root: "dict[int, float]" = {}

    def root_cost(vid: int) -> float:
        chain = []
        v = vid
        while v not in cost_to_root and parents[v] != v:
            chain.append(v)
            v = parents[v]
        base = cost_to_root.get(v, 0.0)
        for u in reversed(chain):
            base += tree.neighbors(u)[parents[u]]
            cost_to_root[u] = base
        if parents[vid] == vid:
            cost_to_root[vid] = 0.0
        return cost_to_root.get(vid, base)

    # Branch connection phase: for each adjacency, try linking branch a's
    # nodes to branch b's; a valid link rewires (prunes) when it shortens
    # b-node's path to the root, otherwise counts as a pruned cycle.
    lp = planner.local_planner
    adjacency_work: "list[BranchAdjacencyWork]" = []
    for a, b in sorted(radial.graph.edges()):
        ids_a, ids_b = branch_nodes[a], branch_nodes[b]
        st = PlannerStats()
        edges_added = 0
        cycles = 0
        reads = 0
        if ids_a.size and ids_b.size:
            nn = planner.nn_factory(cspace.dim)
            nn.add_batch(ids_b, tree.configs_of(int(i) for i in ids_b))
            reads += int(ids_b.size)
            # Use the outermost nodes of a (deepest in the branch) as
            # connection sources: they are the ones near region borders.
            sources = ids_a[-min(connect_sources, ids_a.size):]
            for u in sources:
                u = int(u)
                st.nn_queries += 1
                for v, _d in nn.knn(tree.config(u), k_inter, exclude=u):
                    res = lp(cspace, tree.config(u), tree.config(v))
                    st.lp_calls += 1
                    st.lp_checks += res.checks
                    reads += 1
                    if not res.valid:
                        continue
                    st.lp_successes += 1
                    if tree.has_edge(u, v):
                        continue
                    new_cost = root_cost(u) + res.length
                    if new_cost < root_cost(v) and parents[v] != v:
                        # Rewire: prune the old parent edge, adopt the new.
                        tree.remove_edge(v, parents[v])
                        tree.add_edge(u, v, res.length)
                        parents[v] = u
                        cost_to_root[v] = new_cost
                        edges_added += 1
                        cycles += 1
                    else:
                        cycles += 1
            st.nn_distance_evals += nn.stats.distance_evals
        cost = work_model.time_of(st)
        adjacency_work.append(BranchAdjacencyWork(a, b, cost, reads, edges_added, cycles))

    return RRTWorkload(
        cspace=cspace,
        radial=radial,
        branch_work=branch_work,
        adjacency_work=adjacency_work,
        tree=tree,
        parents=parents,
        root_config=root,
        work_model=work_model,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Machine simulation
# ---------------------------------------------------------------------------

def simulate_rrt(
    workload: RRTWorkload,
    num_pes: int,
    strategy: str = "none",
    topology: ClusterTopology | None = None,
    k_rays: int = 8,
    steal_chunk: "str | int" = "half",
    rng_seed: int = 54321,
    tracer: "Tracer | None" = None,
    initial_partitioner: "str | None" = None,
    fault_injector: "FaultInjector | None" = None,
    max_retries: int = 2,
) -> RRTRunResult:
    """Replay the RRT workload on a virtual machine.

    ``strategy``: ``"none"``, ``"rand-8"``, ``"diffusive"``, ``"hybrid"``,
    or ``"repartition"`` (k-rays weights; expect it to disappoint, per the
    paper).

    ``tracer`` and ``initial_partitioner`` behave as in
    :func:`repro.core.parallel_prm.simulate_prm`.
    """
    topology = topology if topology is not None else ClusterTopology(num_pes)
    if topology.num_pes != num_pes:
        raise ValueError("topology PE count mismatch")
    tr = active(tracer)
    phases = RRTPhaseTimes()
    graph = workload.radial.graph
    region_ids = graph.region_ids()
    naive = initial_assignment(graph, num_pes, initial_partitioner)

    # Per-PE sums go through ``np.bincount``, which accumulates in
    # appearance order like the ``loads[owner] += x`` loop it stands for.
    work = [workload.branch_work[rid] for rid in region_ids]
    naive_of = np.array([naive[rid] for rid in region_ids], dtype=int)
    per_pe_regions = np.bincount(naive_of, minlength=num_pes)
    phases.region_construction = float(per_pe_regions.max()) * REGION_CREATE_COST

    repart_info: RepartitionResult | None = None
    grow_assignment = naive
    if strategy == "repartition":
        # Probe cost: each PE casts rays for its regions; makespan term is
        # the per-PE maximum.  This is the "weigh" phase — the part of RRT
        # load balancing the paper shows can be a net loss (Fig. 10b).
        weights, casts = rrt_k_rays_weights(
            workload.radial,
            workload.cspace.env,
            k_rays=k_rays,
            rng=np.random.default_rng(rng_seed),
        )
        cost_per_cast = workload.work_model.cost_lp_check * k_rays
        probe_loads = np.bincount(
            naive_of, weights=np.full(naive_of.size, cost_per_cast), minlength=num_pes
        )
        phases.weigh = float(probe_loads.max())
        t_lb = phases.region_construction + phases.weigh
        repart_info = repartition(
            graph,
            weights,
            naive,
            topology,
            tracer=tr.offset(t_lb) if tr is not None else None,
        )
        grow_assignment = repart_info.assignment
        phases.lb_overhead = repart_info.overhead

    t_construct = phases.region_construction + phases.weigh + phases.lb_overhead
    sim, phases.termination, final_owner = run_balanced_phase(
        topology,
        {w.rid: w.grow_cost for w in work},
        grow_assignment,
        strategy,
        steal_chunk,
        rng_seed,
        tracer=tr.offset(t_construct) if tr is not None else None,
        fault_injector=fault_injector,
        max_retries=max_retries,
    )
    phases.branch_growth = sim.makespan

    # Branch vertex reads ship as one aggregated message per adjacency.
    branch_view = PGraphView("branch tree", topology)
    branch_view.set_owners(final_owner)
    adjacency = workload.adjacency_work
    owner_a = np.array([final_owner[adj.a] for adj in adjacency], dtype=int)
    reads = [adj.vertex_reads for adj in adjacency]
    latency = branch_view.access_many(
        owner_a, [adj.b for adj in adjacency], reads, aggregated=True
    )
    remote_reads = branch_view.stats.remote
    conn_loads = np.bincount(
        owner_a, weights=np.array([adj.cost for adj in adjacency]) + latency, minlength=num_pes
    )
    phases.branch_connection = float(conn_loads.max())

    final_of = [final_owner[rid] for rid in region_ids]
    nodes_per_pe = np.bincount(final_of, weights=[w.num_nodes for w in work], minlength=num_pes)

    if tr is not None:
        emit_phase_spans(tr, phases)
        t_connect = t_construct + phases.branch_growth + phases.termination
        tr.point(EV_REMOTE_ACCESS, ts=t_connect, count=remote_reads)
        tr.metrics.counter("remote_accesses").inc(remote_reads)
        tr.metrics.counter("regions").inc(len(region_ids))

    return RRTRunResult(
        strategy=strategy,
        num_pes=num_pes,
        phases=phases,
        growth_loads=sim.work_times(),
        nodes_per_pe=nodes_per_pe,
        growth_sim=sim,
        repartition_info=repart_info,
    )
