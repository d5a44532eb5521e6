"""Uniform radial subdivision parallel RRT with load balancing (Alg. 2, 3).

Phases mirror the parallel PRM driver:

1. **Region construction** — sample ``Nr`` points on the hypersphere,
   build the conical region graph (Alg. 2 lines 1-9).
2. **Branch growth** — grow a biased, cone-constrained sequential RRT per
   region (line 11); each branch draws its samples from its own cone
   (:class:`RRTRegionPlanner`), and the branches of a block grow in
   lockstep rounds (:meth:`RRTRegionPlanner.plan_block`), each exactly
   what it grows alone.  This is the imbalanced phase: cones
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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..knn.brute import BruteForceNN
from ..obs.events import EV_REMOTE_ACCESS, PHASE_CONNECT
from ..planners.roadmap import Roadmap
from ..planners.rrt import RRT, RRTResult
from ..planners.stats import PlannerStats, WorkModel
from ..runtime.topology import ClusterTopology
from ..subdivision.radial import RadialSubdivision
from .machine import RunResult, replay
from .parallel_prm import ID_SHIFT, region_rng
from .weights import rrt_k_rays_weights

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "BranchWork",
    "BranchAdjacencyWork",
    "RRTWorkload",
    "RRTRegionPlanner",
    "default_root",
    "build_rrt_workload",
    "simulate_rrt",
]


#: Rays each region casts in the k-rays probe, the paper's ``k = 8``.
K_RAYS = 8
#: Seed of the k-rays probe's and the steal policy's generators.
RNG_SEED = 54321

# Alg. 2's parameters.  A workload build uses these values; local mode's
# region planner overrides the five ``repro.api.LOCAL_RRT`` names.  The
# ball's radius is no parameter: it is the largest ball around the root
# that fits the bounds.
#: Regions each conical region is adjacent to.
K_ADJACENT = 3
#: Nearest nodes of branch ``b`` each connection source tries.
K_INTER = 1
#: Angular overlap of adjacent cones.
OVERLAP_ANGLE = 0.1
#: RRT extension step.
STEP_SIZE = 0.6
#: Fraction of draws that go to the cone's target.
GOAL_BIAS = 0.3
#: Iterations a branch may spend per node of its budget.
ITERATION_FACTOR = 40
#: Outermost nodes of branch ``a`` tried as connection sources.
CONNECT_SOURCES = 3
#: Step of the straight-line local planner.
LP_RESOLUTION = 0.5

#: Tree nodes one block's branches may hold together: every branch keeps
#: its tree and verdicts until the block's last branch stops, so this
#: bounds a block's memory.  8 branches of 400 nodes or 1,024 of 12 are
#: one block.
_BLOCK_NODES = 1 << 15


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
    _k_rays: "dict[int, float] | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_regions(self) -> int:
        return self.radial.num_regions

    @property
    def roadmap(self) -> Roadmap:
        """Uniform alias: the grown tree, named as the PRM workload names
        its merged roadmap (lets ``plan()`` report either planner)."""
        return self.tree

    def k_rays_weights(self) -> "dict[int, float]":
        """Per-region k-rays free-space weights (Sec. III-B), probed once
        per workload: with the ray count and seed fixed they depend on
        the workload alone.  A replay still charges the probe's virtual
        cost every time it repartitions."""
        if self._k_rays is None:
            self._k_rays, _casts = rrt_k_rays_weights(
                self.radial, self.cspace.env, k_rays=K_RAYS, rng=np.random.default_rng(RNG_SEED)
            )
        return self._k_rays


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


class RRTRegionPlanner:
    """Alg. 2 line 11 as one picklable callable: ``rid -> RRTResult``.

    The RRT twin of :class:`repro.core.parallel_prm.PRMRegionPlanner` and
    likewise the single regional entry point of every execution mode.  It
    owns root -> radius -> radial decomposition, the ``(seed, rid)`` RNG
    keying, the ``rid << ID_SHIFT`` id block and what "grow the branch
    biased toward its region" means: ``q_rand`` is drawn *from the cone*
    (uniform over cone ∩ ball), ``goal_bias`` of the draws go to the
    cone's target, and every valid extension still passes the cone's
    membership test — which convex cones now almost never fail, but
    cones wider than pi/2 (``num_regions <= 3``) can.
    The region travels as arguments of each ``grow`` call: the one
    :class:`RRT` below is shared by every pool thread.  A block of
    regions is one ``grow`` call (:meth:`plan_block`), a lone region the
    block of one.  Its keyword
    parameters default to the module constants :func:`build_rrt_workload`
    plans with; only local mode's ``repro.api.LOCAL_RRT`` passes other
    values.
    """

    def __init__(
        self, cspace: ConfigurationSpace, root: np.ndarray, num_regions: int,
        nodes_per_region: int, seed: int = 0, k_adjacent: int = K_ADJACENT,
        overlap_angle: float = OVERLAP_ANGLE, step_size: float = STEP_SIZE,
        goal_bias: float = GOAL_BIAS, lp_resolution: float = LP_RESOLUTION,
    ):
        root = np.asarray(root, dtype=float)
        if not cspace.valid_single(root):
            raise ValueError("RRT root configuration is invalid")
        self.cspace = cspace
        self.root = root
        self.nodes_per_region = nodes_per_region
        self.seed = seed
        self.max_iterations = ITERATION_FACTOR * nodes_per_region
        lo, hi = cspace.bounds.lo, cspace.bounds.hi
        radius = float(min(np.min(root - lo), np.min(hi - root)))
        self.decomposition = RadialSubdivision(
            root, radius, num_regions, k=k_adjacent, overlap=overlap_angle,
            rng=np.random.default_rng(seed),
        )
        self.planner = RRT(
            cspace, step_size=step_size, goal_bias=goal_bias,
            local_planner=StraightLinePlanner(resolution=lp_resolution),
        )

    @property
    def region_ids(self) -> "list[int]":
        return self.decomposition.graph.region_ids()

    def __call__(self, rid: int) -> RRTResult:
        return self.plan_block([rid])[0]

    def plan_block(self, rids: "list[int]") -> "list[RRTResult]":
        """The branches of ``rids`` grown as one lockstep block
        (:meth:`RRT.grow` with one generator per branch): what
        :meth:`__call__` grows for each of them, node for node and count
        for count, with every round's validity work done in one call."""
        cones = [self.decomposition.region_of(rid) for rid in rids]
        return self.planner.grow(
            self.root,
            self.nodes_per_region,
            [region_rng(self.seed, rid) for rid in rids],
            bias_target=[cone.target for cone in cones],
            region_predicate=[cone.contains_many for cone in cones],
            max_iterations=self.max_iterations,
            id_base=[rid << ID_SHIFT for rid in rids],
            within=cones,
        )

    def blocks(self, rids: "list[int]") -> "list[list[int]]":
        """``rids`` cut into the consecutive runs :meth:`plan_block` takes
        one at a time, at most ``_BLOCK_NODES`` tree nodes per block."""
        step = max(1, _BLOCK_NODES // (1 + self.nodes_per_region))
        return [rids[lo : lo + step] for lo in range(0, len(rids), step)]


def build_rrt_workload(
    cspace: ConfigurationSpace,
    root: np.ndarray,
    num_regions: int,
    nodes_per_region: int = 12,
    seed: int = 0,
) -> RRTWorkload:
    """Grow every conical branch once against the real geometry, each
    drawing its samples from its own cone, a block of branches at a time
    (:meth:`RRTRegionPlanner.plan_block`).

    The ball is the largest sphere around the root's position that fits
    the workspace bounds; the other parameters of Alg. 2 are the module
    constants, and the work is costed by the one :class:`WorkModel`.
    """
    work_model = WorkModel()
    regions = RRTRegionPlanner(cspace, root, num_regions, nodes_per_region, seed=seed)
    radial, planner, root = regions.decomposition, regions.planner, regions.root

    parents: "dict[int, int]" = {}
    branch_work: "dict[int, BranchWork]" = {}
    branch_nodes: "dict[int, np.ndarray]" = {}
    branches: "list[Roadmap]" = []
    for block_rids in regions.blocks(regions.region_ids):
        for rid, result in zip(block_rids, regions.plan_block(block_rids)):
            st = result.stats
            cost = work_model.time_of(st)
            branch_work[rid] = BranchWork(rid, cost, result.tree.num_vertices, st)
            branches.append(result.tree)
            parents.update(result.parents)
            ids, _cfgs = result.tree.configs_array()
            branch_nodes[rid] = ids
    tree = Roadmap(cspace.dim)
    tree.merge(*branches)

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
            base += tree.weight(u, parents[u])
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
            nn = BruteForceNN(cspace.dim)
            nn.add_batch(ids_b, tree.configs_of(int(i) for i in ids_b))
            reads += int(ids_b.size)
            # Use the outermost nodes of a (deepest in the branch) as
            # connection sources: they are the ones near region borders.
            sources = ids_a[-min(CONNECT_SOURCES, ids_a.size):]
            for u in sources:
                u = int(u)
                st.nn_queries += 1
                for v, _d in nn.knn(tree.config(u), K_INTER, exclude=u):
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
    steal_chunk: "str | int" = "half",
    tracer: "Tracer | None" = None,
) -> RunResult:
    """Replay the RRT workload on a virtual machine
    (:func:`repro.core.machine.replay`): branch growth is the
    load-balanced phase, and there is no generate phase.

    ``"repartition"`` weighs regions with the k-rays probe and pays for it
    in the ``weigh`` phase; expect it to disappoint, per the paper
    (Fig. 10b).  The other arguments are :func:`simulate_prm`'s.
    """
    graph = workload.radial.graph
    work = [workload.branch_work[rid] for rid in graph.region_ids()]
    run = replay(
        graph,
        [w.grow_cost for w in work],
        [w.num_nodes for w in work],
        workload.adjacency_work,
        num_pes,
        strategy,
        RNG_SEED,
        weights=workload.k_rays_weights() if strategy == "repartition" else None,
        # Each region casts ``K_RAYS`` rays.
        probe_cost=workload.work_model.cost_lp_check * K_RAYS,
        topology=topology,
        steal_chunk=steal_chunk,
        tracer=tracer,
    )
    if tracer is not None:
        tracer.point(EV_REMOTE_ACCESS, ts=run.phases.start(PHASE_CONNECT), count=run.remote_reads)
    return run
