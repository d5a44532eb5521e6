"""Uniform-subdivision parallel PRM with load balancing (Algorithms 1, 3, 4).

The computation has four phases, mirroring the paper's breakdown (Fig. 7a):

1. **Region construction** — subdivide C-space, build the region graph.
2. **Node generation** — sample valid configurations per region (cheap).
3. **Node connection** — connect samples within each region via k-NN +
   local planning.  This is ~90% of the total time and the target of load
   balancing: *repartitioning* moves regions before the phase using
   sample-count weights; *work stealing* migrates regions during it.
4. **Region connection** — connect roadmaps of adjacent regions; pays
   remote accesses when adjacent regions live on different PEs.

The expensive part — actually running the sequential planner in every
region — is done once (:func:`build_prm_workload`) against the real
geometry; the per-strategy machine behaviour is then replayed through the
virtual-time simulator (:func:`simulate_prm`), so a whole strong-scaling
sweep reuses one workload.  Regional randomness is keyed on
``(seed, region id)``, making workloads reproducible and strategy
comparisons exact.

**Regions are segments.**  The paper over-decomposes (250,000 regions)
precisely because regions are independent subproblems, and independent
subproblems can be laid side by side in one array.  The unit the build
executes is therefore a *block* of consecutive regions (then a block of
adjacencies), sized by the ``_BLOCK_POINTS`` budget: regional sampling,
in-region growing k-NN, local planning, roadmap assembly and region
connection each run as one segmented NumPy pass per block instead of once
per region, entered through the same methods a single region uses
(``UniformSampler.__call__``, ``PRM.build``, ``BruteForceNN.
knn_block_growing`` / ``knn_batch_arrays``, ``PRM.connect_roadmaps``,
whose one-region call is the one-segment case).  It is exact, not
approximately equal, because :class:`PRMRegionPlanner` always plans with
``connect_same_component=False``: no connection decision depends on an
earlier outcome, every verdict is a function of geometry alone, every
distance, interpolation and box test is elementwise, and each region keeps
its own ``region_rng(seed, rid)`` stream — so batch composition cannot
change a bit of the roadmap, the ledgers or the collision counters.  The
block passes replay exactly the defaults (``PRM.runs_blocks``: uniform
sampler, brute-force neighbours, a local planner with per-segment check
counts); any other sampler or ``nn_factory`` takes the one-region,
one-adjacency loop, which thereby stays the oracle
(``tests/test_parallel_prm.py`` compares the two field for field).
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
    PHASE_GENERATE,
    PHASE_REPARTITION,
    PHASE_SUBDIVIDE,
    PHASE_TERMINATE,
    PHASE_WEIGH,
)
from ..obs.tracer import active
from ..planners.prm import PRM, PRMBlock, PRMResult
from ..planners.roadmap import Roadmap
from ..planners.stats import PlannerStats, WorkModel
from ..runtime.faults import FaultInjector
from ..runtime.pgraph import PGraphView
from ..runtime.stats import SimResult
from ..runtime.topology import ClusterTopology
from ..subdivision.uniform import UniformSubdivision
from .metrics import emit_phase_spans
from .repartition import RepartitionResult, initial_assignment, repartition
from .weights import prm_sample_count_weights
from .work_stealing import run_balanced_phase

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "RegionWork",
    "AdjacencyWork",
    "PRMWorkload",
    "PhaseTimes",
    "PRMRunResult",
    "PRMRegionPlanner",
    "build_prm_workload",
    "simulate_prm",
]

#: Vertex-id stride: region ``r`` owns ids ``[r << ID_SHIFT, (r+1) << ID_SHIFT)``.
ID_SHIFT = 20

#: Local-plan points one block is expected to hand a single validity call;
#: blocks hold ``_BLOCK_POINTS / (samples x k x steps per pair)`` regions.
#: Measured on two scenes, not tuned per scene (CHANGES.md, PR 21): build
#: time is flat from half to four times this value on med-cube (1 box) and
#: from half of it upward on mixed-30 (125 boxes), and this is the largest
#: value at which a build's peak memory stays at the per-region loop's.
_BLOCK_POINTS = 1 << 16


@dataclass
class RegionWork:
    """Measured work of one region's sequential PRM invocation."""

    rid: int
    gen_cost: float
    connect_cost: float
    num_samples: int
    stats: PlannerStats


@dataclass
class AdjacencyWork:
    """Measured work of connecting one pair of adjacent regional roadmaps."""

    a: int
    b: int
    cost: float
    #: roadmap vertices of region ``b`` read while connecting (remote reads
    #: when ``b`` lives on another PE).
    vertex_reads: int
    edges_added: int


@dataclass
class PRMWorkload:
    """Everything :func:`simulate_prm` needs, computed once per problem."""

    cspace: ConfigurationSpace
    subdivision: UniformSubdivision
    region_work: "dict[int, RegionWork]"
    adjacency_work: "list[AdjacencyWork]"
    roadmap: Roadmap
    #: positional coordinates of every generated sample.
    sample_positions: np.ndarray
    work_model: WorkModel
    seed: int

    @property
    def num_regions(self) -> int:
        return self.subdivision.num_regions

    def total_connect_work(self) -> float:
        return sum(w.connect_cost for w in self.region_work.values())

    def sample_count_weights(self) -> "dict[int, float]":
        return prm_sample_count_weights(self.subdivision, self.sample_positions)


@dataclass
class PhaseTimes:
    """Virtual seconds per phase (the Fig. 7a breakdown).

    Implements the :class:`repro.core.metrics.PhaseBreakdown` protocol:
    :meth:`phase_items` exposes the same numbers under the canonical
    cross-planner phase names used by trace spans.
    """

    region_construction: float = 0.0
    node_generation: float = 0.0
    node_connection: float = 0.0
    region_connection: float = 0.0
    #: weight-probe time; 0 for PRM (sample counts fall out of generation).
    weigh: float = 0.0
    lb_overhead: float = 0.0
    termination: float = 0.0

    @property
    def other(self) -> float:
        return (
            self.region_construction
            + self.node_generation
            + self.weigh
            + self.lb_overhead
            + self.termination
        )

    @property
    def total(self) -> float:
        return self.other + self.node_connection + self.region_connection

    def phase_items(self) -> "list[tuple[str, float]]":
        """Canonical (name, duration) pairs in timeline order."""
        return [
            (PHASE_SUBDIVIDE, self.region_construction),
            (PHASE_GENERATE, self.node_generation),
            (PHASE_WEIGH, self.weigh),
            (PHASE_REPARTITION, self.lb_overhead),
            (PHASE_CONSTRUCT, self.node_connection),
            (PHASE_TERMINATE, self.termination),
            (PHASE_CONNECT, self.region_connection),
        ]


@dataclass
class PRMRunResult:
    """One (strategy, machine size) execution of parallel PRM."""

    strategy: str
    num_pes: int
    phases: PhaseTimes
    #: per-PE virtual work in the node-connection phase.
    connection_loads: np.ndarray
    #: roadmap nodes per PE under the ownership used for connection.
    nodes_per_pe: np.ndarray
    #: nodes per PE under the *initial* (pre-LB) ownership.
    nodes_per_pe_before: np.ndarray
    #: region-connection remote access tallies.
    region_graph_remote: int
    roadmap_graph_remote: int
    #: simulator output of the node-connection phase (steal stats etc.).
    connection_sim: SimResult
    repartition_info: "RepartitionResult | None" = None

    @property
    def total_time(self) -> float:
        return self.phases.total

    # -- PlannerRunResult protocol (uniform across PRM / RRT) --------------
    @property
    def sim(self) -> SimResult:
        """Simulator output of the load-balanced phase (node connection)."""
        return self.connection_sim

    @property
    def loads(self) -> np.ndarray:
        """Per-PE virtual work in the load-balanced phase."""
        return self.connection_loads


# ---------------------------------------------------------------------------
# Workload construction (real planning, done once)
# ---------------------------------------------------------------------------

def region_rng(seed: int, rid: int) -> np.random.Generator:
    """The ``(seed, region id)``-keyed generator of one regional invocation."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(rid,)))


class PRMRegionPlanner:
    """Alg. 1 line 8 as one picklable callable: ``rid -> PRMResult``.

    The single regional entry point: :func:`build_prm_workload` and the
    workers of ``plan(mode="local")`` (shm workers rebuild an equal one)
    run regions a block at a time through :meth:`plan_block`, a lone
    region through the call, so every execution mode runs the same
    regions.  It owns the uniform decomposition over the positional
    bounds, the ``(seed, rid)`` RNG keying, the ``rid << ID_SHIFT`` id
    block, the region-box lift and the narrow-passage boost; the keyword
    parameters are :func:`build_prm_workload`'s, defaults included.
    """

    def __init__(
        self, cspace: ConfigurationSpace, num_regions: int, samples_per_region: int,
        seed: int = 0, k: int = 4, overlap: float = 0.2, lp_resolution: float = 0.1,
        sampler=None, narrow_passage_boost: float = 3.0, nn_factory=None,
    ):
        if narrow_passage_boost < 0:
            raise ValueError("narrow_passage_boost must be non-negative")
        self.cspace = cspace
        self.samples_per_region = samples_per_region
        self.seed = seed
        self.pos_dims = list(cspace.positional_dims)
        self.decomposition = UniformSubdivision(
            AABB(cspace.bounds.lo[self.pos_dims], cspace.bounds.hi[self.pos_dims]),
            num_regions, overlap=overlap,
        )
        self.planner = PRM(
            cspace, sampler=sampler, local_planner=StraightLinePlanner(resolution=lp_resolution),
            k=k, connect_same_component=False, nn_factory=nn_factory,
        )
        self.boost_samples = int(round(narrow_passage_boost * samples_per_region))

    @property
    def region_ids(self) -> "list[int]":
        return self.decomposition.graph.region_ids()

    @property
    def cell(self) -> np.ndarray:
        """Extents of one grid cell of the decomposition."""
        grid = self.decomposition
        return grid.bounds.extents / np.asarray(grid.shape, dtype=float)

    @property
    def pair_points(self) -> float:
        """Local-plan points one candidate pair is expected to need."""
        return float(np.linalg.norm(self.cell)) / self.planner.local_planner.resolution

    def _sample_box(self, region) -> AABB:
        """The positional sample box lifted to full C-space bounds
        (non-positional dimensions keep their full range)."""
        lo, hi = self.cspace.bounds.lo.copy(), self.cspace.bounds.hi.copy()
        lo[self.pos_dims], hi[self.pos_dims] = region.sample_bounds.lo, region.sample_bounds.hi
        return AABB(lo, hi)

    def _boosted(self, region) -> bool:
        return bool(
            self.boost_samples
            and self.cspace.env.box_obstacle_relation(region.bounds) == "boundary"
        )

    def __call__(self, rid: int) -> PRMResult:
        region = self.decomposition.region_of(rid)
        rng = region_rng(self.seed, rid)
        within, id_base = self._sample_box(region), rid << ID_SHIFT
        # Each regional roadmap is built independently (the whole point of
        # uniform subdivision) and merged afterwards.
        result = self.planner.build(self.samples_per_region, rng, within=within, id_base=id_base)
        if self._boosted(region):
            refined = self.planner.build(
                self.boost_samples, rng, within=within, roadmap=result.roadmap, id_base=id_base
            )
            result = PRMResult(refined.roadmap, result.stats.merge(refined.stats))
        return result

    def plan_block(self, rids: "list[int]") -> PRMBlock:
        """The regions ``rids`` as one :class:`PRMBlock` (segment ``i`` is
        region ``rids[i]``): what :meth:`__call__` builds for each of them,
        vertex for vertex and count for count, with the regions laid side
        by side so each pass runs once per block.  The boost pass continues
        the same per-region generators; an unboosted region asks it for
        zero samples, which draws nothing.  Needs ``planner.runs_blocks``.
        """
        regions = [self.decomposition.region_of(rid) for rid in rids]
        rngs = [region_rng(self.seed, rid) for rid in rids]
        within = [self._sample_box(region) for region in regions]
        id_base = [rid << ID_SHIFT for rid in rids]
        block = self.planner.build(self.samples_per_region, rngs, within=within, id_base=id_base)
        boost = [self.boost_samples if self._boosted(region) else 0 for region in regions]
        if any(boost):
            first = block.stats
            block = self.planner.build(boost, rngs, within=within, roadmap=block, id_base=id_base)
            block.stats = [a.merge(b) for a, b in zip(first, block.stats)]
        return block

    def blocks(self, rids: "list[int]") -> "list[list[int]]":
        """``rids`` cut into the consecutive runs :meth:`plan_block` takes
        one at a time under the ``_BLOCK_POINTS`` budget."""
        step = _block_size(self.samples_per_region * self.planner.k * self.pair_points)
        return [rids[lo : lo + step] for lo in range(0, len(rids), step)]


def _block_size(points_per_item: float) -> int:
    """Regions (or adjacencies) per block under the ``_BLOCK_POINTS`` budget."""
    return max(1, int(_BLOCK_POINTS / max(points_per_item, 1.0)))


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Segment boundaries ``[0, c0, c0 + c1, ...]`` of ragged runs."""
    return np.concatenate(([0], np.cumsum(counts)))


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for every run of ``counts``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)


@dataclass
class _RegionRows:
    """Where each region's vertices sit in the merged roadmap: rows are
    region-major, region ``rids[i]`` owns ``[start[i], start[i] + count[i])``."""

    rids: "list[int]"
    ids: np.ndarray
    positions: np.ndarray
    start: np.ndarray
    count: np.ndarray


def _boundary_sets(
    rows: _RegionRows, own: np.ndarray, other: np.ndarray,
    box_lo: np.ndarray, box_hi: np.ndarray, reach: float, cap: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """For every adjacency ``i``: the vertices of region ``own[i]`` within
    ``reach`` of region ``other[i]``'s box, capped at the nearest ``cap``.

    Returns their ids flat, plus per-adjacency counts.  A set under the
    cap keeps slot order, a capped one (distance, slot) order — the
    one-adjacency code's stable argsort — via one ``lexsort`` whose
    distance key is zeroed for uncapped sets.  The box distance is
    :meth:`AABB.distance`'s expression with one box per row.
    """
    n = rows.count[own]
    seg = np.repeat(np.arange(own.size), n)
    row = _ranks(n) + rows.start[own][seg]
    pts = rows.positions[row]
    delta = np.maximum(np.maximum(box_lo[other][seg] - pts, pts - box_hi[other][seg]), 0.0)
    dist = np.linalg.norm(delta, axis=1)
    near = dist <= reach
    seg, row, dist = seg[near], row[near], dist[near]
    found = np.bincount(seg, minlength=own.size)
    order = np.lexsort((np.where((found > cap)[seg], dist, 0.0), seg))
    return rows.ids[row[order[_ranks(found) < cap]]], np.minimum(found, cap)


def _connect_in_blocks(
    regions: PRMRegionPlanner, roadmap: Roadmap, rows: _RegionRows,
    adjacencies: "list[tuple[int, int]]", k_inter: int, reach: float, cap: int, step: int,
) -> "list[tuple[PlannerStats | None, int]]":
    """Region connection, ``step`` adjacencies per pass: per adjacency its
    ledger (``None`` when a boundary set is empty) and ``b``-side set size."""
    boxes = [regions.decomposition.region_of(rid).bounds for rid in rows.rids]
    box_lo, box_hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
    # ``rows.rids`` is sorted, so a region's row index is its rank.
    index = np.searchsorted(rows.rids, np.asarray(adjacencies, dtype=np.int64).reshape(-1, 2))
    out: "list[tuple[PlannerStats | None, int]]" = []
    for lo in range(0, len(adjacencies), step):
        a, b = index[lo : lo + step].T
        near_b, nb = _boundary_sets(rows, a, b, box_lo, box_hi, reach, cap)
        near_a, na = _boundary_sets(rows, b, a, box_lo, box_hi, reach, cap)
        live = (nb > 0) & (na > 0)
        near_b, near_a = near_b[np.repeat(live, nb)], near_a[np.repeat(live, na)]
        nb, na = nb * live, na * live
        ledgers = regions.planner.connect_roadmaps(
            roadmap, near_b, near_a, k=k_inter, segments=(_offsets(nb), _offsets(na))
        )
        out.extend(
            (st if alive else None, reads)
            for st, alive, reads in zip(ledgers, live.tolist(), na.tolist())
        )
    return out


def _connect_one_by_one(
    regions: PRMRegionPlanner, roadmap: Roadmap, rows: _RegionRows,
    adjacencies: "list[tuple[int, int]]", k_inter: int, reach: float, cap: int,
) -> "list[tuple[PlannerStats | None, int]]":
    """Region connection one adjacency at a time — the oracle
    :func:`_connect_in_blocks` replays."""
    index_of = {rid: i for i, rid in enumerate(rows.rids)}
    out: "list[tuple[PlannerStats | None, int]]" = []
    for a, b in adjacencies:
        near = []
        for own, other in ((a, b), (b, a)):
            i = index_of[own]
            mine = slice(rows.start[i], rows.start[i] + rows.count[i])
            dist = regions.decomposition.region_of(other).bounds.distance(rows.positions[mine])
            ids = rows.ids[mine][dist <= reach]
            if ids.size > cap:
                ids = ids[np.argsort(dist[dist <= reach], kind="stable")[:cap]]
            near.append(ids)
        near_b, near_a = near
        if near_b.size == 0 or near_a.size == 0:
            out.append((None, 0))
            continue
        st = regions.planner.connect_roadmaps(roadmap, near_b, near_a, k=k_inter)
        out.append((st, int(near_a.size)))
    return out


def build_prm_workload(
    cspace: ConfigurationSpace,
    num_regions: int,
    samples_per_region: int = 8,
    k: int = 4,
    k_inter: int = 2,
    overlap: float = 0.2,
    seed: int = 0,
    work_model: WorkModel | None = None,
    lp_resolution: float = 0.1,
    sampler=None,
    narrow_passage_boost: float = 3.0,
    nn_factory=None,
) -> PRMWorkload:
    """Run the real regional planners once and record their work.

    ``samples_per_region`` is the per-region sample budget (the paper's
    strong-scaling experiments fix total samples ``N`` and regions ``Nr``,
    so ``N / Nr`` is this number).

    ``narrow_passage_boost`` controls adaptive refinement: a region that
    straddles an obstacle surface (a potential narrow passage) receives
    ``boost * samples_per_region`` *additional* samples.  This is the
    standard adaptive narrow-passage strategy and reproduces the paper's
    workload heterogeneity — its narrow-passage environments concentrate
    sampling and connection work in the boundary regions, which is
    precisely the load imbalance the paper's techniques attack.  Set it
    to 0 for uniform effort.

    ``nn_factory`` (``dim -> NeighborFinder``, default brute force) is the
    nearest-neighbour backend for regional construction and inter-region
    connection; every finder shares the canonical (distance, insertion
    order) tie-break, so the workload is backend-independent.

    Regions are independent subproblems, so with the defaults (uniform
    sampler, brute-force neighbours: ``PRM.runs_blocks``) the build
    executes *blocks* of regions and of adjacencies as array passes — see
    the module docstring.  Any other sampler or ``nn_factory`` runs one
    region and one adjacency at a time; that loop is the oracle the block
    passes replay, and both produce the same workload bit for bit.
    """
    work_model = work_model if work_model is not None else WorkModel()
    regions = PRMRegionPlanner(
        cspace, num_regions, samples_per_region, seed=seed, k=k, overlap=overlap,
        lp_resolution=lp_resolution, sampler=sampler,
        narrow_passage_boost=narrow_passage_boost, nn_factory=nn_factory,
    )
    subdivision, rids = regions.decomposition, regions.region_ids

    roadmap = Roadmap(cspace.dim)
    region_stats: "dict[int, PlannerStats]" = {}
    if regions.planner.runs_blocks:
        for block_rids in regions.blocks(rids):
            block = regions.plan_block(block_rids)
            region_stats.update(zip(block_rids, block.stats))
            roadmap.merge(block)
    else:
        for rid in rids:
            # Each regional roadmap is built independently (the whole point
            # of uniform subdivision) and merged afterwards.
            result = regions(rid)
            region_stats[rid] = result.stats
            roadmap.merge(result.roadmap)

    def connect_cost(st: PlannerStats) -> float:
        return (
            work_model.cost_lp_check * st.lp_checks
            + work_model.cost_nn_eval * st.nn_distance_evals
            + work_model.cost_fixed_per_call * st.lp_calls
        )

    region_work = {
        rid: RegionWork(
            rid, work_model.cost_sample_attempt * st.sample_attempts, connect_cost(st),
            st.samples_accepted, st,
        )
        for rid, st in region_stats.items()
    }
    ids, cfgs = roadmap.configs_array()
    count = np.array([region_stats[rid].samples_accepted for rid in rids], dtype=np.int64)
    rows = _RegionRows(rids, ids, cfgs[:, regions.pos_dims], np.cumsum(count) - count, count)

    # Inter-region connections only involve vertices near the shared
    # boundary (that is what the sampling overlap exists for); attempting
    # all pairs would let region connection dwarf node connection,
    # inverting the paper's Fig. 7a profile.
    boundary_reach = 0.5 * float(regions.cell.max())
    # Cap boundary sets at the nearest few vertices so inter-region
    # connection stays the minor phase it is in the paper (Fig. 7a).
    max_boundary_vertices = 2 * samples_per_region
    adjacencies = sorted(subdivision.graph.edges())
    if regions.planner.runs_blocks:
        links = _connect_in_blocks(
            regions, roadmap, rows, adjacencies, k_inter, boundary_reach,
            max_boundary_vertices,
            _block_size(max_boundary_vertices * k_inter * regions.pair_points),
        )
    else:
        links = _connect_one_by_one(
            regions, roadmap, rows, adjacencies, k_inter, boundary_reach, max_boundary_vertices
        )
    # Each NN structure build + LP endpoint read touches b's vertices.
    adjacency_work = [
        AdjacencyWork(a, b, 0.0, 0, 0) if st is None
        else AdjacencyWork(a, b, connect_cost(st), reads_b + st.lp_calls, st.edges_added)
        for (a, b), (st, reads_b) in zip(adjacencies, links)
    ]

    return PRMWorkload(
        cspace=cspace,
        subdivision=subdivision,
        region_work=region_work,
        adjacency_work=adjacency_work,
        roadmap=roadmap,
        sample_positions=rows.positions,
        work_model=work_model,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Machine simulation (replayed per strategy / PE count)
# ---------------------------------------------------------------------------

#: Virtual cost of creating one region descriptor (phase 1 is trivially
#: parallel and tiny; this keeps it visible but small, as in Fig. 7a).
REGION_CREATE_COST = 0.05


def simulate_prm(
    workload: PRMWorkload,
    num_pes: int,
    strategy: str = "none",
    topology: ClusterTopology | None = None,
    steal_chunk: "str | int" = "half",
    rng_seed: int = 12345,
    tracer: "Tracer | None" = None,
    initial_partitioner: "str | None" = None,
    fault_injector: "FaultInjector | None" = None,
    max_retries: int = 2,
) -> PRMRunResult:
    """Replay the workload on a virtual machine of ``num_pes`` PEs.

    ``strategy`` is one of ``"none"``, ``"repartition"``, ``"rand-8"``
    (or ``"rand-k"``), ``"diffusive"``, ``"hybrid"``.

    ``tracer`` (optional) records the run: one span per phase on the
    run's virtual timeline, the full steal protocol inside the
    ``construct`` span, and the repartition decision.

    ``initial_partitioner`` overrides the paper's naive block mapping for
    the *initial* distribution: ``"block"`` (default), ``"greedy"``
    (unweighted LPT) or ``"rcb"`` (recursive coordinate bisection).

    ``fault_injector`` (optional) injects deterministic failures into the
    connection phase — see :class:`repro.runtime.faults.FaultInjector`;
    abandoned regions keep their pre-phase owner for the downstream
    connection accounting.
    """
    topology = topology if topology is not None else ClusterTopology(num_pes)
    if topology.num_pes != num_pes:
        raise ValueError("topology PE count mismatch")
    tr = active(tracer)
    phases = PhaseTimes()
    naive = initial_assignment(workload.subdivision.graph, num_pes, initial_partitioner)
    region_ids = workload.subdivision.graph.region_ids()
    work = [workload.region_work[rid] for rid in region_ids]
    naive_of = np.array([naive[rid] for rid in region_ids], dtype=int)

    # Per-PE sums below go through ``np.bincount``: it accumulates in
    # appearance order, exactly like a ``loads[owner] += x`` loop, so every
    # phase time keeps its bits.
    # Phase 1: region construction (embarrassingly parallel, tiny).
    per_pe_regions = np.bincount(naive_of, minlength=num_pes)
    phases.region_construction = float(per_pe_regions.max()) * REGION_CREATE_COST

    # Phase 2: node generation under the naive distribution.
    gen_loads = np.bincount(naive_of, weights=[w.gen_cost for w in work], minlength=num_pes)
    phases.node_generation = float(gen_loads.max())

    # Load balancing decision.  The repartition decision event lands at
    # the start of the repartition phase on the run's virtual timeline.
    t_lb = phases.region_construction + phases.node_generation + phases.weigh
    repart_info: RepartitionResult | None = None
    connect_assignment = naive
    if strategy == "repartition":
        weights = workload.sample_count_weights()
        repart_info = repartition(
            workload.subdivision.graph,
            weights,
            naive,
            topology,
            tracer=tr.offset(t_lb) if tr is not None else None,
        )
        connect_assignment = repart_info.assignment
        phases.lb_overhead = repart_info.overhead

    # Phase 3: node connection (the load-balanced phase).  The simulator
    # runs on a phase-local clock; offsetting its tracer embeds the task
    # and steal events inside the ``construct`` span.
    t_construct = t_lb + phases.lb_overhead
    sim, phases.termination, final_owner = run_balanced_phase(
        topology,
        {w.rid: w.connect_cost for w in work},
        connect_assignment,
        strategy,
        steal_chunk,
        rng_seed,
        tracer=tr.offset(t_construct) if tr is not None else None,
        fault_injector=fault_injector,
        max_retries=max_retries,
    )
    phases.node_connection = sim.makespan

    # Phase 4: region connection with remote-access accounting.
    region_view = PGraphView("region graph", topology)
    roadmap_view = PGraphView("roadmap graph", topology)
    region_view.set_owners(final_owner)
    roadmap_view.set_owners(final_owner)

    adjacency = workload.adjacency_work
    owner_a = np.array([final_owner[adj.a] for adj in adjacency], dtype=int)
    neighbours = [adj.b for adj in adjacency]
    # Region-graph adjacency metadata is replicated at construction time,
    # so its remote accesses are counted (Fig. 7b) but free; roadmap
    # vertex reads ship as one aggregated message per adjacency.
    region_view.access_many(owner_a, neighbours)
    latency = roadmap_view.access_many(
        owner_a, neighbours, [adj.vertex_reads for adj in adjacency], aggregated=True
    )
    conn_loads = np.bincount(
        owner_a, weights=np.array([adj.cost for adj in adjacency]) + latency, minlength=num_pes
    )
    phases.region_connection = float(conn_loads.max())

    # Node ownership histograms (Fig. 5b/5c).
    samples = [w.num_samples for w in work]
    nodes_before = np.bincount(naive_of, weights=samples, minlength=num_pes)
    nodes_after = np.bincount(
        [final_owner[rid] for rid in region_ids], weights=samples, minlength=num_pes
    )

    if tr is not None:
        emit_phase_spans(tr, phases)
        t_connect = t_construct + phases.node_connection + phases.termination
        remote = region_view.stats.remote + roadmap_view.stats.remote
        tr.point(EV_REMOTE_ACCESS, ts=t_connect, count=remote)
        tr.metrics.counter("remote_accesses").inc(remote)
        tr.metrics.counter("regions").inc(len(region_ids))

    return PRMRunResult(
        strategy=strategy,
        num_pes=num_pes,
        phases=phases,
        connection_loads=sim.work_times(),
        nodes_per_pe=nodes_after,
        nodes_per_pe_before=nodes_before,
        region_graph_remote=region_view.stats.remote,
        roadmap_graph_remote=roadmap_view.stats.remote,
        connection_sim=sim,
        repartition_info=repart_info,
    )
