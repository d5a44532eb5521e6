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
whose one-region call is the one-segment case).  A block reads its
regions' boxes from the decomposition's ``(Nr, d)`` arrays
(``UniformSubdivision.lo`` / ``hi`` / ``sample_lo`` / ``sample_hi``, built
in one pass) and classifies them for the narrow-passage boost in one
``Environment.boxes_on_boundary`` call, so the only per-region Python
calls left are ``region_rng`` and each sampler round's ``rng.random``.
It is exact, not
approximately equal, because the PRM attempts every k-NN candidate: no
connection decision depends on an earlier outcome, every verdict is a
function of geometry alone, every distance, interpolation and box test is
elementwise, and each region keeps its own ``region_rng(seed, rid)``
stream — so batch composition cannot change a bit of the roadmap, the
ledgers or the collision counters.  The
one-region, one-adjacency loop is the oracle the block passes replay
(``tests/oracle.py::region_loop`` swaps it in for
:func:`_plan_in_blocks` and :func:`_connect_in_blocks`;
``tests/test_parallel_prm.py`` compares the two field for field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cspace.local_planner import StraightLinePlanner
from ..cspace.space import ConfigurationSpace
from ..obs.events import EV_REMOTE_ACCESS, PHASE_CONNECT
from ..partition.edge_cut import edge_cut_of
from ..planners.prm import PRM, PRMBlock, PRMResult
from ..planners.roadmap import Roadmap
from ..planners.stats import PlannerStats, WorkModel
from ..runtime.topology import ClusterTopology
from ..subdivision.uniform import UniformSubdivision
from .machine import RunResult, replay
from .weights import prm_sample_count_weights

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = [
    "RegionWork",
    "AdjacencyWork",
    "PRMWorkload",
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

# Alg. 1's parameters.  A workload build uses these values; local mode's
# region planner overrides the three ``repro.api.LOCAL_PRM`` names.
#: Nearest neighbours each sample tries to connect to inside its region.
K = 4
#: Nearest neighbours each boundary vertex tries across a region adjacency.
K_INTER = 2
#: Sampling overlap of adjacent regions, as a fraction of a grid cell.
OVERLAP = 0.2
#: Step of the straight-line local planner.
LP_RESOLUTION = 0.1
#: Extra samples, in units of ``samples_per_region``, that a region
#: straddling an obstacle surface receives.
NARROW_PASSAGE_BOOST = 3.0


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


@dataclass(kw_only=True)
class PRMRunResult(RunResult):
    """A PRM replay plus the tallies only PRM reports (Fig. 5b, Fig. 7b)."""

    #: nodes per PE under the *initial* (pre-LB) ownership.
    nodes_per_pe_before: np.ndarray
    #: region-graph remote accesses of region connection (counted, free).
    region_graph_remote: int

    @property
    def roadmap_graph_remote(self) -> int:
        """Roadmap-graph remote accesses of region connection."""
        return self.remote_reads


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
    regions.  It owns the uniform decomposition of the C-space bounds,
    the ``(seed, rid)`` RNG keying, the ``rid << ID_SHIFT`` id block and
    the narrow-passage boost.  Its keyword parameters default to the
    module constants :func:`build_prm_workload` plans with; only local
    mode's ``repro.api.LOCAL_PRM`` passes other values.
    """

    def __init__(
        self, cspace: ConfigurationSpace, num_regions: int, samples_per_region: int,
        seed: int = 0, k: int = K, lp_resolution: float = LP_RESOLUTION,
        narrow_passage_boost: float = NARROW_PASSAGE_BOOST,
    ):
        if narrow_passage_boost < 0:
            raise ValueError("narrow_passage_boost must be non-negative")
        self.cspace = cspace
        self.samples_per_region = samples_per_region
        self.seed = seed
        self.decomposition = UniformSubdivision(cspace.bounds, num_regions, overlap=OVERLAP)
        self.planner = PRM(
            cspace, local_planner=StraightLinePlanner(resolution=lp_resolution), k=k
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

    def _boost(self, rids) -> np.ndarray:
        """Extra samples per region of ``rids``: ``boost_samples`` where the
        region's core box straddles an obstacle surface, else 0 — one
        classification of the block's boxes against every obstacle."""
        rows = np.asarray(rids, dtype=np.int64)
        if not self.boost_samples:
            return np.zeros(rows.size, dtype=np.int64)
        grid = self.decomposition
        return self.boost_samples * self.cspace.env.boxes_on_boundary(grid.lo[rows], grid.hi[rows])

    def __call__(self, rid: int) -> PRMResult:
        rng = region_rng(self.seed, rid)
        within, id_base = self.decomposition.region_of(rid).sample_bounds, rid << ID_SHIFT
        # Each regional roadmap is built independently (the whole point of
        # uniform subdivision) and merged afterwards.
        result = self.planner.build(self.samples_per_region, rng, within=within, id_base=id_base)
        boost = int(self._boost([rid])[0])
        if boost:
            refined = self.planner.build(
                boost, rng, within=within, roadmap=result.roadmap, id_base=id_base
            )
            result = PRMResult(refined.roadmap, result.stats.merge(refined.stats))
        return result

    def plan_block(self, rids: "list[int]") -> PRMBlock:
        """The regions ``rids`` as one :class:`PRMBlock` (segment ``i`` is
        region ``rids[i]``): what :meth:`__call__` builds for each of them,
        vertex for vertex and count for count, with the regions laid side
        by side so each pass runs once per block.  Boxes, ids and the boost
        test come from the decomposition's arrays, not per-region objects.
        The boost pass continues the same per-region generators; an
        unboosted region asks it for zero samples, which draws nothing.
        """
        grid, rows = self.decomposition, np.asarray(rids, dtype=np.int64)
        rngs = [region_rng(self.seed, rid) for rid in rids]
        within = np.stack((grid.sample_lo[rows], grid.sample_hi[rows]), axis=1)
        id_base = rows << ID_SHIFT
        block = self.planner.build(self.samples_per_region, rngs, within=within, id_base=id_base)
        boost = self._boost(rows)
        if boost.any():
            first = block.stats
            block = self.planner.build(boost, rngs, within=within, roadmap=block, id_base=id_base)
            block.stats = list(map(PlannerStats.total, zip(first, block.stats)))
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


def _plan_in_blocks(
    regions: PRMRegionPlanner, rids: "list[int]", roadmap: Roadmap
) -> "dict[int, PlannerStats]":
    """Every region of ``rids`` planned block by block, the blocks merged
    into ``roadmap`` in one union: per region its ledger."""
    region_stats: "dict[int, PlannerStats]" = {}
    blocks = []
    for block_rids in regions.blocks(rids):
        blocks.append(regions.plan_block(block_rids))
        region_stats.update(zip(block_rids, blocks[-1].stats))
    roadmap.merge(*blocks)
    return region_stats


def _connect_in_blocks(
    regions: PRMRegionPlanner, roadmap: Roadmap, rows: _RegionRows,
    adjacencies: "list[tuple[int, int]]", k_inter: int, reach: float, cap: int, step: int,
) -> "list[tuple[PlannerStats | None, int]]":
    """Region connection, ``step`` adjacencies per pass: per adjacency its
    ledger (``None`` when a boundary set is empty) and ``b``-side set size."""
    grid = regions.decomposition
    box_lo, box_hi = grid.lo[rows.rids], grid.hi[rows.rids]
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


def build_prm_workload(
    cspace: ConfigurationSpace,
    num_regions: int,
    samples_per_region: int = 8,
    seed: int = 0,
) -> PRMWorkload:
    """Run the real regional planners once and record their work.

    ``samples_per_region`` is the per-region sample budget (the paper's
    strong-scaling experiments fix total samples ``N`` and regions ``Nr``,
    so ``N / Nr`` is this number).  The other parameters of Alg. 1 are
    the module constants (``K``, ``K_INTER``, ``OVERLAP``,
    ``LP_RESOLUTION``) and the work is costed by the one
    :class:`WorkModel`.

    ``NARROW_PASSAGE_BOOST`` is adaptive refinement: a region that
    straddles an obstacle surface (a potential narrow passage) receives
    ``boost * samples_per_region`` *additional* samples.  This is the
    standard adaptive narrow-passage strategy and reproduces the paper's
    workload heterogeneity — its narrow-passage environments concentrate
    sampling and connection work in the boundary regions, which is
    precisely the load imbalance the paper's techniques attack.  A
    :class:`PRMRegionPlanner` built with ``narrow_passage_boost=0.0``
    (local mode's) plans with uniform effort.

    Regions are independent subproblems, so the build executes *blocks*
    of regions and of adjacencies as array passes — see the module
    docstring; the one-region, one-adjacency loop is their oracle, and
    both produce the same workload bit for bit.
    """
    work_model = WorkModel()
    regions = PRMRegionPlanner(cspace, num_regions, samples_per_region, seed=seed)
    subdivision, rids = regions.decomposition, regions.region_ids

    roadmap = Roadmap(cspace.dim)
    region_stats = _plan_in_blocks(regions, rids, roadmap)

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
    rows = _RegionRows(rids, ids, cfgs, np.cumsum(count) - count, count)

    # Inter-region connections only involve vertices near the shared
    # boundary (that is what the sampling overlap exists for); attempting
    # all pairs would let region connection dwarf node connection,
    # inverting the paper's Fig. 7a profile.
    boundary_reach = 0.5 * float(regions.cell.max())
    # Cap boundary sets at the nearest few vertices so inter-region
    # connection stays the minor phase it is in the paper (Fig. 7a).
    max_boundary_vertices = 2 * samples_per_region
    adjacencies = sorted(subdivision.graph.edges())
    links = _connect_in_blocks(
        regions, roadmap, rows, adjacencies, K_INTER, boundary_reach, max_boundary_vertices,
        _block_size(max_boundary_vertices * K_INTER * regions.pair_points),
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

#: Seed of the steal policy's generator.
RNG_SEED = 12345


def simulate_prm(
    workload: PRMWorkload,
    num_pes: int,
    strategy: str = "none",
    topology: ClusterTopology | None = None,
    steal_chunk: "str | int" = "half",
    tracer: "Tracer | None" = None,
) -> PRMRunResult:
    """Replay the workload on a virtual machine of ``num_pes`` PEs
    (:func:`repro.core.machine.replay`): node generation, then node
    connection as the load-balanced phase, repartitioned by sample counts.

    ``strategy`` is one of :data:`repro.core.machine.STRATEGIES`; the
    other arguments are :func:`~repro.core.machine.replay`'s.
    """
    graph = workload.subdivision.graph
    region_ids = graph.region_ids()
    work = [workload.region_work[rid] for rid in region_ids]
    samples = [w.num_samples for w in work]
    adjacency = workload.adjacency_work
    run = replay(
        graph,
        [w.connect_cost for w in work],
        samples,
        adjacency,
        num_pes,
        strategy,
        RNG_SEED,
        gen_costs=[w.gen_cost for w in work],
        weights=workload.sample_count_weights() if strategy == "repartition" else None,
        topology=topology,
        steal_chunk=steal_chunk,
        tracer=tracer,
    )
    # Region-graph adjacency metadata is replicated at construction time,
    # so its remote accesses are counted (Fig. 7b) but free: one per cut
    # adjacency (the ledger holds one entry per graph edge).
    region_remote = edge_cut_of(graph, run.final_owner)
    if tracer is not None:
        tracer.point(
            EV_REMOTE_ACCESS, ts=run.phases.start(PHASE_CONNECT),
            count=region_remote + run.remote_reads,
        )
    initial_of = [run.initial_owner[rid] for rid in region_ids]
    return PRMRunResult(
        **vars(run),
        nodes_per_pe_before=np.bincount(initial_of, weights=samples, minlength=num_pes),
        region_graph_remote=region_remote,
    )
