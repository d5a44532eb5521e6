"""The simulated machine both planners run on (Alg. 3 and 4 over the
regions of Alg. 1 and Alg. 2).

Parallel PRM and radial RRT differ in what a region is and what its work
costs; the machine that executes the regions is one: the naive block
mapping, the optional repartition (Alg. 4), the load-balanced phase with
work stealing (Alg. 3), termination detection, and region connection with
remote-access accounting.  :func:`replay` is that machine.  It takes a
region graph, per-region cost and node vectors and the adjacency ledger,
and returns one :class:`RunResult`; ``simulate_prm`` and ``simulate_rrt``
are adapters that supply their planner's ledgers, weights and probe cost.

One :class:`PhaseTimes` serves both planners under the canonical phase
vocabulary of the trace spans (:mod:`repro.obs.events`):

=========== ============================= ============================
phase       parallel PRM                  radial RRT
=========== ============================= ============================
subdivide   region construction           region construction
generate    node generation               — (``node_generation`` is None)
weigh       — (sample counts are free)    k-rays free-space probe
repartition partition install overhead    partition install overhead
construct   node connection (LB'd phase)  branch growth (LB'd phase)
terminate   termination detection         termination detection
connect     region connection             branch connection
=========== ============================= ============================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs.events import (
    PHASE_CONNECT,
    PHASE_CONSTRUCT,
    PHASE_GENERATE,
    PHASE_REPARTITION,
    PHASE_SUBDIVIDE,
    PHASE_TERMINATE,
    PHASE_WEIGH,
)
from ..partition.naive import partition_block
from ..runtime.simulator import WorkStealingSimulator, run_static_phase
from ..runtime.stats import SimResult
from ..runtime.termination import detection_delay_tree
from ..runtime.topology import ClusterTopology
from ..subdivision.region import RegionGraph
from .repartition import RepartitionResult, repartition
from .work_stealing import policy_by_name

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["STRATEGIES", "REGION_CREATE_COST", "PhaseTimes", "RunResult", "replay"]

#: Load-balancing strategies a replay runs, in the paper's order: the two
#: static ones, then the steal policies of :func:`policy_by_name`.
STRATEGIES = ("none", "repartition", "rand-8", "diffusive", "hybrid")

#: Virtual cost of creating one region descriptor (phase 1 is trivially
#: parallel and tiny; this keeps it visible but small, as in Fig. 7a).
REGION_CREATE_COST = 0.05


@dataclass
class PhaseTimes:
    """Virtual seconds per phase (the Fig. 7a breakdown); the field names
    are PRM's, the table in the module docstring maps them to RRT's."""

    region_construction: float = 0.0
    #: ``None`` when the planner has no generate phase (RRT: branch growth
    #: subsumes sampling) — then it has no span and no share of ``other``.
    node_generation: "float | None" = None
    #: the load-balanced phase.
    node_connection: float = 0.0
    region_connection: float = 0.0
    #: weight-probe time; 0 for PRM (sample counts fall out of generation).
    weigh: float = 0.0
    lb_overhead: float = 0.0
    termination: float = 0.0

    @property
    def other(self) -> float:
        t = self.region_construction
        if self.node_generation is not None:
            t += self.node_generation
        return t + self.weigh + self.lb_overhead + self.termination

    @property
    def total(self) -> float:
        return self.other + self.node_connection + self.region_connection

    def phase_items(self) -> "list[tuple[str, float]]":
        """Canonical (name, duration) pairs in timeline order."""
        generate = [] if self.node_generation is None else [(PHASE_GENERATE, self.node_generation)]
        return [
            (PHASE_SUBDIVIDE, self.region_construction),
            *generate,
            (PHASE_WEIGH, self.weigh),
            (PHASE_REPARTITION, self.lb_overhead),
            (PHASE_CONSTRUCT, self.node_connection),
            (PHASE_TERMINATE, self.termination),
            (PHASE_CONNECT, self.region_connection),
        ]

    def spans(self) -> "list[tuple[str, float, float]]":
        """``(name, begin, end)`` of every phase, laid back to back from
        t = 0 in :meth:`phase_items` order — the run's virtual timeline.
        Zero-duration phases keep their span, so a trace reproduces the
        breakdown field for field."""
        out, t = [], 0.0
        for name, duration in self.phase_items():
            out.append((name, t, t + duration))
            t += duration
        return out

    def start(self, phase: str) -> float:
        """When ``phase`` begins on the run's timeline; only the phases
        before it need to be filled in."""
        return next(begin for name, begin, _end in self.spans() if name == phase)


@dataclass
class RunResult:
    """One (strategy, machine size) replay of a planner's workload."""

    strategy: str
    num_pes: int
    phases: PhaseTimes
    #: per-PE virtual work in the load-balanced phase.
    loads: np.ndarray
    #: nodes per PE under the ownership after the load-balanced phase.
    nodes_per_pe: np.ndarray
    #: simulator output of the load-balanced phase (steal stats etc.).
    sim: SimResult
    #: region -> PE before load balancing (the naive block map).
    initial_owner: "dict[int, int]"
    #: region -> PE after the load-balanced phase: a stolen region lives on
    #: its thief.
    final_owner: "dict[int, int]"
    #: connection-phase vertex reads that crossed PEs.
    remote_reads: int
    repartition_info: "RepartitionResult | None" = None

    @property
    def total_time(self) -> float:
        return self.phases.total


def replay(
    graph: RegionGraph,
    costs: "Sequence[float]",
    nodes: "Sequence[int]",
    adjacency: Sequence,
    num_pes: int,
    strategy: str,
    rng_seed: int,
    *,
    gen_costs: "Sequence[float] | None" = None,
    weights: "dict[int, float] | None" = None,
    probe_cost: float = 0.0,
    topology: ClusterTopology | None = None,
    steal_chunk: "str | int" = "half",
    tracer: "Tracer | None" = None,
) -> RunResult:
    """Replay one workload on a virtual machine of ``num_pes`` PEs.

    ``costs`` (the load-balanced phase), ``nodes`` and ``gen_costs`` (a
    generate phase; ``None`` for a planner without one) hold one entry per
    region of ``graph`` in ``graph.region_ids()`` order.  ``adjacency`` is
    the connection ledger: entries with ``a``, ``b``, ``cost`` and
    ``vertex_reads``, read from ``a``'s owner.  ``weights`` are the
    repartition weights and ``probe_cost`` the virtual cost of weighing
    one region; both are read under ``"repartition"`` only.  ``rng_seed``
    seeds the steal policy.

    ``tracer`` (optional) records one span per phase on the run's virtual
    timeline, the full steal protocol inside the ``construct`` span and
    the repartition decision.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    topology = topology if topology is not None else ClusterTopology(num_pes)
    if topology.num_pes != num_pes:
        raise ValueError("topology PE count mismatch")
    phases = PhaseTimes()
    region_ids = graph.region_ids()
    # The paper's naive mapping ("a balanced number of region columns"):
    # contiguous blocks of the row-major region ids, for any PE count.
    naive = partition_block(graph, num_pes)
    naive_of = np.array([naive[rid] for rid in region_ids], dtype=int)

    # Per-PE sums go through ``np.bincount``: it accumulates in appearance
    # order, exactly like a ``loads[owner] += x`` loop, so every phase time
    # keeps its bits.
    per_pe_regions = np.bincount(naive_of, minlength=num_pes)
    phases.region_construction = float(per_pe_regions.max()) * REGION_CREATE_COST
    if gen_costs is not None:
        phases.node_generation = float(
            np.bincount(naive_of, weights=gen_costs, minlength=num_pes).max()
        )

    repart_info: RepartitionResult | None = None
    assignment = naive
    if strategy == "repartition":
        # Each PE probes its own regions: the makespan term is the per-PE
        # maximum.  The decision event lands where the repartition phase
        # starts on the run's timeline.
        probe = np.full(naive_of.size, probe_cost)
        phases.weigh = float(np.bincount(naive_of, weights=probe, minlength=num_pes).max())
        t_lb = phases.start(PHASE_REPARTITION)
        repart_info = repartition(
            graph, weights, naive, topology,
            tracer=tracer.offset(t_lb) if tracer is not None else None,
        )
        assignment = repart_info.assignment
        phases.lb_overhead = repart_info.overhead

    # The load-balanced phase.  ``"none"`` and ``"repartition"`` run
    # statically (the assignment already is the balancing decision); a
    # steal policy pays termination detection afterwards.  The simulator
    # runs on a phase-local clock; offsetting its tracer embeds the task
    # and steal events inside the ``construct`` span.
    t_construct = phases.start(PHASE_CONSTRUCT)
    cost_of = dict(zip(region_ids, costs))

    def executor(task: int, pe: int) -> float:
        return cost_of[task]

    phase_tracer = tracer.offset(t_construct) if tracer is not None else None
    if strategy in ("none", "repartition"):
        sim = run_static_phase(topology, executor, assignment, tracer=phase_tracer)
    else:
        sim = WorkStealingSimulator(
            topology,
            executor,
            steal_policy=policy_by_name(strategy),
            steal_chunk=steal_chunk,
            rng=np.random.default_rng(rng_seed),
            tracer=phase_tracer,
        ).run(assignment)
        phases.termination = detection_delay_tree(topology)
    phases.node_connection = sim.makespan
    final_owner = sim.executed_by  # every region ran once, where it lives now

    # Connection: an adjacency's vertex reads, made from ``a``'s owner, go
    # remote when ``b`` lives on another PE and ship as one aggregated
    # message (STAPL aggregates asynchronous remote accesses): one base
    # latency plus bandwidth per read.
    owner_a = np.array([final_owner[adj.a] for adj in adjacency], dtype=int)
    owner_b = np.array([final_owner[adj.b] for adj in adjacency], dtype=int)
    reads = np.array([adj.vertex_reads for adj in adjacency], dtype=int)
    remote = (owner_a != owner_b) & (reads > 0)
    latency = np.where(remote, topology.latencies(owner_a, owner_b, reads), 0.0)
    conn_loads = np.bincount(
        owner_a, weights=np.array([adj.cost for adj in adjacency]) + latency, minlength=num_pes
    )
    phases.region_connection = float(conn_loads.max())

    if tracer is not None:
        for name, begin, end in phases.spans():
            tracer.span_at(name, begin, end)
    return RunResult(
        strategy=strategy,
        num_pes=num_pes,
        phases=phases,
        loads=sim.work_times(),
        nodes_per_pe=np.bincount(
            [final_owner[rid] for rid in region_ids], weights=nodes, minlength=num_pes
        ),
        sim=sim,
        initial_owner=naive,
        final_owner=final_owner,
        remote_reads=int(reads[remote].sum()),
        repartition_info=repart_info,
    )
