"""Bulk-synchronous repartitioning (Algorithm 4).

Given region weights, computes a new region->PE assignment with a greedy
global partitioner (optionally followed by edge-cut refinement) and models
the cost of enforcing it: an all-reduce to agree on the partition plus
migration of the moved regions (ownership transfer of the region *and its
roadmap data*, the pGraph redistribution of Sec. IV-A).

The overhead model is what makes the paper's "at 128 cores there is no
better distribution possible, so the experimental result only shows the
overhead of attempting to repartition" observation reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs.events import EV_REPARTITION_DECISION
from ..obs.tracer import active
from ..partition import partition_by_name
from ..partition.greedy import partition_greedy_lpt
from ..partition.naive import partition_block
from ..partition.refine import refine_partition
from ..runtime.topology import ClusterTopology
from ..subdivision.region import RegionGraph

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["RepartitionResult", "initial_assignment", "repartition"]


def initial_assignment(
    graph: RegionGraph, num_pes: int, partitioner: "str | None"
) -> "dict[int, int]":
    """The region -> PE map before any load balancing: balanced contiguous
    blocks of the row-major region mesh — the paper's naive 1-D mapping ("a
    balanced number of region columns"), generalised to PE counts exceeding
    the column count — unless another partitioner is named."""
    if partitioner in (None, "block"):
        return partition_block(graph, num_pes)
    return partition_by_name(graph, num_pes, partitioner)


@dataclass
class RepartitionResult:
    """New assignment plus the virtual-time overhead of installing it."""

    assignment: "dict[int, int]"
    moved_regions: int
    #: max over PEs of (outgoing + incoming) migration payload.
    max_migration_payload: float
    #: virtual time charged: allreduce + migration.
    overhead: float

    @property
    def moved_fraction(self) -> float:
        return self.moved_regions / max(len(self.assignment), 1)


def repartition(
    graph: RegionGraph,
    weights: "dict[int, float]",
    old_assignment: "dict[int, int]",
    topology: ClusterTopology,
    refine: bool = True,
    balance_tolerance: float = 0.05,
    payload_per_weight: float = 1.0,
    payload_per_region: float = 1.0,
    min_gain: float = 0.10,
    tracer: "Tracer | None" = None,
) -> RepartitionResult:
    """Compute and cost a weight-balanced repartition.

    ``payload_per_region`` and ``payload_per_weight`` convert a migrated
    region into transfer payload: the region descriptor itself plus its
    roadmap data, which is proportional to its weight (= sample count for
    PRM).

    ``min_gain`` guards against useless migration: when the new partition
    would not reduce the predicted maximum load by at least this fraction,
    the old assignment is kept and only the (cheap) weight all-reduce is
    charged — this is why the paper sees "no significant overhead" from
    load balancing in its already-balanced *free* environment.
    """
    for rid, w in weights.items():
        graph.set_weight(rid, w)
    num_pes = topology.num_pes
    new_assignment = partition_greedy_lpt(graph, num_pes)
    if refine:
        new_assignment = refine_partition(
            graph, new_assignment, num_pes, balance_tolerance=balance_tolerance
        )

    allreduce = 2.0 * np.ceil(np.log2(max(num_pes, 2))) * topology.latency_remote
    old_loads = np.zeros(num_pes)
    new_loads = np.zeros(num_pes)
    for rid in graph.region_ids():
        w = weights.get(rid, 0.0)
        old_loads[old_assignment[rid]] += w
        new_loads[new_assignment[rid]] += w
    old_max, new_max = float(old_loads.max()), float(new_loads.max())
    tr = active(tracer)
    if old_max > 0 and new_max >= (1.0 - min_gain) * old_max:
        if tr is not None:
            tr.point(
                EV_REPARTITION_DECISION,
                ts=0.0,
                accepted=False,
                moved=0,
                overhead=float(allreduce),
                old_max_load=old_max,
                new_max_load=new_max,
            )
            tr.metrics.counter("repartitions_declined").inc()
        return RepartitionResult(
            assignment=dict(old_assignment),
            moved_regions=0,
            max_migration_payload=0.0,
            overhead=float(allreduce),
        )

    # Migration payload per PE: regions leaving plus regions arriving.
    payload = np.zeros(topology.num_pes)
    moved = 0
    for rid in graph.region_ids():
        src, dst = old_assignment[rid], new_assignment[rid]
        if src == dst:
            continue
        moved += 1
        size = payload_per_region + payload_per_weight * weights.get(rid, 0.0)
        payload[src] += size
        payload[dst] += size
    max_payload = float(payload.max()) if payload.size else 0.0

    # Overhead: the weight all-reduce plus the slowest PE's migration
    # traffic at remote bandwidth.
    migration = max_payload * topology.bandwidth_cost + (
        topology.latency_remote if moved else 0.0
    )
    if tr is not None:
        tr.point(
            EV_REPARTITION_DECISION,
            ts=0.0,
            accepted=True,
            moved=moved,
            overhead=float(allreduce + migration),
            old_max_load=old_max,
            new_max_load=new_max,
        )
        tr.metrics.counter("repartitions_accepted").inc()
        tr.metrics.counter("regions_migrated").inc(moved)
    return RepartitionResult(
        assignment=new_assignment,
        moved_regions=moved,
        max_migration_payload=max_payload,
        overhead=float(allreduce + migration),
    )
