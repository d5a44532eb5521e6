"""Bulk-synchronous repartitioning (Algorithm 4).

Given region weights, computes a new region->PE assignment with a greedy
global partitioner followed by edge-cut refinement and models the cost
of enforcing it: an all-reduce to agree on the partition plus migration
of the moved regions (ownership transfer of the region *and its roadmap
data*, the pGraph redistribution of Sec. IV-A).  Nothing is written
back, so one workload can be repartitioned under any number of weights.

The overhead model is what makes the paper's "at 128 cores there is no
better distribution possible, so the experimental result only shows the
overhead of attempting to repartition" observation reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs.events import EV_REPARTITION_DECISION
from ..partition.edge_cut import checked_weights, loads_of
from ..partition.greedy import partition_greedy_lpt
from ..partition.refine import refine_partition
from ..runtime.topology import ClusterTopology
from ..subdivision.region import RegionGraph

if TYPE_CHECKING:
    from ..obs.tracer import Tracer

__all__ = ["MIN_GAIN", "PAYLOAD_PER_REGION", "PAYLOAD_PER_WEIGHT", "RepartitionResult", "repartition"]

# The overhead model.  A migrated region ships its descriptor
# (``PAYLOAD_PER_REGION``) plus its roadmap data, proportional to its
# weight (= sample count for PRM).  A new map that does not cut the
# predicted maximum load by at least ``MIN_GAIN`` of the old one is not
# installed: only the (cheap) weight all-reduce is charged — why the paper
# sees "no significant overhead" from load balancing in its already
# balanced *free* environment.
PAYLOAD_PER_REGION = 1.0
PAYLOAD_PER_WEIGHT = 1.0
MIN_GAIN = 0.10


@dataclass
class RepartitionResult:
    """New assignment plus the virtual-time overhead of installing it."""

    assignment: "dict[int, int]"
    moved_regions: int
    #: max over PEs of (outgoing + incoming) migration payload.
    max_migration_payload: float
    #: virtual time charged: allreduce + migration.
    overhead: float


def repartition(
    graph: RegionGraph,
    weights: "dict[int, float]",
    old_assignment: "dict[int, int]",
    topology: ClusterTopology,
    tracer: "Tracer | None" = None,
) -> RepartitionResult:
    """Compute and cost a weight-balanced repartition of ``graph`` under
    ``weights`` (one non-negative weight per region), starting from
    ``old_assignment``.  Neither the graph nor the inputs are modified.
    """
    weights = checked_weights(graph, weights)
    num_pes = topology.num_pes
    new_assignment = refine_partition(
        graph, weights, partition_greedy_lpt(graph, weights, num_pes), num_pes
    )

    allreduce = 2.0 * np.ceil(np.log2(max(num_pes, 2))) * topology.latency_remote
    old_max = float(loads_of(graph, weights, old_assignment, num_pes).max())
    new_max = float(loads_of(graph, weights, new_assignment, num_pes).max())
    if old_max > 0 and new_max >= (1.0 - MIN_GAIN) * old_max:
        if tracer is not None:
            tracer.point(
                EV_REPARTITION_DECISION,
                ts=0.0,
                accepted=False,
                moved=0,
                overhead=float(allreduce),
                old_max_load=old_max,
                new_max_load=new_max,
            )
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
        size = PAYLOAD_PER_REGION + PAYLOAD_PER_WEIGHT * weights[rid]
        payload[src] += size
        payload[dst] += size
    max_payload = float(payload.max()) if payload.size else 0.0

    # Overhead: the weight all-reduce plus the slowest PE's migration
    # traffic at remote bandwidth.
    migration = max_payload * topology.bandwidth_cost + (
        topology.latency_remote if moved else 0.0
    )
    if tracer is not None:
        tracer.point(
            EV_REPARTITION_DECISION,
            ts=0.0,
            accepted=True,
            moved=moved,
            overhead=float(allreduce + migration),
            old_max_load=old_max,
            new_max_load=new_max,
        )
    return RepartitionResult(
        assignment=new_assignment,
        moved_regions=moved,
        max_migration_payload=max_payload,
        overhead=float(allreduce + migration),
    )
