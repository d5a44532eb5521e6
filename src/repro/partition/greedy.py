"""Greedy global weight-balancing partitioner.

The paper: "We find an estimate of the most balanced partitioning of the
region graph statically ignoring edge-cuts using a greedy global
partitioning algorithm, as the exact problem is NP-complete" (Sec. IV-B).
This is the classic LPT (Longest Processing Time) heuristic: sort regions
by descending weight and repeatedly place the heaviest into the currently
lightest bin.  LPT is a 4/3-approximation of optimal makespan.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping

import numpy as np

from ..subdivision.region import RegionGraph
from .edge_cut import checked_weights

__all__ = ["partition_greedy_lpt", "partition_weighted_blocks"]


def partition_greedy_lpt(
    graph: RegionGraph, weights: "Mapping[int, float]", num_pes: int
) -> "dict[int, int]":
    """LPT assignment of the regions of ``graph``, weighted by
    ``weights``, to ``num_pes`` bins."""
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    weights = checked_weights(graph, weights)
    # Heaviest first; ties broken by region id for determinism.
    order = sorted(weights, key=lambda r: (-weights[r], r))
    heap: "list[tuple[float, int]]" = [(0.0, pe) for pe in range(num_pes)]
    heapq.heapify(heap)
    assignment: "dict[int, int]" = {}
    for rid in order:
        load, pe = heapq.heappop(heap)
        assignment[rid] = pe
        heapq.heappush(heap, (load + weights[rid], pe))
    return assignment


def partition_weighted_blocks(
    graph: RegionGraph, weights: "Mapping[int, float]", num_pes: int
) -> "dict[int, int]":
    """Contiguous blocks of (id-ordered) regions with near-equal *weight*.

    A middle ground between the naive count-based blocks and LPT: keeps
    spatial contiguity of id-ordered regions (grid ids are row-major, so
    blocks are slabs) while equalising weight.  This is the "preserving
    the spatial geometry of the subdivision" variant (Sec. III-B).
    """
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    ids = graph.region_ids()
    weights = np.array(list(checked_weights(graph, weights).values()))
    total = float(weights.sum())
    if total == 0.0:
        # Fall back to balanced counts.
        target_counts = np.array_split(np.arange(len(ids)), num_pes)
        return {ids[i]: pe for pe, chunk in enumerate(target_counts) for i in chunk}
    target = total / num_pes
    assignment: "dict[int, int]" = {}
    pe = 0
    acc = 0.0
    remaining = total
    for i, rid in enumerate(ids):
        w = weights[i]
        # Close the current block when it reached its fair share — unless
        # it is the last PE, which takes everything left.
        if pe < num_pes - 1 and acc > 0 and acc + 0.5 * w > target:
            pe += 1
            acc = 0.0
            remaining_pes = num_pes - pe
            target = remaining / remaining_pes
        assignment[rid] = pe
        acc += w
        remaining -= w
    return assignment
