"""Partition quality metrics: balance and edge cut.

A good region-graph partition balances two competing objectives (Sec.
III-B): equalise per-PE weight (so the construction phase is balanced)
and minimise edge cut (so the region-connection phase stays local).

Region weights are an argument (the estimators' ``dict[int, float]``),
never graph state; :func:`checked_weights` is every weighted entry
point's input check.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..subdivision.region import RegionGraph

__all__ = ["PartitionQuality", "checked_weights", "evaluate_partition", "edge_cut_of", "loads_of"]


@dataclass(frozen=True)
class PartitionQuality:
    """Summary of one assignment's quality."""

    num_pes: int
    loads: np.ndarray
    edge_cut: int
    total_edges: int

    @property
    def max_load(self) -> float:
        return float(self.loads.max())

    @property
    def mean_load(self) -> float:
        return float(self.loads.mean())

    @property
    def imbalance(self) -> float:
        """max/mean load ratio; 1.0 is perfect."""
        return self.max_load / self.mean_load if self.mean_load > 0 else 1.0


def checked_weights(graph: RegionGraph, weights: "Mapping[int, float]") -> "dict[int, float]":
    """``weights`` as floats, one per region of ``graph`` in ascending id
    order.  A missing region, a region outside the graph or a negative
    weight raises ``ValueError``."""
    ids = graph.region_ids()
    missing = [rid for rid in ids if rid not in weights]
    if missing:
        raise ValueError(f"weights miss regions {missing[:5]}")
    if len(weights) != len(ids):
        raise ValueError("weights name regions outside the graph")
    out = {rid: float(weights[rid]) for rid in ids}
    if any(w < 0 for w in out.values()):
        raise ValueError("region weight must be non-negative")
    return out


def loads_of(
    graph: RegionGraph, weights: "Mapping[int, float]", assignment: "dict[int, int]", num_pes: int
) -> np.ndarray:
    """Per-PE total weight of ``assignment``, summed in ascending region
    id order (over a list of doubles: each weight is widened to a double
    first, as adding it into a float64 array does)."""
    loads = [0.0] * num_pes
    for rid in graph.region_ids():
        loads[assignment[rid]] += float(weights[rid])
    return np.array(loads, dtype=float)


def edge_cut_of(graph: RegionGraph, assignment: "dict[int, int]") -> int:
    """Number of adjacencies whose endpoints live on different PEs: each
    cut adjacency is seen from both ends."""
    cut = 0
    for a in graph.region_ids():
        here = assignment[a]
        for b in graph.neighbors(a):
            if assignment[b] != here:
                cut += 1
    return cut // 2


def evaluate_partition(
    graph: RegionGraph, weights: "Mapping[int, float]", assignment: "dict[int, int]", num_pes: int
) -> PartitionQuality:
    """Compute all quality metrics for an assignment under ``weights``."""
    weights = checked_weights(graph, weights)
    missing = set(graph.region_ids()) - set(assignment)
    if missing:
        raise ValueError(f"assignment misses {len(missing)} regions")
    bad = {pe for pe in assignment.values() if not 0 <= pe < num_pes}
    if bad:
        raise ValueError(f"assignment uses invalid PEs {sorted(bad)}")
    return PartitionQuality(
        num_pes=num_pes,
        loads=loads_of(graph, weights, assignment, num_pes),
        edge_cut=edge_cut_of(graph, assignment),
        total_edges=graph.num_adjacencies,
    )
