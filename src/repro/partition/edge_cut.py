"""Partition quality metrics: balance and edge cut.

A good region-graph partition balances two competing objectives (Sec.
III-B): equalise per-PE weight (so the construction phase is balanced)
and minimise edge cut (so the region-connection phase stays local).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..subdivision.region import RegionGraph

__all__ = ["PartitionQuality", "evaluate_partition", "edge_cut_of", "loads_of"]


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

    @property
    def coefficient_of_variation(self) -> float:
        """σ/µ of PE loads — the paper's imbalance measure."""
        mu = self.loads.mean()
        return float(self.loads.std() / mu) if mu > 0 else 0.0


def loads_of(graph: RegionGraph, assignment: "dict[int, int]", num_pes: int) -> np.ndarray:
    loads = np.zeros(num_pes)
    for rid in graph.region_ids():
        loads[assignment[rid]] += graph.weights[rid]
    return loads


def edge_cut_of(graph: RegionGraph, assignment: "dict[int, int]") -> int:
    return sum(1 for a, b in graph.edges() if assignment[a] != assignment[b])


def evaluate_partition(graph: RegionGraph, assignment: "dict[int, int]", num_pes: int) -> PartitionQuality:
    """Compute all quality metrics for an assignment."""
    missing = set(graph.region_ids()) - set(assignment)
    if missing:
        raise ValueError(f"assignment misses {len(missing)} regions")
    bad = {pe for pe in assignment.values() if not 0 <= pe < num_pes}
    if bad:
        raise ValueError(f"assignment uses invalid PEs {sorted(bad)}")
    return PartitionQuality(
        num_pes=num_pes,
        loads=loads_of(graph, assignment, num_pes),
        edge_cut=edge_cut_of(graph, assignment),
        total_edges=graph.num_adjacencies,
    )
