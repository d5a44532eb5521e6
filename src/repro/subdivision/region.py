"""Regions and the region graph.

The region graph is the central coordination structure of the paper's
parallel algorithms: vertices are regions of C-space (the *quanta of
work*, Sec. III), edges encode region adjacency (used by the
inter-region connection phase), vertex weights estimate region work (used
by repartitioning), and the vertex->processor assignment is the
distribution that the load balancing techniques manipulate.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

__all__ = ["Region", "RegionGraph"]


@dataclass
class Region:
    """A region of C-space; concrete geometry lives in the subclasses
    (:class:`~repro.subdivision.uniform.BoxRegion`,
    :class:`~repro.subdivision.radial.ConeRegion`)."""

    id: int

    def contains(self, config: np.ndarray) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class RegionGraph:
    """Undirected graph over regions with weights and a PE assignment.

    The graph is deliberately independent of the distributed runtime: the
    same object is consumed by the partitioners (as input data), by the
    simulator (as the task list), and by the metrics module (to evaluate
    edge cuts before/after repartitioning).
    """

    def __init__(self) -> None:
        self._regions: dict[int, Region] = {}
        self._adj: dict[int, set[int]] = {}
        self.weights: dict[int, float] = {}
        #: region id -> processor id; filled by a partitioner.
        self.assignment: dict[int, int] = {}

    @classmethod
    def from_regions(cls, regions: "Mapping[int, Region]") -> "RegionGraph":
        """A graph over a fixed region table, every weight 1 and no
        adjacencies yet.  ``regions`` maps id -> region and may build its
        regions on demand (a grid does); it is kept, not copied."""
        graph = cls()
        graph._regions = regions  # type: ignore[assignment]
        graph._adj = {rid: set() for rid in regions}
        graph.weights = dict.fromkeys(regions, 1.0)
        return graph

    # -- construction ------------------------------------------------------
    def add_region(self, region: Region, weight: float = 1.0) -> None:
        if region.id in self._regions:
            raise KeyError(f"region {region.id} already present")
        self._regions[region.id] = region
        self._adj[region.id] = set()
        self.weights[region.id] = float(weight)

    def add_adjacency(self, a: int, b: int) -> None:
        if a == b:
            raise ValueError("a region is not adjacent to itself")
        if a not in self._adj or b not in self._adj:
            raise KeyError(f"adjacency ({a},{b}) references missing region")
        self._adj[a].add(b)
        self._adj[b].add(a)

    # -- access --------------------------------------------------------------
    def region(self, rid: int) -> Region:
        return self._regions[rid]

    def regions(self):
        return self._regions.values()

    def region_ids(self) -> "list[int]":
        return sorted(self._regions.keys())

    def neighbors(self, rid: int) -> "set[int]":
        return self._adj[rid]

    @property
    def num_regions(self) -> int:
        return len(self._regions)

    @property
    def num_adjacencies(self) -> int:
        return sum(len(s) for s in self._adj.values()) // 2

    def edges(self):
        """Iterate undirected adjacencies once as (a, b) with a < b."""
        for a, nbrs in self._adj.items():
            for b in nbrs:
                if a < b:
                    yield a, b

    # -- weights ---------------------------------------------------------------
    def set_weight(self, rid: int, weight: float) -> None:
        if rid not in self._regions:
            raise KeyError(f"region {rid} missing")
        if weight < 0:
            raise ValueError("region weight must be non-negative")
        self.weights[rid] = float(weight)

    # -- assignment --------------------------------------------------------------
    def assign(self, rid: int, pe: int) -> None:
        if rid not in self._regions:
            raise KeyError(f"region {rid} missing")
        self.assignment[rid] = pe

    def set_assignment(self, assignment: "dict[int, int]") -> None:
        missing = set(self._regions) - set(assignment)
        if missing:
            raise ValueError(f"assignment misses regions {sorted(missing)[:5]}...")
        self.assignment = dict(assignment)

    def pe_loads(self, num_pes: int) -> np.ndarray:
        """Per-PE total region weight under the current assignment."""
        loads = np.zeros(num_pes)
        for rid, pe in self.assignment.items():
            loads[pe] += self.weights[rid]
        return loads

    def edge_cut(self) -> int:
        """Number of adjacencies whose endpoints live on different PEs."""
        if not self.assignment:
            return 0
        return sum(1 for a, b in self.edges() if self.assignment[a] != self.assignment[b])
