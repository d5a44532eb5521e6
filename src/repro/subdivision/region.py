"""Regions and the region graph.

The region graph is the central coordination structure of the paper's
parallel algorithms: vertices are regions of C-space (the *quanta of
work*, Sec. III) and edges encode region adjacency (used by the
inter-region connection phase).  It holds no load-balancing decision:
region weights (``ComputeRegionWeight``, Alg. 4) and a region->PE
assignment are values passed to the partitioners and to
:func:`repro.core.repartition`, never stored here, so one graph serves
any number of weightings and mappings side by side.
"""

from __future__ import annotations

from bisect import insort
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
    """Undirected graph over regions: the region table and its adjacency.

    The graph is deliberately independent of the distributed runtime and
    of any one load-balancing decision: the partitioners read it beside a
    weights mapping, the simulator reads it as the task list, and
    :mod:`repro.partition.edge_cut` evaluates an assignment against it.
    """

    def __init__(self) -> None:
        self._regions: dict[int, Region] = {}
        self._adj: dict[int, set[int]] = {}
        self._sorted_ids: list[int] = []  # ascending; region_ids() hands out copies

    @classmethod
    def from_regions(cls, regions: "Mapping[int, Region]") -> "RegionGraph":
        """A graph over a fixed region table with no adjacencies yet.
        ``regions`` maps id -> region and may build its regions on demand
        (a grid does); it is kept, not copied."""
        graph = cls()
        graph._regions = regions  # type: ignore[assignment]
        graph._adj = {rid: set() for rid in regions}
        graph._sorted_ids = sorted(graph._adj)
        return graph

    # -- construction ------------------------------------------------------
    def add_region(self, region: Region) -> None:
        if region.id in self._regions:
            raise KeyError(f"region {region.id} already present")
        self._regions[region.id] = region
        self._adj[region.id] = set()
        insort(self._sorted_ids, region.id)

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
        """Every region id, ascending (a fresh list the caller may keep)."""
        return list(self._sorted_ids)

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
