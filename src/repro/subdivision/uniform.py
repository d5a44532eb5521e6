"""Uniform grid subdivision of C-space (Algorithm 1, lines 1-6).

The positional dimensions of C-space are cut into an axis-aligned grid of
``Nr`` box regions.  Adjacency connects regions sharing a face (or,
optionally, an edge/corner).  A configurable fractional *overlap* grows
each region's sampling box so that samples near boundaries can seed the
inter-region connection phase, exactly as the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry.primitives import AABB
from .region import Region, RegionGraph

__all__ = ["BoxRegion", "UniformSubdivision", "grid_shape_for"]


@dataclass
class BoxRegion(Region):
    """A grid cell: the exclusive core box plus an overlapped sampling box."""

    bounds: AABB = None  # type: ignore[assignment]
    sample_bounds: AABB = None  # type: ignore[assignment]
    grid_index: "tuple[int, ...]" = ()

    def contains(self, config: np.ndarray) -> bool:
        pos = np.asarray(config, dtype=float)[: self.bounds.dim]
        return bool(self.bounds.contains(pos))

    def volume(self) -> float:
        return self.bounds.volume()


def grid_shape_for(num_regions: int, dim: int, extents: np.ndarray) -> "tuple[int, ...]":
    """Pick a grid shape with ~``num_regions`` cells, proportionate to the
    workspace extents so cells are near-cubical."""
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    extents = np.asarray(extents, dtype=float)
    if np.any(extents <= 0):
        raise ValueError("extents must be positive")
    # Ideal continuous cell count per axis: n_i ∝ extents_i, prod = num_regions.
    scale = (num_regions / np.prod(extents)) ** (1.0 / dim)
    shape = np.maximum(np.rint(extents * scale).astype(int), 1)
    # Nudge the largest axes until the product is close to the target.
    while np.prod(shape) < num_regions:
        shape[np.argmin(shape * 1.0 / extents)] += 1
    return tuple(int(s) for s in shape)


class UniformSubdivision:
    """Axis-aligned grid subdivision of the positional C-space box.

    Parameters
    ----------
    bounds:
        Box to subdivide (the C-space bounds).
    num_regions:
        Target region count; the actual grid has the nearest achievable
        cell count (``shape`` exposes it).
    overlap:
        Fraction of a cell's half-extent by which sampling boxes extend
        beyond the exclusive core (paper: "some user-defined overlap").
    include_diagonal:
        When True, regions sharing only an edge/corner are also adjacent.
    """

    def __init__(
        self,
        bounds: AABB,
        num_regions: int,
        overlap: float = 0.1,
        include_diagonal: bool = False,
        shape: "tuple[int, ...] | None" = None,
    ):
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        self.bounds = bounds
        self.overlap = overlap
        self.include_diagonal = include_diagonal
        self.shape = (
            shape if shape is not None
            else grid_shape_for(num_regions, bounds.dim, bounds.extents)
        )
        if len(self.shape) != bounds.dim:
            raise ValueError("shape dimensionality mismatch")
        self._cell = bounds.extents / np.asarray(self.shape, dtype=float)
        self.graph = self._build()

    # -- construction ----------------------------------------------------------
    def _index_to_id(self, idx: "tuple[int, ...]") -> int:
        rid = 0
        for i, n in zip(idx, self.shape):
            rid = rid * n + i
        return rid

    def _id_to_index(self, rid: int) -> "tuple[int, ...]":
        idx = []
        for n in reversed(self.shape):
            idx.append(rid % n)
            rid //= n
        return tuple(reversed(idx))

    def _build(self) -> RegionGraph:
        graph = RegionGraph()
        dim = self.bounds.dim
        margin = 0.5 * self.overlap * self._cell
        for flat in range(int(np.prod(self.shape))):
            idx = self._id_to_index(flat)
            lo = self.bounds.lo + np.asarray(idx) * self._cell
            hi = lo + self._cell
            core = AABB(lo, hi)
            sample = AABB(
                np.maximum(lo - margin, self.bounds.lo),
                np.minimum(hi + margin, self.bounds.hi),
            )
            graph.add_region(BoxRegion(id=flat, bounds=core, sample_bounds=sample, grid_index=idx))
        # Face adjacencies.
        for flat in range(int(np.prod(self.shape))):
            idx = self._id_to_index(flat)
            for d in range(dim):
                if idx[d] + 1 < self.shape[d]:
                    nbr = list(idx)
                    nbr[d] += 1
                    graph.add_adjacency(flat, self._index_to_id(tuple(nbr)))
            if self.include_diagonal:
                for offset in np.ndindex(*(3,) * dim):
                    delta = np.asarray(offset) - 1
                    if np.all(delta == 0) or np.sum(np.abs(delta)) < 2:
                        continue
                    nbr = np.asarray(idx) + delta
                    if np.all(nbr >= 0) and np.all(nbr < self.shape):
                        nbr_id = self._index_to_id(tuple(int(x) for x in nbr))
                        if nbr_id > flat:
                            graph.add_adjacency(flat, nbr_id)
        return graph

    # -- queries ------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return self.graph.num_regions

    def locate(self, position: np.ndarray) -> int:
        """O(1) region lookup for a positional point (clamped to bounds)."""
        pos = np.asarray(position, dtype=float)[: self.bounds.dim]
        rel = (pos - self.bounds.lo) / self._cell
        idx = np.clip(np.floor(rel).astype(int), 0, np.asarray(self.shape) - 1)
        return self._index_to_id(tuple(int(i) for i in idx))

    def locate_batch(self, positions: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(positions, dtype=float))[:, : self.bounds.dim]
        rel = (pts - self.bounds.lo) / self._cell
        idx = np.clip(rel.astype(int), 0, np.asarray(self.shape) - 1)
        flat = np.zeros(idx.shape[0], dtype=np.int64)
        for i, n in enumerate(self.shape):
            flat = flat * n + idx[:, i]
        return flat

    def region_of(self, rid: int) -> BoxRegion:
        return self.graph.region(rid)  # type: ignore[return-value]
