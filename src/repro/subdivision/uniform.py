"""Uniform grid subdivision of C-space (Algorithm 1, lines 1-6).

The positional dimensions of C-space are cut into an axis-aligned grid of
``Nr`` box regions, computed as one array pass over all cells.  Adjacency
connects regions sharing a face.  A configurable fractional *overlap* grows
each region's sampling box so that samples near boundaries can seed the
inter-region connection phase, exactly as the paper describes.
"""

from __future__ import annotations

from collections.abc import Mapping
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


class _GridCells(Mapping):
    """``rid -> BoxRegion`` over a grid's arrays: a region and its two
    :class:`AABB` s are built the first time they are asked for, then cached.
    It holds the arrays, not the grid, so the grid -> graph -> cells chain
    is no reference cycle and is freed as soon as the grid is."""

    def __init__(self, index, lo, hi, sample_lo, sample_hi):
        self._rows = (index, lo, hi, sample_lo, sample_hi)
        self._built: "dict[int, BoxRegion]" = {}

    def __getitem__(self, rid: int) -> BoxRegion:
        region = self._built.get(rid)
        if region is None:
            if rid not in self:
                raise KeyError(rid)
            index, lo, hi, sample_lo, sample_hi = (a[rid] for a in self._rows)
            region = self._built[rid] = BoxRegion(
                id=int(rid),
                bounds=AABB(lo.copy(), hi.copy()),
                sample_bounds=AABB(sample_lo.copy(), sample_hi.copy()),
                grid_index=tuple(index.tolist()),
            )
        return region

    def __contains__(self, rid) -> bool:
        return isinstance(rid, (int, np.integer)) and 0 <= rid < len(self)

    def __iter__(self):
        return iter(range(len(self)))

    def __len__(self) -> int:
        return self._rows[0].shape[0]


class UniformSubdivision:
    """Axis-aligned grid subdivision of the positional C-space box.

    The geometry of all ``Nr`` cells is held as ``(Nr, d)`` arrays, row
    ``r`` being region ``r`` (row-major over the grid): ``index`` (grid
    index), ``lo`` / ``hi`` (exclusive core box) and ``sample_lo`` /
    ``sample_hi`` (overlapped sampling box).  Block passes read these;
    :meth:`region_of` builds a region's :class:`BoxRegion` from them on
    first use.  Adjacency connects regions sharing a face.

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
    """

    def __init__(self, bounds: AABB, num_regions: int, overlap: float = 0.1):
        if overlap < 0:
            raise ValueError("overlap must be non-negative")
        self.bounds = bounds
        self.overlap = overlap
        self.shape = grid_shape_for(num_regions, bounds.dim, bounds.extents)
        self._cell = bounds.extents / np.asarray(self.shape, dtype=float)
        # Row r is cell r: the grid index is the flat id in mixed radix.
        self.index = np.indices(self.shape).reshape(bounds.dim, -1).T
        self.lo = bounds.lo + self.index * self._cell
        self.hi = self.lo + self._cell
        margin = 0.5 * self.overlap * self._cell
        self.sample_lo = np.maximum(self.lo - margin, bounds.lo)
        self.sample_hi = np.minimum(self.hi + margin, bounds.hi)
        self.graph = self._build()

    # -- construction ----------------------------------------------------------
    def _index_to_id(self, idx: "tuple[int, ...]") -> int:
        rid = 0
        for i, n in zip(idx, self.shape):
            rid = rid * n + i
        return rid

    def _build(self) -> RegionGraph:
        graph = RegionGraph.from_regions(
            _GridCells(self.index, self.lo, self.hi, self.sample_lo, self.sample_hi)
        )
        # Face adjacencies (r, r + stride[axis]) in (region, axis) order:
        # a neighbour set iterates in the order its ids were inserted.
        shape = np.asarray(self.shape)
        stride = np.cumprod(np.concatenate(([1], shape[:0:-1])))[::-1]
        flat = np.arange(self.index.shape[0])[:, None]
        ahead = np.broadcast_arrays(flat, flat + stride)
        ok = self.index + 1 < shape
        for a, b in zip(ahead[0][ok].tolist(), ahead[1][ok].tolist()):
            graph.add_adjacency(a, b)
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
