"""Spatially-aware weighted partitioning: recursive coordinate bisection.

The paper notes that "as regions are also spatial entities, the spatial
geometry of regions should also be preserved in an ideal partition"
(Sec. III-B).  Recursive coordinate bisection (RCB) splits the region set
along the widest coordinate axis into two halves of near-equal *weight*,
recursing until one part per PE remains.  It trades a little balance for
much lower edge cut than LPT — the knob behind the Fig. 7 region-
connection regression.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..subdivision.region import RegionGraph
from .edge_cut import checked_weights

__all__ = ["partition_rcb"]


def _region_centers(graph: RegionGraph) -> "tuple[list[int], np.ndarray]":
    ids = graph.region_ids()
    centers = []
    for rid in ids:
        region = graph.region(rid)
        if hasattr(region, "bounds"):
            centers.append(region.bounds.center)  # BoxRegion
        elif hasattr(region, "target"):
            centers.append(np.asarray(region.target, dtype=float))  # ConeRegion
        else:
            raise TypeError(f"region {rid} has no spatial representation")
    return ids, np.stack(centers)


def partition_rcb(
    graph: RegionGraph, weights: "Mapping[int, float]", num_pes: int
) -> "dict[int, int]":
    """Recursive coordinate bisection into ``num_pes`` parts balanced
    under ``weights``."""
    if num_pes < 1:
        raise ValueError("num_pes must be >= 1")
    weights = np.array(list(checked_weights(graph, weights).values()))
    ids, centers = _region_centers(graph)
    assignment: "dict[int, int]" = {}

    def recurse(indices: np.ndarray, pe_lo: int, pe_hi: int) -> None:
        """Assign regions[indices] to PEs [pe_lo, pe_hi)."""
        n_pes = pe_hi - pe_lo
        if n_pes == 1 or indices.size == 0:
            for i in indices:
                assignment[ids[i]] = pe_lo
            return
        # Split PE range proportionally (handles non-power-of-two counts).
        left_pes = n_pes // 2
        frac = left_pes / n_pes
        # Widest axis of this part's centers.
        pts = centers[indices]
        axis = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        order = indices[np.lexsort((indices, centers[indices, axis]))]
        w = weights[order]
        total = float(w.sum())
        if total == 0.0:
            split = int(round(order.size * frac))
        else:
            cum = np.cumsum(w)
            split = int(np.searchsorted(cum, frac * total))
            split = min(max(split, 1), order.size - 1) if order.size > 1 else 0
        recurse(order[:split], pe_lo, pe_lo + left_pes)
        recurse(order[split:], pe_lo + left_pes, pe_hi)

    recurse(np.arange(len(ids)), 0, num_pes)
    return assignment
