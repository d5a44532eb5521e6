"""A from-scratch kd-tree with incremental insertion.

Supports the same interface as :class:`~repro.knn.brute.BruteForceNN` and
is cross-validated against it property-style in the tests.  Insertion uses
median-less splitting (cycle through axes at the insertion point), which
keeps the tree adequately balanced for randomly ordered points — exactly
what samplers produce.

Two properties make it a drop-in replacement for the brute-force backend
on the query-serving hot path:

* **Canonical tie-breaking** — neighbours are ordered by
  ``(distance, insertion order)``, the same rule every other backend
  follows, so swapping backends never changes a planner's output.
* **Bit-identical distances** — per-node distances accumulate squared
  per-axis differences left to right in Python floats, the same order
  NumPy's row-wise ``linalg.norm`` reduces small-``dim`` rows, so the
  reported distances match the brute-force values bit for bit.

Nodes live in parallel Python lists (points as tuples) rather than
heap-allocated node objects: traversal touches plain list slots with no
attribute lookups or NumPy scalar boxing, which is what lets the tree
beat the vectorised brute-force scan beyond a few thousand points.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .base import NeighborFinder

__all__ = ["KDTreeNN"]


class KDTreeNN(NeighborFinder):
    """Incremental kd-tree over ``dim``-dimensional points; the scalar
    tree descent is always exact float64."""

    def __init__(self, dim: int):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        # Parallel arrays: point tuple, external id, split axis, child slots
        # (-1 = absent).  Slot index doubles as insertion sequence number.
        self._pts: "list[tuple[float, ...]]" = []
        self._ids: list[int] = []
        self._axis: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []

    # -- construction -------------------------------------------------------
    def _insert(self, point_id: int, pt: "tuple[float, ...]") -> None:
        i = len(self._pts)
        self._pts.append(pt)
        self._ids.append(int(point_id))
        self._left.append(-1)
        self._right.append(-1)
        if i == 0:
            self._axis.append(0)
            return
        pts, axes, left, right = self._pts, self._axis, self._left, self._right
        node = 0
        while True:
            ax = axes[node]
            if pt[ax] < pts[node][ax]:
                nxt = left[node]
                if nxt < 0:
                    left[node] = i
                    break
            else:
                nxt = right[node]
                if nxt < 0:
                    right[node] = i
                    break
            node = nxt
        self._axis.append((ax + 1) % self.dim)

    def add(self, point_id: int, point: np.ndarray) -> None:
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {pt.shape}")
        self._insert(point_id, tuple(pt.tolist()))

    def add_batch(self, ids: np.ndarray, points: np.ndarray) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != points.shape[0]:
            raise ValueError("ids and points length mismatch")
        if points.shape[1] != self.dim:
            raise ValueError(f"points must have shape (m, {self.dim}), got {points.shape}")
        for pid, row in zip(ids.tolist(), points.tolist()):
            self._insert(pid, tuple(row))

    # -- queries -----------------------------------------------------------
    def knn(self, query: np.ndarray, k: int, exclude: int | None = None) -> "list[tuple[int, float]]":
        if not self._pts or k <= 0:
            return []
        q = tuple(np.asarray(query, dtype=float).tolist())
        self.stats.queries += 1
        pts, ids_, axes = self._pts, self._ids, self._axis
        left, right = self._left, self._right
        # Max-heap of (-d, -seq, id): heap[0] is the worst kept neighbour
        # under the canonical (distance, insertion order) key.
        heap: "list[tuple[float, int, int]]" = []
        evals = 0
        # Explicit stack of (node, plane) where plane >= 0 marks a deferred
        # far-subtree visit carrying its splitting-plane distance.  The
        # prune test runs at *pop* time — after the near subtree tightened
        # the heap — matching the recursive formulation's pruning power.
        stack: "list[tuple[int, float]]" = [(0, -1.0)]
        while stack:
            node, plane = stack.pop()
            if plane >= 0.0 and len(heap) == k and plane > -heap[0][0]:
                continue
            pt = pts[node]
            evals += 1
            s = 0.0
            for a, b in zip(pt, q):
                t = a - b
                s += t * t
            d = math.sqrt(s)
            if ids_[node] != exclude:
                entry = (-d, -node, ids_[node])
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif entry > heap[0]:
                    heapq.heapreplace(heap, entry)
            ax = axes[node]
            delta = q[ax] - pt[ax]
            if delta < 0.0:
                near, far = left[node], right[node]
            else:
                near, far = right[node], left[node]
            if far >= 0:
                stack.append((far, -delta if delta < 0.0 else delta))
            if near >= 0:
                stack.append((near, -1.0))
        self.stats.distance_evals += evals
        out = sorted((-nd, -nseq, pid) for nd, nseq, pid in heap)
        return [(pid, d) for d, _seq, pid in out]

    def nn1(self, query: np.ndarray, bound: float = math.inf) -> "tuple[int, float]":
        """The single nearest stored point as ``(id, distance)`` — the
        same answer as ``knn(query, 1)[0]`` (canonical tie-break
        included) with a flat scalar descent instead of the heap.

        ``bound`` is an optional prune radius from the caller: subtrees
        whose splitting plane is *strictly* farther than
        ``min(bound, best so far)`` are skipped, so any point at distance
        ``<= bound`` is still found exactly (ties at the bound survive
        the strict comparison).  When every point is farther than
        ``bound`` the returned pair is the nearest *visited* point — the
        caller already holds a candidate at ``<= bound``, so the result
        merges away.  Returns ``(-1, inf)`` on an empty tree.
        """
        if not self._pts:
            return (-1, math.inf)
        q = tuple(np.asarray(query, dtype=float).tolist())
        self.stats.queries += 1
        pts, ids_, axes = self._pts, self._ids, self._axis
        left, right = self._left, self._right
        best_d = math.inf
        best_seq = -1
        lim = bound
        evals = 0
        stack: "list[tuple[int, float]]" = [(0, -1.0)]
        while stack:
            node, plane = stack.pop()
            if plane >= 0.0 and plane > lim:
                continue
            pt = pts[node]
            evals += 1
            s = 0.0
            for a, b in zip(pt, q):
                t = a - b
                s += t * t
            d = math.sqrt(s)
            if d < best_d or (d == best_d and node < best_seq):
                best_d = d
                best_seq = node
                if best_d < lim:
                    lim = best_d
            ax = axes[node]
            delta = q[ax] - pt[ax]
            if delta < 0.0:
                near, far = left[node], right[node]
            else:
                near, far = right[node], left[node]
            if far >= 0:
                stack.append((far, -delta if delta < 0.0 else delta))
            if near >= 0:
                stack.append((near, -1.0))
        self.stats.distance_evals += evals
        return (ids_[best_seq], best_d)

    def radius(self, query: np.ndarray, r: float, exclude: int | None = None) -> "list[tuple[int, float]]":
        if not self._pts:
            return []
        q = tuple(np.asarray(query, dtype=float).tolist())
        self.stats.queries += 1
        pts, ids_, axes = self._pts, self._ids, self._axis
        left, right = self._left, self._right
        found: "list[tuple[float, int, int]]" = []
        evals = 0
        stack = [0]
        while stack:
            node = stack.pop()
            pt = pts[node]
            evals += 1
            s = 0.0
            for a, b in zip(pt, q):
                t = a - b
                s += t * t
            d = math.sqrt(s)
            if d <= r and ids_[node] != exclude:
                found.append((d, node, ids_[node]))
            ax = axes[node]
            delta = q[ax] - pt[ax]
            if delta < 0.0:
                near, far = left[node], right[node]
            else:
                near, far = right[node], left[node]
            # The radius bound is static, so the far side prunes at push time.
            if far >= 0 and (-delta if delta < 0.0 else delta) <= r:
                stack.append(far)
            if near >= 0:
                stack.append(near)
        self.stats.distance_evals += evals
        found.sort()
        return [(pid, d) for d, _seq, pid in found]

    def __len__(self) -> int:
        return len(self._pts)

    # -- diagnostics --------------------------------------------------------
    def depth(self) -> int:
        """Tree height (for balance diagnostics in tests)."""
        if not self._pts:
            return 0
        best = 0
        stack = [(0, 1)]
        while stack:
            node, h = stack.pop()
            if h > best:
                best = h
            for child in (self._left[node], self._right[node]):
                if child >= 0:
                    stack.append((child, h + 1))
        return best
