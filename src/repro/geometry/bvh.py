"""Packed-array AABB bounding-volume hierarchy for collision culling.

The ROADMAP's "hierarchical spatial acceleration" item: brute-force
collision kernels are linear in obstacle count, which caps the paper's
load-imbalance story at toy obstacle densities.  This module provides the
acceleration structure behind the ``bvh`` kernel backend
(:mod:`repro.kernels.bvh_backend`): a binary tree of axis-aligned
bounding boxes over primitive AABBs, stored as contiguous NumPy arrays in
the same structure-of-arrays style as
:class:`~repro.kernels.data.EnvKernelData` so build and traversal touch
flat buffers, never Python node objects.

Design points:

* **Median split.**  Nodes split their primitive range at the median
  centroid along the widest centroid axis.  The split is by *count*, not
  position, so fully-overlapping primitive sets (every centroid
  identical) still produce a balanced, ``O(log n)``-depth tree instead of
  degenerating.
* **Level-synchronous build.**  The tree is built top-down one *level*
  at a time: segmented min/max (``reduceat``) give every node's box and
  widest centroid axis at once, one ``lexsort((key, node))`` does every
  median split of the level, and breadth-first ids keep
  ``right == left + 1`` — ``O(depth)`` NumPy passes, no per-node Python.
* **Frontier traversal.**  A batch of queries is answered by carrying
  one frontier of ``(query, node)`` index pairs down the tree: each
  level is one vectorised box test over all pairs, survivors of internal
  nodes expand to both children, survivors of leaves expand to
  ``(query, primitive)`` pairs, and queries already known to hit leave
  the frontier.  Points and segments share the loop — ``O(depth)`` NumPy
  calls per batch however many nodes it visits.
* **Conservative culling, exact leaves.**  Node boxes are inflated by a
  relative margin (~1e-9) at build time so float64 rounding in the
  node tests can never cull a primitive the exact leaf test would
  report as hit.  The box test is supplied by the caller (the ``bvh``
  backend passes the *reference kernels'* own expressions) and decides
  node and primitive boxes alike, so verdicts are bit-identical to the
  brute-force scan — the BVH culls, it never approximates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BVH", "DEFAULT_LEAF_SIZE"]

#: Primitives per leaf.  A leaf costs the frontier one more box row per
#: primitive and a level costs it one more pass, so the two trade off
#: almost evenly: the 648-task warehouse loop reads flat over 4 / 8 / 16 /
#: 32 (table in docs/kernels.md).  One constant, not a caller's choice.
DEFAULT_LEAF_SIZE = 8

#: Relative inflation applied to every node box at build time.  Traversal
#: tests run in float64 whose rounding is ~1e-16 relative; a 1e-9 margin
#: dwarfs it by seven orders of magnitude while being geometrically
#: invisible, so culling is strictly conservative w.r.t. the exact leaf
#: tests (see the grazing-segment cases in ``tests/test_bvh.py``).
_NODE_MARGIN = 1e-9

#: Stand-in centroid coordinate of a box infinite on that axis.  Any
#: finite value is sound (node bounds reduce the exact primitive boxes);
#: ``±1e300`` keeps a half-infinite box at its end of the axis and leaves
#: every spread between stand-ins finite.
_FAR = 1e300


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(start[i], start[i] + count[i])`` for every ``i``, concatenated."""
    ends = np.cumsum(count)
    return np.repeat(start - (ends - count), count) + np.arange(ends[-1])


def _rows(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``a[idx]`` of an axis-major (Fortran-ordered) ``(n, d)`` array,
    axis-major again: one contiguous gather per axis, and a reduce over the
    result's last axis combines ``d`` whole columns instead of walking
    ``len(idx)`` rows of ``d`` elements — which is what the per-level box
    tests spend their time on."""
    return a.T.take(idx, axis=1).T


class BVH:
    """A packed median-split AABB tree over ``n`` primitive boxes.

    Parameters
    ----------
    prim_lo, prim_hi:
        Primitive bounding boxes, shape ``(n, d)``.  Zero-volume boxes
        (``lo == hi`` on any axis) are fine; so are fully overlapping
        ones.  ``n == 0`` builds an empty tree whose queries return
        all-False.
    leaf_size:
        Maximum primitives per leaf.

    Attributes (all contiguous, read-only by convention)
    ----------------------------------------------------
    node_lo, node_hi:
        ``(num_nodes, d)`` float64, axis-major — inflated node boxes.
        Nodes are numbered breadth-first: parents precede children.
    node_left:
        ``(num_nodes,)`` int64 — index of the left child for internal
        nodes (the right child is always ``left + 1``), ``-1`` for
        leaves.
    node_start, node_count:
        ``(num_nodes,)`` int64 — leaf range into ``prim_index``
        (``count == 0`` for internal nodes).
    prim_index:
        ``(n,)`` int64 — permutation of primitive ids; a leaf owns
        ``prim_index[start:start+count]``.
    leaf_lo, leaf_hi:
        ``(n, d)`` float64, axis-major — the primitive boxes in
        ``prim_index`` order, so a leaf's boxes are the contiguous rows
        ``start:start+count``.
    """

    def __init__(self, prim_lo: np.ndarray, prim_hi: np.ndarray, leaf_size: int = DEFAULT_LEAF_SIZE):
        prim_lo = np.ascontiguousarray(np.atleast_2d(np.asarray(prim_lo, dtype=np.float64)))
        prim_hi = np.ascontiguousarray(np.atleast_2d(np.asarray(prim_hi, dtype=np.float64)))
        if prim_lo.shape != prim_hi.shape:
            raise ValueError("prim_lo/prim_hi shape mismatch")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        n, d = (0, prim_lo.shape[1]) if prim_lo.size == 0 else prim_lo.shape
        self.num_prims = n
        self.dim = d
        self.leaf_size = int(leaf_size)

        if n == 0:
            self.node_lo = self.node_hi = self.leaf_lo = self.leaf_hi = np.empty((0, d))
            self.node_left = self.node_start = self.node_count = np.empty(0, dtype=np.int64)
            self.prim_index = np.empty(0, dtype=np.int64)
            return

        order = np.arange(n, dtype=np.int64)
        # ``-inf + inf`` is NaN and two ``-inf`` centroids spread NaN: an
        # infinite box's centroid is made finite, a finite one is untouched.
        with np.errstate(invalid="ignore"):
            centers = np.nan_to_num(0.5 * (prim_lo + prim_hi), nan=0.0, posinf=_FAR, neginf=-_FAR)
        # One pass per level.  ``a`` / ``b`` bound each node's slice of
        # ``order``; ``first`` is the id of the level's first node.
        levels = []
        a = np.zeros(1, dtype=np.int64)
        b = np.full(1, n, dtype=np.int64)
        first = 0
        while True:
            k = a.size
            count = b - a
            # The level's primitives, gathered: its slices skip the leaves
            # a shallower level closed, ``seg`` offsets them back to back.
            pos = _ranges(a, count)
            seg = np.cumsum(count) - count
            ids = order[pos]
            lo = np.minimum.reduceat(prim_lo[ids], seg, axis=0)
            hi = np.maximum.reduceat(prim_hi[ids], seg, axis=0)
            split = count > leaf_size
            left = np.full(k, -1, dtype=np.int64)
            left[split] = first + k + 2 * np.arange(np.count_nonzero(split))
            levels.append((lo, hi, left, np.where(split, 0, a), np.where(split, 0, count)))
            if not split.any():
                break
            # Every median split of the level in one sort: by node, then by
            # centroid along that node's widest centroid axis.
            c = centers[ids]
            spread = np.maximum.reduceat(c, seg, axis=0) - np.minimum.reduceat(c, seg, axis=0)
            node = np.repeat(np.arange(k), count)
            key = c[np.arange(ids.size), spread.argmax(axis=1)[node]]
            order[pos] = ids[np.lexsort((key, node))]
            mid = (a + b) // 2
            a, b = (np.column_stack(x)[split].ravel() for x in ((a, mid), (mid, b)))
            first += k

        lo, hi, self.node_left, self.node_start, self.node_count = (
            np.concatenate(x) for x in zip(*levels)
        )
        # Inflate so traversal rounding can never out-cull the exact
        # leaf tests (conservative culling only costs a false visit).
        self.node_lo = np.asfortranarray(lo - _NODE_MARGIN * (np.abs(lo) + 1.0))
        self.node_hi = np.asfortranarray(hi + _NODE_MARGIN * (np.abs(hi) + 1.0))
        self.prim_index = order
        self.leaf_lo = np.asfortranarray(prim_lo[order])
        self.leaf_hi = np.asfortranarray(prim_hi[order])

    @property
    def num_nodes(self) -> int:
        return self.node_left.shape[0]

    @property
    def nbytes(self) -> int:
        """Total bytes held by the packed node, index and leaf-box arrays."""
        return sum(
            getattr(self, a).nbytes
            for a in (
                "node_lo", "node_hi", "node_left", "node_start", "node_count",
                "prim_index", "leaf_lo", "leaf_hi",
            )
        )

    # -- batched traversal -------------------------------------------------
    def points_hit(self, pts: np.ndarray, box_test) -> np.ndarray:
        """``(n,)`` bool: point ``i`` hits some primitive per ``box_test``.

        ``box_test(lo, hi, pts) -> (k,) bool`` decides ``k`` aligned
        ``(k, d)`` rows: inclusive containment of ``pts[j]`` in the box
        ``lo[j]..hi[j]``.  It culls on the node boxes and decides exactly
        on the primitive boxes; the tree only narrows which primitives
        each point can possibly touch.
        """
        return self._frontier_hit(box_test, pts)

    def segments_hit(self, p: np.ndarray, q: np.ndarray, box_test) -> np.ndarray:
        """``(n,)`` bool: segment ``p[i] -> q[i]`` hits some primitive.

        ``box_test(lo, hi, p, q) -> (k,) bool`` is the slab test over
        aligned rows; on the inflated node boxes it culls conservatively,
        on the primitive boxes it decides exactly.
        """
        return self._frontier_hit(box_test, p, q)

    def _frontier_hit(self, box_test, *queries: np.ndarray) -> np.ndarray:
        """Walk the tree one level per pass with a frontier of
        ``(query, node)`` pairs; ``queries`` are the per-query row arrays
        ``box_test`` takes after the boxes."""
        queries = [
            np.asfortranarray(np.atleast_2d(np.asarray(a, dtype=np.float64))) for a in queries
        ]
        n = queries[0].shape[0]
        hit = np.zeros(n, dtype=bool)
        if self.num_prims == 0 or n == 0:
            return hit
        qi = np.arange(n)
        ni = np.zeros(n, dtype=np.int64)
        while qi.size:
            keep = box_test(
                _rows(self.node_lo, ni), _rows(self.node_hi, ni), *(_rows(a, qi) for a in queries)
            )
            qi, ni = qi[keep], ni[keep]
            left = self.node_left[ni]
            leaf = left < 0
            if leaf.any():
                ln = ni[leaf]
                count = self.node_count[ln]
                prim = _ranges(self.node_start[ln], count)
                pq = np.repeat(qi[leaf], count)
                ok = box_test(
                    _rows(self.leaf_lo, prim), _rows(self.leaf_hi, prim),
                    *(_rows(a, pq) for a in queries),
                )
                hit[pq[ok]] = True
                # Leaves end here; so does every query now known to hit.
                descend = ~(leaf | hit[qi])
                qi, left = qi[descend], left[descend]
            qi = np.concatenate((qi, qi))
            ni = np.concatenate((left, left + 1))
        return hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BVH(prims={self.num_prims}, nodes={self.num_nodes}, "
            f"dim={self.dim}, leaf_size={self.leaf_size})"
        )
