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
* **One cell per point.**  The build also bins the leaf-ordered
  primitive boxes into a uniform cell table over their finite extent
  (CSR: a start per cell, a leaf row per entry).  A point query maps
  every point to its cell with one monotone expression and tests the
  cell's entries — one box test per batch, about one candidate per point
  on the 20k-box warehouse.  ``lo <= p <= hi`` implies ``cell(lo) <=
  cell(p) <= cell(hi)`` on every axis, so a box that holds a point is
  always among its cell's entries.
* **Frontier traversal.**  A batch of segments is answered by carrying
  one frontier of ``(query, node)`` index pairs down the tree: each
  level is one vectorised box test over all pairs, survivors of internal
  nodes expand to both children, survivors of leaves expand to
  ``(query, primitive)`` pairs, and queries already known to hit leave
  the frontier — ``O(depth)`` NumPy calls per batch however many nodes
  it visits.
* **Packed, shippable.**  :meth:`BVH.packed` names every array of a
  built tree and :meth:`BVH.from_packed` adopts such arrays as they are
  (read-only shared-memory views included) without building: the
  process pool's data plane publishes a tree once and no worker builds
  one.
* **Conservative culling, exact leaves.**  Node boxes are inflated by a
  relative margin (~1e-9) at build time so float64 rounding in the
  node tests can never cull a primitive the exact leaf test would
  report as hit; the cell map needs no margin, being monotone.  The box
  test is supplied by the caller (the ``bvh`` backend passes the
  *reference kernels'* own expressions) and decides node, cell and
  primitive boxes alike, so verdicts are bit-identical to the
  brute-force scan — the BVH culls, it never approximates.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BVH", "DEFAULT_LEAF_SIZE"]

#: Primitives per leaf.  A leaf costs the frontier one more box row per
#: primitive and a level costs it one more pass, so the two trade off
#: almost evenly: the 648-task warehouse loop reads flat over 4 / 8 / 16 /
#: 32 (table in docs/kernels.md, measured when points walked the tree
#: too; segments are all that walk it now).  One constant, not a
#: caller's choice.
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

#: The cell table holds at most this many cells, and this many entries,
#: per primitive.  Cells start as the primitives' per-axis median extent
#: and grow by ``_CELL_GROWTH`` until both fit: on the 20k-box warehouse
#: one step, 64,680 cells holding 63,476 entries, where a uniform point
#: meets at most 2 candidates (0.98 on average).  Half the boxes
#: spanning the whole scene shrink the table to a few cells; the entry
#: budget holds whatever the scene.
_CELL_BUDGET = 4
_CELL_GROWTH = 1.25

#: (point, candidate) rows one box test evaluates at most in a point
#: query; a point whose cell holds more is a slice of its own.  The same
#: size as the reference scan's planes, and for the same reason.
_QUERY_ROWS = 1 << 16

#: The arrays a built tree holds, by attribute name (see :meth:`BVH.packed`);
#: the first four are axis-major.
_ARRAYS = (
    "node_lo", "node_hi", "leaf_lo", "leaf_hi", "node_left", "node_start", "node_count",
    "prim_index", "cell_lo", "cell_hi", "cell_scale", "cell_shape", "cell_start", "cell_rows",
)
_AXIS_MAJOR = _ARRAYS[:4]


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


def _cell_coords(x: np.ndarray, lo: np.ndarray, hi: np.ndarray, scale: np.ndarray,
                 shape: np.ndarray) -> np.ndarray:
    """Per-axis cell of every row of ``x``: clip to ``lo..hi``, subtract
    the origin, scale, floor, clamp.  Each step is monotone, so ``a <= b``
    gives ``cell(a) <= cell(b)`` on every axis; NaN clips to the origin."""
    f = (np.fmin(np.fmax(x, lo), hi) - lo) * scale
    return np.fmin(f, shape - 1).astype(np.intp)


def _strides(shape: np.ndarray) -> np.ndarray:
    """Row-major strides of a cell grid of ``shape``."""
    return np.append(np.cumprod(shape[:0:-1])[::-1], 1).astype(np.intp)


def _cell_table(lo: np.ndarray, hi: np.ndarray):
    """``(lo, hi, scale, shape, start, rows)``: a uniform grid over the
    finite extent of the boxes ``lo``/``hi`` (``n >= 1``) and, as CSR,
    the boxes each cell touches — a box is binned into every cell from
    ``cell(lo)`` to ``cell(hi)``, in row order within a cell."""
    n, d = lo.shape
    both = np.concatenate((lo, hi))
    finite = np.isfinite(both)
    ext_lo = np.where(finite, both, np.inf).min(axis=0)
    ext_hi = np.where(finite, both, -np.inf).max(axis=0)
    budget = _CELL_BUDGET * n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        length = ext_hi - ext_lo
        # An axis with no finite spread (flat, all infinite, or too wide
        # for float64) is one cell that maps every coordinate to 0.
        live = np.isfinite(length) & (length > 0)
        ext_lo, ext_hi = np.where(live, ext_lo, 0.0), np.where(live, ext_hi, 0.0)
        width = np.median(np.fmax(np.minimum(hi, ext_hi) - np.maximum(lo, ext_lo), 0.0), axis=0)
        size = np.fmax(width, length / budget)
        while True:
            shape = np.where(live, np.maximum(np.floor(length / size), 1), 1)
            if np.prod(shape) <= budget:
                scale = np.where(live, shape / length, 0.0)
                shape = shape.astype(np.intp)
                c_lo = _cell_coords(lo, ext_lo, ext_hi, scale, shape)
                c_hi = _cell_coords(hi, ext_lo, ext_hi, scale, shape)
                span = np.maximum(c_hi - c_lo + 1, 0)
                # One cell holds each box once, so this ends by ``shape == 1``.
                if np.prod(span, axis=1, dtype=float).sum() <= budget:
                    break
            size = size * _CELL_GROWTH
    per = np.prod(span, axis=1)
    box = np.repeat(np.arange(n), per)
    # Entry ``r`` of a box is its ``r``-th cell in row-major order.
    r = np.arange(box.size) - np.repeat(np.cumsum(per) - per, per)
    cell = np.zeros(box.size, dtype=np.intp)
    for k, stride in reversed(list(enumerate(_strides(shape)))):
        step = span[box, k]
        cell += (c_lo[box, k] + r % step) * stride
        r //= step
    start = np.zeros(int(np.prod(shape)) + 1, dtype=np.int32)
    np.cumsum(np.bincount(cell, minlength=start.size - 1), out=start[1:])
    rows = box[np.argsort(cell, kind="stable")].astype(np.int32)
    return ext_lo, ext_hi, scale, shape, start, rows


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
    cell_lo, cell_hi, cell_scale, cell_shape:
        ``(d,)`` — the point queries' uniform grid: the primitives' finite
        extent, cells per unit length and cells per axis.
    cell_start, cell_rows:
        int32 CSR over the row-major cells — cell ``c`` holds the leaf rows
        ``cell_rows[cell_start[c]:cell_start[c+1]]``, at most
        ``_CELL_BUDGET * n`` entries in all.
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
            self.cell_lo = self.cell_hi = self.cell_scale = np.zeros(d)
            self.cell_shape = np.ones(d, dtype=np.intp)
            self.cell_start = np.zeros(2, dtype=np.int32)
            self.cell_rows = np.empty(0, dtype=np.int32)
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
        (self.cell_lo, self.cell_hi, self.cell_scale, self.cell_shape,
         self.cell_start, self.cell_rows) = _cell_table(self.leaf_lo, self.leaf_hi)

    def packed(self) -> "dict[str, np.ndarray]":
        """Every array of the tree by name, C-contiguous (an axis-major box
        array as its ``(d, k)`` transpose): what :meth:`from_packed` takes."""
        out = {name: getattr(self, name) for name in _ARRAYS}
        out.update((name, out[name].T) for name in _AXIS_MAJOR)
        out["leaf_size"] = np.array([self.leaf_size])
        return out

    @classmethod
    def from_packed(cls, arrays: "dict[str, np.ndarray]") -> "BVH":
        """The tree :meth:`packed` described, over those very arrays — no
        build, no copy; read-only views (a shared-memory segment) do."""
        tree = cls.__new__(cls)
        for name in _ARRAYS:
            setattr(tree, name, arrays[name])
        for name in _AXIS_MAJOR:
            setattr(tree, name, arrays[name].T)
        tree.num_prims, tree.dim = tree.leaf_lo.shape
        tree.leaf_size = int(arrays["leaf_size"][0])
        return tree

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
        ``lo[j]..hi[j]``.  It is evaluated once, on every point's cell
        entries (once per ``_QUERY_ROWS`` rows on a batch that meets
        more), and decides exactly; the cell only narrows which
        primitives a point can possibly touch.  A point with a NaN
        coordinate is inside no box and takes no candidates.
        """
        pts = np.asfortranarray(np.atleast_2d(np.asarray(pts, dtype=np.float64)))
        n = pts.shape[0]
        hit = np.zeros(n, dtype=bool)
        if self.num_prims == 0 or n == 0:
            return hit
        cell = _cell_coords(pts, self.cell_lo, self.cell_hi, self.cell_scale, self.cell_shape)
        cell = cell @ _strides(self.cell_shape)
        start = self.cell_start[cell]
        count = self.cell_start[cell + 1] - start
        count[np.isnan(pts).any(axis=1)] = 0
        ends = np.cumsum(count)
        cuts = np.searchsorted(ends, np.arange(_QUERY_ROWS, ends[-1], _QUERY_ROWS), side="right")
        for a, b in zip((0, *cuts), (*cuts, n)):
            if a == b:
                continue
            pq = np.repeat(np.arange(a, b), count[a:b])
            row = self.cell_rows[_ranges(start[a:b], count[a:b])]
            ok = box_test(_rows(self.leaf_lo, row), _rows(self.leaf_hi, row), _rows(pts, pq))
            hit[pq[ok]] = True
        return hit

    def segments_hit(self, p: np.ndarray, q: np.ndarray, box_test) -> np.ndarray:
        """``(n,)`` bool: segment ``p[i] -> q[i]`` hits some primitive.

        ``box_test(lo, hi, p, q) -> (k,) bool`` is the slab test over
        aligned rows; on the inflated node boxes it culls conservatively,
        on the primitive boxes it decides exactly.  The batch walks the
        tree one level per pass with a frontier of ``(segment, node)``
        pairs.
        """
        queries = [
            np.asfortranarray(np.atleast_2d(np.asarray(a, dtype=np.float64))) for a in (p, q)
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
