"""Vectorised brute-force nearest neighbours.

O(n) per query but with NumPy constants small enough that it beats the
tree structures below a few thousand points — the regime of regional
roadmaps under heavy over-decomposition.  The PRM's construction asks it
for whole blocks at once: :meth:`BruteForceNN.knn_block_growing` and
``knn_batch_arrays(..., segments=)`` answer many independent segments
in one padded distance pass, exactly as one finder per segment would.
"""

from __future__ import annotations

import numpy as np

from ..kernels import select_canonical, select_canonical_block, select_canonical_rows
from ..kernels.reference import pairwise_accumulate_exact
from .base import NeighborFinder

__all__ = ["BruteForceNN"]

_INITIAL_CAPACITY = 64
#: distance entries one slice of a segmented query may hold.
_SEGMENT_ELEMENTS = 1 << 20


class BruteForceNN(NeighborFinder):
    """Amortised-growth array of points; queries are one broadcast each.

    The batched distance blocks are
    :func:`repro.kernels.reference.pairwise_accumulate_exact`, bit-exact
    with the per-query scalar paths below 8 dimensions (numpy's reduction
    keeps eight partial sums from ``d = 8`` up).
    """

    def __init__(self, dim: int):
        super().__init__()
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._points = np.empty((_INITIAL_CAPACITY, dim))
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._n = 0

    def _ensure_capacity(self, extra: int) -> None:
        need = self._n + extra
        cap = self._points.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        # Explicit alloc+copy of the live prefix: np.resize would fill the
        # new space by tiling the old buffer (wasted copying of garbage).
        points = np.empty((new_cap, self.dim))
        points[: self._n] = self._points[: self._n]
        ids = np.empty(new_cap, dtype=np.int64)
        ids[: self._n] = self._ids[: self._n]
        self._points, self._ids = points, ids

    def add(self, point_id: int, point: np.ndarray) -> None:
        self._ensure_capacity(1)
        self._points[self._n] = point
        self._ids[self._n] = point_id
        self._n += 1

    def add_batch(self, ids: np.ndarray, points: np.ndarray) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != points.shape[0]:
            raise ValueError("ids and points length mismatch")
        self._ensure_capacity(points.shape[0])
        self._points[self._n : self._n + points.shape[0]] = points
        self._ids[self._n : self._n + points.shape[0]] = ids
        self._n += points.shape[0]

    @staticmethod
    def _dist_block(stored: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        """Write ``||stored[j] - queries[i]||`` into ``out[i, j]`` using
        per-dimension 2-D accumulation (bit-identical to the per-query
        ``np.linalg.norm`` of :meth:`knn` below 8 dimensions, where numpy
        sums the squares left to right; from ``d = 8`` up it keeps eight
        partial sums, and the two may differ in the last ulp).

        Static — the batched RRT calls it directly for its frozen-tree
        distances.
        """
        pairwise_accumulate_exact(stored, queries, out)

    def _distances(self, query: np.ndarray) -> np.ndarray:
        pts = self._points[: self._n]
        self.stats.queries += 1
        self.stats.distance_evals += self._n
        return np.linalg.norm(pts - np.asarray(query, dtype=float)[None, :], axis=1)

    # Canonical (distance, insertion order) top-k selection — shared with
    # the kernel backends so cross-backend tests compare results exactly
    # (kept as aliases for the historical internal names).
    _select_canonical = staticmethod(select_canonical)
    _select_canonical_rows = staticmethod(select_canonical_rows)

    def knn(self, query: np.ndarray, k: int, exclude: int | None = None) -> "list[tuple[int, float]]":
        if self._n == 0 or k <= 0:
            return []
        d = self._distances(query)
        ids = self._ids[: self._n]
        if exclude is not None:
            mask = ids != exclude
            d, ids = d[mask], ids[mask]
        if d.size == 0:
            return []
        order = self._select_canonical(d, min(k, d.size))
        return [(int(ids[i]), float(d[i])) for i in order]

    def _knn_segments(
        self, points: np.ndarray, k: int, segments, block_ids: "np.ndarray | None" = None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Canonical k-NN of many independent segments as one padded pass.

        ``segments = (stored_offsets, point_offsets)``: rows
        ``[po[s], po[s+1])`` of ``points`` search stored rows
        ``[so[s], so[s+1])`` only — and, when ``block_ids`` is given, the
        earlier rows of their own segment (growing visibility).  The
        ragged segments are padded to one ``(segments, rows, columns)``
        distance block, accumulated per dimension exactly like the
        one-segment paths; padding, later rows and self are masked to
        ``+inf``, so a stable sort along the columns *is* the canonical
        (distance, insertion order) selection.  Returns padded
        ``(ids, dists)`` like :meth:`knn_batch_arrays` and charges what
        one finder per segment would have been charged in total.
        """
        so, po = (np.asarray(o, dtype=np.int64) for o in segments)
        growing = block_ids is not None
        n0, m = np.diff(so), np.diff(po)
        total = points.shape[0]
        if so.shape != po.shape or po[-1] != total or so[-1] != self._n:
            raise ValueError("segment offsets must partition the stored and the query rows")
        kk = max(k, 0)
        ids = np.full((total, kk), -1, dtype=np.int64)
        dists = np.full((total, kk), np.inf)
        width0, rows = int(n0.max(initial=0)), np.arange(int(m.max(initial=0)))
        if total == 0 or kk == 0 or (width0 == 0 and not growing):
            return ids, dists
        cols = np.arange(width0)
        flat = po[:-1, None] + rows
        padded = np.minimum(flat, total - 1)
        block = points[padded]
        col_ids = np.empty((m.size, width0 + (rows.size if growing else 0)), dtype=np.int64)
        if width0:
            gather = np.minimum(so[:-1, None] + cols, self._n - 1)
            stored, hidden = self._points[gather], (cols >= n0[:, None])[:, None, :]
            col_ids[:, :width0] = self._ids[gather]
        if growing:
            col_ids[:, width0:] = block_ids[padded]
        # Rows are taken a slice at a time so the distance block stays
        # bounded however many points one segment holds.
        step = max(1, _SEGMENT_ELEMENTS // (m.size * col_ids.shape[1]))
        for r0 in range(0, rows.size, step):
            r1 = min(r0 + step, rows.size)
            # Growing rows below r1 see no block column at or past r1.
            D = np.empty((m.size, r1 - r0, width0 + (r1 if growing else 0)))
            if width0:
                pairwise_accumulate_exact(stored, block[:, r0:r1], D[:, :, :width0])
                np.copyto(D[:, :, :width0], np.inf, where=hidden)
            if growing:
                pairwise_accumulate_exact(block[:, :r1], block[:, r0:r1], D[:, :, width0:])
                np.copyto(D[:, :, width0:], np.inf, where=rows[:r1] >= rows[r0:r1, None])
            k_eff = min(kk, D.shape[2])
            order = select_canonical_block(D, k_eff)
            real = rows[r0:r1] < m[:, None]
            dsel = np.take_along_axis(D, order, axis=2)[real]
            isel = col_ids[np.arange(m.size)[:, None, None], order][real]
            isel[np.isinf(dsel)] = -1
            dest = flat[:, r0:r1][real]
            ids[dest, :k_eff], dists[dest, :k_eff] = isel, dsel
        # A query against an empty structure returns early, uncharged.
        self.stats.distance_evals += int((m * n0).sum())
        if growing:
            self.stats.queries += int(np.where(n0 > 0, m, np.maximum(m - 1, 0)).sum())
            self.stats.distance_evals += int((m * (m - 1) // 2).sum())
        else:
            self.stats.queries += int(m[n0 > 0].sum())
        return ids, dists

    def knn_batch_arrays(
        self, queries: np.ndarray, k: int, segments=None, *, out: "np.ndarray | None" = None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Canonical k-NN for every row of ``queries`` in one distance
        broadcast, returned as padded ``(ids, dists)`` arrays — same
        results, ordering, and stats charges as a :meth:`knn` loop without
        the per-query tuple lists.

        ``segments = (stored_offsets, query_offsets)`` restricts query rows
        ``[qo[s], qo[s+1])`` to stored rows ``[so[s], so[s+1])``: many
        small independent searches (one per region adjacency) as one pass
        over one finder, equal to one finder per segment.

        ``out``, an ``(m, len(self))`` float array, receives the distance
        block itself (``out[i, j]`` from query ``i`` to the ``j``-th stored
        point, bit-identical to ``np.linalg.norm`` below 8 dimensions — see
        :func:`~repro.kernels.reference.pairwise_accumulate_exact`) for a
        caller that needs more of it than the ``k`` nearest (unsegmented
        queries only).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if segments is not None:
            if out is not None:
                raise ValueError("out= needs unsegmented queries")
            return self._knn_segments(queries, k, segments)
        m = queries.shape[0]
        kk = max(k, 0)
        ids = np.full((m, kk), -1, dtype=np.int64)
        dists = np.full((m, kk), np.inf)
        if m == 0 or self._n == 0:
            return ids, dists
        D = np.empty((m, self._n)) if out is None else out
        pairwise_accumulate_exact(self._points[: self._n], queries, D)
        if kk == 0:
            return ids, dists
        self.stats.queries += m
        self.stats.distance_evals += m * self._n
        k_eff = min(kk, self._n)
        sel, dvals = self._select_canonical_rows(D, k_eff)
        stored_ids = self._ids[: self._n]
        for i, (srow, drow) in enumerate(zip(sel, dvals)):
            ids[i, :k_eff] = stored_ids[srow]
            dists[i, :k_eff] = drow
        return ids, dists

    def knn_batch(self, queries: np.ndarray, k: int) -> "list[list[tuple[int, float]]]":
        """Tuple-list view of :meth:`knn_batch_arrays` (compatibility)."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        m = queries.shape[0]
        if m == 0:
            return []
        if self._n == 0 or k <= 0:
            return [[] for _ in range(m)]
        ids, dists = self.knn_batch_arrays(queries, k)
        return [
            [(int(i), float(d)) for i, d in zip(irow, drow) if np.isfinite(d)]
            for irow, drow in zip(ids, dists)
        ]

    def knn_block_growing(
        self, ids: np.ndarray, points: np.ndarray, k: int, segments=None
    ) -> "tuple[np.ndarray, np.ndarray]":
        """k-NN for a block of points as if queried/inserted one at a time.

        Query ``i`` searches the stored points plus ``points[:i]``, and all
        block points are inserted afterwards — exactly equivalent (same
        results, same :class:`KnnStats` charges) to the interleaved
        ``knn(points[i], k); add(ids[i], points[i])`` sequence the PRM
        build loop performs, but as one padded distance pass.  Neighbours
        come back as the padded ``(ids, dists)`` arrays of
        :meth:`knn_batch_arrays` (``-1`` / ``inf`` past a row's visible
        points).

        ``segments = (stored_offsets, block_offsets)`` grows many
        independent blocks at once — block rows ``[bo[s], bo[s+1])`` on
        stored rows ``[so[s], so[s+1])`` and on their own earlier rows —
        which is how a block of regional roadmaps is built in one pass;
        without it the block is one segment over every stored point.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape[0] != points.shape[0]:
            raise ValueError("ids and points length mismatch")
        if segments is None:
            segments = ([0, self._n], [0, points.shape[0]])
        found = self._knn_segments(points, k, segments, block_ids=ids)
        self.add_batch(ids, points)
        return found

    def radius(self, query: np.ndarray, r: float, exclude: int | None = None) -> "list[tuple[int, float]]":
        if self._n == 0:
            return []
        d = self._distances(query)
        ids = self._ids[: self._n]
        mask = d <= r
        if exclude is not None:
            mask &= ids != exclude
        sel = np.nonzero(mask)[0]
        sel = sel[np.argsort(d[sel], kind="stable")]
        return [(int(ids[i]), float(d[i])) for i in sel]

    def __len__(self) -> int:
        return self._n
